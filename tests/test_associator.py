import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp

from mzvkit import associator, numeric, regularization
from mzvkit.associator import (
    IMG_SWAP, NcSeries, check_duality_assoc,
    check_gamma_factor, check_independence_factor, check_refined_duality,
    check_rsmzv_routes, check_smzv_routes, check_t_part, check_three_cycle,
    check_two_cycle, exp_linear, phi, phi_ad, phi_kz,
    phi_rs, rsmzv, smzv_via_assoc, _flanked_pairing,
)
from mzvkit.indices import Index, coarsenings, stuffle
from mzvkit.numeric import _GUARD, _as_mpf, _bits, eval_zeta_poly, mzv, residual, to_mp, tolerance
from mzvkit.regularization import Z_reg_full, _z_reg_full_word
from mzvkit.rings import BiSeries, ZetaPoly, exp_coeffs
from mzvkit.words import E0, E1, HARMONIC, SHUFFLE, NcPoly, word_of_index
from support import clear_caches, indices_up_to, words_up_to

TOL = tolerance(40)


class TruncationError(ValueError):
    """A pairing would silently lose terms beyond the degree."""


def pair(series: NcSeries, u: NcPoly):
    """Coefficient extraction <series, u>, word for word in the same order;
    a word longer than the degree bound raises rather than reads 0."""
    total = mp.mpf(0)
    for w, c in u.terms.items():
        if len(w) > series.deg:
            raise TruncationError(f"word of length {len(w)} exceeds the degree bound {series.deg}")
        total += series.coeff(w) * to_mp(c)
    return total


def rsmzv_star(k: Index, orders: tuple[int, int], prec: int) -> BiSeries:
    """The refined symmetric star value: ``rsmzv`` summed over the coarsenings."""
    k = Index(k)
    if k.depth == 0:
        raise ValueError("star values need a non-empty index")
    with mp.workdps(prec + _GUARD):
        out = BiSeries.constant(mp.mpf(0), *orders)
        for l in coarsenings(k):
            out += rsmzv(l, orders, prec)
        return out


def check_pair_convention(n: int, k: Index, product: str, T, prec: int):
    """<phi(T), w> equals the regularized value of the reversed word, w = e0^n e_k."""
    w = (E0,) * n + word_of_index(Index(k))
    with mp.workdps(prec + _GUARD):
        lhs = pair(phi(product, T, len(w), prec), NcPoly.from_word(w))
        rhs = eval_zeta_poly(Z_reg_full(NcPoly.from_word(w[::-1]), product),
                             {"T": to_mp(T)}, prec)
        return residual(lhs, rhs, prec)


def check_phi_ad_translation(T1, T2, D: int, prec: int):
    """phi_ad(T1, T2) = phi_ad(0, T2 - T1) for the harmonic product."""
    with mp.workdps(prec + _GUARD):
        lhs = phi_ad(HARMONIC, T1, T2, D, prec)
        rhs = phi_ad(HARMONIC, 0, T2 - T1, D, prec)
        return residual(lhs, rhs, prec)


def test_ncseries_ops():
    with mp.workdps(50):
        a = NcSeries(2, {(): mp.mpf(1), (E0,): mp.mpf(2)})
        b = NcSeries(2, {(E1,): mp.mpf(3)})
        assert (a * b).coeff((E0, E1)) == 6
        assert (a * b).coeff((E1,)) == 3
        # truncation beyond the degree bound
        c = NcSeries(1, {(E0,): mp.mpf(1)})
        assert not (c * c).terms
        # eps reverses and signs by length; reverse keeps signs
        d = NcSeries(2, {(E0, E1): mp.mpc(0, 1)})
        assert d.eps().coeff((E1, E0)) == mp.mpc(0, 1)
        assert d.reverse().coeff((E1, E0)) == mp.mpc(0, 1)
        assert d.conj().coeff((E0, E1)) == mp.mpc(0, -1)
        assert b.eps().coeff((E1,)) == -3
        assert b.reverse().coeff((E1,)) == 3
        # the text form decodes the fixed-point ints, real and complex
        e = NcSeries(2, {(): mp.mpf(1) / 3, (E0, E1): mp.mpc(0.5, -2)})
        assert repr(e) == str(e) == "(0.33333333)*1 + ((0.5 - 2.0j))*X0X1"
        assert repr(NcSeries(2)) == "0"
        # a series over an exact ring keeps its coefficients as given
        z2 = ZetaPoly.zeta(Index((2,)))
        f = NcSeries(2, {(): ZetaPoly.const(1), (E0, E1): z2})
        assert f.bits == 0 and f.coeff((E0, E1)) == z2 and f.coeff((E1,)) == 0
        assert f.scale(2).coeff((E0, E1)) == z2 * 2
        assert abs(residual(f.scale(2), f, 40) - mp.zeta(2)) < mp.mpf(10) ** -40


def _random_terms(rng: random.Random, D: int, complex_values: bool) -> dict:
    """About four in five words of length <= D, each with a value of full
    working precision in (-2, 2), complex or real."""
    def part():
        return mp.mpf(rng.randrange(-2 ** 200, 2 ** 200)) / 2 ** 199

    return {w: mp.mpc(part(), part()) if complex_values else part()
            for w in words_up_to(D) if rng.random() < 0.8}


def _mpmath_product(a: dict, b: dict, D: int) -> dict:
    """The truncated product of two word -> number maps, summed in mpmath."""
    out = {}
    for (w1, c1), (w2, c2) in itertools.product(a.items(), b.items()):
        if len(w1) + len(w2) <= D:
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out


def test_fixed_point_products_agree_with_mpmath_products():
    rng = random.Random(20261019)
    D, prec = 6, 40
    for left_complex, right_complex in itertools.product((False, True), repeat=2):
        with mp.workdps(prec + _GUARD):
            a = _random_terms(rng, D, left_complex)
            b = _random_terms(rng, D, right_complex)
            got = NcSeries(D, a) * NcSeries(D, b)
        with mp.workdps(prec + 40):
            want = _mpmath_product(a, b, D)
            assert set(got.terms) == set(want)
            worst = max(abs(got.coeff(w) - c) for w, c in want.items())
            assert worst < mp.mpf(10) ** -(prec + 10)
            complex_product = left_complex or right_complex
            assert all(isinstance(got.coeff(w), mp.mpc) == complex_product for w in want)


def test_series_of_different_scales_do_not_combine():
    # a whole-series check builds every factor at one precision; a factor
    # built at another, or exact against fixed point, is an error, not a
    # silent conversion
    with mp.workdps(40 + _GUARD):
        coarse = exp_linear(4, mp.mpf(1) / 3, (E0, E1))
    with mp.workdps(60 + _GUARD):
        fine = exp_linear(4, mp.mpf(1) / 3, (E0, E1))
    exact = NcSeries(4, {(): 1, (E0,): Fraction(1, 3)})
    assert exact.bits == 0 and 0 < coarse.bits < fine.bits
    for a, b in [(coarse, fine), (fine, coarse), (exact, fine), (coarse, exact)]:
        for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(ValueError, match="fixed-point scales do not match"):
                op(a, b)


@pytest.mark.parametrize("check", [check_three_cycle, check_duality_assoc],
                         ids=["three-cycle", "duality-assoc"])
def test_a_phi_coefficient_off_by_1e_25_fails(monkeypatch, check):
    # phi reads the fixed-point ints of _phi_coeff, so the bump is 1e-25 in
    # their units, 2^-bits
    exact, bump = associator._phi_coeff, round(Fraction(1, 10 ** 25) * 2 ** _bits(40))
    monkeypatch.setattr(associator, "_PHI_CACHE", {})
    monkeypatch.setattr(associator, "_PHI_RS_CACHE", {})
    assert check(5, 40) < TOL
    monkeypatch.setattr(associator, "_phi_coeff", lambda w, *args: exact(w, *args)
                        + (bump if w == (E0, E0, E1) else 0))
    associator._PHI_CACHE.clear()
    associator._PHI_RS_CACHE.clear()
    assert not check(5, 40) < TOL


def test_a_non_finite_coefficient_in_a_product_never_passes():
    with mp.workdps(40 + _GUARD):
        kz = phi_kz(3, 40)
        for bad in (mp.nan, mp.inf, -mp.inf, mp.mpc(mp.nan, 0), mp.mpc(1, mp.inf)):
            series = NcSeries(3, {(): mp.mpf(1), (E0,): bad})
            for product in (series * kz, kz * series, kz * series.conj()):
                try:
                    r = residual(product, kz, 40)
                except (ValueError, ArithmeticError):
                    continue
                assert not r < TOL, bad


def test_reversed_t_factorization():
    # the reversed series factors on the right: rev(phi(T)) = rev(phi(0)) exp(-T X1)
    with mp.workdps(40 + _GUARD):
        T = Fraction(7, 10)
        lhs = phi(SHUFFLE, T, 4, 40).reverse()
        rhs = phi(SHUFFLE, 0, 4, 40).reverse() * exp_linear(4, -mp.mpf(7) / 10, (E1,))
        assert residual(lhs, rhs, 40) < TOL


def _exp_by_products(x: NcSeries) -> NcSeries:
    """exp of a series with no constant term as sum x^n/n!, by truncated products."""
    out = power = NcSeries.const(x.deg)
    for n in range(1, x.deg + 1):
        power = power * x
        out = out + power.scale(mp.mpf(1) / factorial(n))
    return out


def test_exp_letter_linear():
    with mp.workdps(50):
        e = exp_linear(3, mp.mpf(2), (E0,))
        assert e.coeff(()) == 1
        assert e.coeff((E0,)) == 2
        assert e.coeff((E0, E0)) == 2
        assert abs(e.coeff((E0, E0, E0)) - mp.mpf(8) / 6) < mp.mpf(10) ** -45
        mixed = exp_linear(2, mp.mpf(1), (E0, E1))
        assert mixed.coeff((E0, E1)) == mp.mpf(1) / 2
        # the closed form is the sum of the truncated powers, with a real 1
        c = mp.mpc(mp.mpf(3) / 10, -mp.mpf(7) / 10)
        for letters in ((E0,), (E1,), (E0, E1)):
            closed = exp_linear(6, c, letters)
            assert type(closed.coeff(())) is mp.mpf
            x = NcSeries(6, {(a,): c for a in letters})
            assert residual(closed, _exp_by_products(x), 40) < mp.mpf(10) ** -45


def test_exp_single_letter_series():
    with mp.workdps(50):
        # exp(x^2) = 1 + x^2 + x^4/2 on one letter
        coeffs = exp_coeffs([mp.mpf(0), 0, mp.mpf(1), 0, 0])
        e = NcSeries(4, {(E1,) * n: c for n, c in enumerate(coeffs)})
        assert e.coeff(()) == 1 and type(e.coeff(())) is mp.mpf
        assert e.coeff((E1, E1)) == 1
        assert abs(e.coeff((E1,) * 4) - mp.mpf(1) / 2) < mp.mpf(10) ** -45
        assert e.coeff((E1,)) == 0
        with pytest.raises(ValueError):
            exp_coeffs([mp.mpf(1), mp.mpf(1), 0])


def test_subst():
    with mp.workdps(50):
        a = NcSeries(2, {(E0, E1): mp.mpf(1)})
        swapped = a.subst(IMG_SWAP)
        assert swapped.coeff((E1, E0)) == 1
        inf = a.subst({E0: ((E0, -1), (E1, -1)), E1: ((E1, 1),)})
        assert inf.coeff((E0, E1)) == -1 and inf.coeff((E1, E1)) == -1


def test_phi_coefficients():
    with mp.workdps(60):
        kz = phi_kz(3, 40)
        assert kz.coeff(()) == 1
        assert abs(kz.coeff((E0, E1)) + mzv((2,), 40)) < TOL
        assert kz.coeff((E1,)) == 0
        p = phi(SHUFFLE, Fraction(7, 10), 2, 40)
        assert abs(p.coeff((E1,)) + mp.mpf(7) / 10) < TOL


def test_phi_ad():
    with mp.workdps(60):
        ad = phi_ad(HARMONIC, 0, 0, 3, 40)
        assert abs(ad.coeff((E1,)) - 1) < TOL
        assert abs(ad.coeff((E1, E1))) < TOL  # both flanks vanish at T=0
        assert not phi_ad(HARMONIC, 0, 0, 0, 40).terms


def test_phi_rs_degree_one():
    with mp.workdps(60):
        rs = phi_rs(2, 40)
        assert abs(rs.coeff((E0,)) - mp.pi * mp.mpc(0, 1)) < TOL
        assert abs(rs.coeff((E1,)) - 2 * mp.pi * mp.mpc(0, 1)) < TOL
        assert abs(phi_rs(0, 40).coeff(()) - 1) < TOL


def test_pair():
    with mp.workdps(60):
        kz = phi_kz(3, 40)
        assert pair(NcSeries.const(3), NcPoly.one()) == 1
        assert abs(pair(kz, NcPoly.from_word((E0, E1))) + mzv((2,), 40)) < TOL
        with pytest.raises(TruncationError):
            pair(kz, NcPoly.from_word((E0,) * 5))
        # the flanked pairing <series, (1 + e0 s)^(-1) e1> as an s-grid
        got = _flanked_pairing(phi(SHUFFLE, 0, 3, 40), Index(()), (1, 0))
        assert got.coeff(0, 0) == 0  # Z(e1) at T=0
        assert abs(got.coeff(1, 0) - mzv((2,), 40)) < TOL  # -<KZ, e0 e1>


def test_pair_convention():
    for product in (HARMONIC, SHUFFLE):
        for n in range(3):
            for k in indices_up_to(4, 1):
                assert check_pair_convention(n, k, product, Fraction(7, 10), 40) < TOL


def test_pair_reversal_anchor():
    # weight-4 anchor where the letter reversal flips the sign: the series
    # coefficient on e1 e1 e0 e0 is -zeta(1,3) = -pi^4/360, not +zeta(1,3)
    from mzvkit.numeric import pi_val
    with mp.workdps(60):
        got = pair(phi_kz(4, 40), NcPoly.from_word((E1, E1, E0, E0)))
        expect = -pi_val(40) ** 4 / 360
        assert abs(got - expect) < TOL
        assert abs(got + expect) > mp.mpf("0.1")


def test_cycles_small():
    assert check_two_cycle(0, 40) == 0
    assert check_two_cycle(4, 40) < TOL
    assert check_three_cycle(4, 40) < TOL


def test_factorizations():
    t = Fraction(7, 10)
    assert check_t_part(SHUFFLE, 0, 4, 40) == 0  # exp(0) = 1, structural
    assert check_t_part(SHUFFLE, t, 4, 40) < TOL
    assert check_t_part(HARMONIC, t, 4, 40) < TOL
    assert check_gamma_factor(t, 4, 40) < TOL
    assert check_independence_factor(t, 4, 40) < TOL
    for deg in (4, 5):
        assert check_phi_ad_translation(Fraction(3, 10), Fraction(-7, 10), deg, 40) < TOL
    assert check_duality_assoc(4, 40) < TOL


@pytest.mark.parametrize("check", [
    lambda: check_three_cycle(10, 40),
    lambda: check_duality_assoc(10, 40),
    lambda: check_independence_factor(associator.SAMPLE_T, 10, 40),
], ids=["three-cycle", "duality-assoc", "independence"])
def test_whole_series_checks_at_degree_10(check):
    # every exponential factor reaches words of length 10, and independence
    # reads the recurrence for exp(sum zeta(2k)/k X1^2k) up to X1^10
    assert check() < TOL


WHOLE_SERIES_CHECKS = {
    "two-cycle": check_two_cycle,
    "three-cycle": check_three_cycle,
    "t-part-shuffle": lambda D, prec: check_t_part(SHUFFLE, associator.SAMPLE_T, D, prec),
    "t-part-harmonic": lambda D, prec: check_t_part(HARMONIC, associator.SAMPLE_T, D, prec),
    "gamma-factor": lambda D, prec: check_gamma_factor(associator.SAMPLE_T, D, prec),
    "independence": lambda D, prec: check_independence_factor(associator.SAMPLE_T, D, prec),
    "duality-assoc": check_duality_assoc,
}


@pytest.mark.parametrize("name", list(WHOLE_SERIES_CHECKS))
def test_whole_series_checks_at_every_precision(name):
    # each check builds all its factors at its own precision, also when the
    # series caches already hold phi at another one
    for prec in (15, 60, 40):
        for D in (5, 6):
            assert WHOLE_SERIES_CHECKS[name](D, prec) < tolerance(prec), (D, prec)


def test_smzv_via_assoc_routes():
    assert check_smzv_routes(Index((1,)), (1, 1), 40) < TOL
    assert check_smzv_routes(Index((2,)), (1, 1), 40) < TOL
    assert check_smzv_routes(Index((1, 2)), (1, 1), 40) < TOL
    with pytest.raises(ValueError):
        smzv_via_assoc(Index(()), (1, 1), 40)


def test_degree_budget_is_the_longest_flanked_word(monkeypatch):
    # a pairing reads no word longer than e0^i e_k e1 e0^j at the full orders,
    # weight + 1 + s-order + t-order letters, and reads that word itself
    lengths = []
    coeff = associator._SplitProduct.coeff
    monkeypatch.setattr(associator._SplitProduct, "coeff",
                        lambda self, w: lengths.append(len(w)) or coeff(self, w))
    for k, orders in ((Index((2,)), (1, 1)), (Index((1, 2)), (1, 1)), (Index((2, 1)), (2, 1))):
        lengths.clear()
        rsmzv(k, orders, 40)
        assert max(lengths) == k.weight + 1 + orders[0] + orders[1]
    # duality pads (2) up to (1,2,1): weight 4, so degree 4 + 1 + 1 + 1
    lengths.clear()
    assert check_refined_duality(Index((2,)), (1, 1), 40) < TOL
    assert max(lengths) == 7


def test_split_sum_coefficients_equal_the_series_products():
    # reading a product by splits gives its coefficient at every word the
    # truncated NcSeries product keeps
    T1, T2 = Fraction(3, 10), Fraction(-7, 10)
    with mp.workdps(55):
        for D in range(7):
            rs, ad = phi_rs(D, 40), phi_ad(HARMONIC, T1, T2, D, 40)
            # fresh products, so no word is read from what a longer one kept
            rs_splits = associator._SplitProduct(associator._rs_product(40).factors, _bits(40))
            ad_splits = associator._SplitProduct(
                associator._ad_product(HARMONIC, T1, T2, 40).factors, _bits(40))
            for w in words_up_to(D):
                assert abs(rs_splits.coeff(w) - rs.coeff(w)) < 1e-45, w
                assert abs(ad_splits.coeff(w) - ad.coeff(w)) < 1e-45, w


@pytest.mark.parametrize("prec", [15, 40, 100])
def test_the_split_products_pi_ints_are_within_a_few_units(prec):
    # pi and the exp factors' coefficients (pi i/2)^n/n! and (2 pi i)^n/n! as
    # ints at the split product's scale 2^-bits, against mpmath at twice the bits
    bits = _bits(prec)
    with mp.workprec(2 * bits):
        unit = mp.mpf(2) ** -bits
        assert abs(numeric._pi(bits) * unit - mp.pi) <= unit
        for r, c in ((Fraction(1, 2), mp.pi * mp.mpc(0, 1) / 2), (2, 2 * mp.pi * mp.mpc(0, 1))):
            for n in range(17):
                re, im = numeric._i_pi_power(r, n, bits)
                assert abs(mp.mpc(re, im) * unit - c ** n / mp.factorial(n)) <= (n + 1) * unit, n


def test_per_word_phi_equals_the_symbolic_value():
    # the numeric product and one-letter recursions against the symbolic ones
    # (zeta_reg, Z_reg_full): the same expansions, independent arithmetic
    for product in (HARMONIC, SHUFFLE):
        for T in (0, Fraction(7, 10)):
            for w in words_up_to(8):
                symbolic = eval_zeta_poly(_z_reg_full_word(w[::-1], product), {"T": T}, 40)
                value = _as_mpf(associator._phi_coeff(w, product, T, 40), _bits(40), 40)
                assert abs(value - symbolic) < 1e-45, w


def test_the_associator_builds_no_symbolic_regularization():
    clear_caches()
    with mp.workdps(60):
        phi_kz(7, 40)
        rsmzv(Index((1, 2)), (1, 1), 40)
        assert check_two_cycle(5, 40) < TOL
        for product in (HARMONIC, SHUFFLE):
            assert check_t_part(product, Fraction(7, 10), 5, 40) < TOL
    assert associator._zeta_reg_value.cache_info().misses > 0
    assert regularization.zeta_reg.cache_info().misses == 0
    assert regularization._decompose_word.cache_info().misses == 0


def test_the_product_recursion_at_T():
    def value(k, product, T, prec):     # the fixed-point int, scaled back
        return mp.mpf((associator._zeta_reg_value(k, product, T, prec), -_bits(prec)))

    T = Fraction(7, 10)
    with mp.workdps(60):
        t = to_mp(T)
        for product in (HARMONIC, SHUFFLE):
            assert abs(value(Index((1,)), product, T, 40) - t) < 1e-50
        assert abs(value(Index((1, 1)), SHUFFLE, T, 40) - t ** 2 / 2) < 1e-50
        assert abs(value(Index((1, 1)), HARMONIC, T, 40) - (t ** 2 - mzv((2,), 40)) / 2) < 1e-50
        k = Index((2, 1, 1, 1, 1, 1, 1))        # six trailing 1s: divides by 6
        for product in (HARMONIC, SHUFFLE):
            symbolic = eval_zeta_poly(regularization.zeta_reg(k, product), {"T": T}, 40)
            assert abs(value(k, product, T, 40) - symbolic) < 1e-45, product


def test_the_recursions_take_only_a_rational_T():
    # T x is a multiply by T's numerator in fixed point; an mpf T is refused,
    # not rounded, also where it equals a T whose values are cached
    with mp.workdps(60):
        phi(SHUFFLE, 0, 3, 40)
        phi_ad(HARMONIC, 0, 0, 3, 40)
        for t in (mp.mpf(7) / 10, mp.mpf(0)):
            for call in (lambda: phi(SHUFFLE, t, 3, 40), lambda: phi_ad(HARMONIC, 0, t, 3, 40),
                         lambda: associator._zeta_reg_value(Index((2, 1)), HARMONIC, t, 40)):
                with pytest.raises(TypeError, match="T must be an int or a Fraction, not mpf"):
                    call()


def test_rsmzv():
    with mp.workdps(60):
        empty = rsmzv(Index(()), (1, 1), 40)
        base = -mp.pi * mp.mpc(0, 1) / 2
        assert abs(empty.coeff(0, 0) - 1) < TOL
        assert abs(empty.coeff(1, 0) - base) < TOL
        assert abs(empty.coeff(1, 1) - base * base) < TOL
        assert check_rsmzv_routes(Index((2,)), (0, 0), 40) < TOL
        assert check_rsmzv_routes(Index((2,)), (1, 1), 40) < TOL
        assert check_rsmzv_routes(Index((1, 1)), (1, 1), 40) < TOL
        assert check_rsmzv_routes(Index((1, 2)), (2, 2), 40) < TOL


def test_rsmzv_harmonic_relation():
    # exp(-(s+t) pi i/2) rsmzv((1)*(1)) = rsmzv((1))^2 at orders (1,1)
    from mzvkit.associator import _exp_st_grid
    with mp.workdps(60):
        orders = (1, 1)
        acc = None
        for idx, c in stuffle(Index((1,)), Index((1,))):
            v = rsmzv(idx, orders, 40).scale(mp.mpf(int(c)))
            acc = v if acc is None else acc + v
        lhs = _exp_st_grid(orders, 40) * acc
        one = rsmzv(Index((1,)), orders, 40)
        rhs = one * one
        assert max(abs(e) for _, _, e in (lhs - rhs).entries()) < TOL


def test_refined_duality():
    assert check_refined_duality(Index((3,)), (0, 0), 40) < TOL
    assert check_refined_duality(Index((2,)), (1, 1), 40) < TOL
    # past the toy orders: paddings up to weight 7, flanked words of length 12
    assert check_refined_duality(Index((1, 2)), (2, 2), 40) < TOL
    # orders (3,3): paddings up to weight 7, flanked words of length 14
    assert check_refined_duality(Index((1,)), (3, 3), 40) < TOL
    with pytest.raises(ValueError):
        check_refined_duality(Index(()), (0, 0), 40)


def test_rsmzv_star_requires_nonempty():
    with pytest.raises(ValueError):
        rsmzv_star(Index(()), (0, 0), 40)


def test_rsmzv_star_sums_at_its_own_precision():
    with mp.workdps(15):
        plain = rsmzv_star(Index((1, 2)), (0, 0), 40)
    with mp.workdps(55):
        raised = rsmzv_star(Index((1, 2)), (0, 0), 40)
    assert residual(plain, raised, 40) < mp.mpf("1e-50")
