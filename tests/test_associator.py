from fractions import Fraction

import pytest
from mpmath import mp

from mzvkit import associator
from mzvkit.associator import (
    IMG_SWAP, NcSeries, TruncationError, check_duality_assoc,
    check_gamma_factor, check_independence_factor, check_pair_convention,
    check_phi_ad_translation, check_refined_duality, check_rsmzv_routes,
    check_smzv_routes, check_t_part, check_three_cycle, check_two_cycle,
    pair, phi, phi_ad, phi_kz,
    phi_rs, rsmzv, rsmzv_star, smzv_via_assoc, _flanked_pairing,
)
from mzvkit.indices import Index
from mzvkit.numeric import mzv, residual, tolerance
from mzvkit.words import E0, E1, HARMONIC, SHUFFLE, NcPoly

TOL = tolerance(40)


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


def test_reversed_t_factorization():
    # the reversed series factors on the right: rev(phi(T)) = rev(phi(0)) exp(-T X1)
    with mp.workdps(60):
        T = Fraction(7, 10)
        lhs = phi(SHUFFLE, T, 4, 40).reverse()
        rhs = phi(SHUFFLE, 0, 4, 40).reverse() * NcSeries.letter(4, E1, -mp.mpf(7) / 10).exp()
        assert residual(lhs, rhs, 40) < TOL


def test_exp_letter_linear():
    with mp.workdps(50):
        e = NcSeries.letter(3, E0, mp.mpf(2)).exp()
        assert e.coeff(()) == 1
        assert e.coeff((E0,)) == 2
        assert e.coeff((E0, E0)) == 2
        assert abs(e.coeff((E0, E0, E0)) - mp.mpf(8) / 6) < mp.mpf(10) ** -45
        mixed = NcSeries(2, {(E0,): mp.mpf(1), (E1,): mp.mpf(1)}).exp()
        assert mixed.coeff((E0, E1)) == mp.mpf(1) / 2


def test_exp_single_letter_series():
    with mp.workdps(50):
        # exp(x^2) = 1 + x^2 + x^4/2 on one letter
        e = NcSeries(4, {(E1, E1): mp.mpf(1)}).exp()
        assert e.coeff((E1, E1)) == 1
        assert abs(e.coeff((E1,) * 4) - mp.mpf(1) / 2) < mp.mpf(10) ** -45
        assert e.coeff((E1,)) == 0
        with pytest.raises(ValueError):
            NcSeries(2, {(): mp.mpf(1), (E1,): mp.mpf(1)}).exp()


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
        assert got.grid[0][0] == 0  # Z(e1) at T=0
        assert abs(got.grid[1][0] - mzv((2,), 40)) < TOL  # -<KZ, e0 e1>


def test_pair_convention():
    def small_indices():
        for wt in range(1, 5):
            for mask in range(2 ** (wt - 1)):
                parts = [1]
                for b in range(wt - 1):
                    if mask >> b & 1:
                        parts[-1] += 1
                    else:
                        parts.append(1)
                yield Index(parts)

    for product in (HARMONIC, SHUFFLE):
        for n in range(3):
            for k in small_indices():
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


def test_smzv_via_assoc_routes():
    assert check_smzv_routes(Index((1,)), (1, 1), 40) < TOL
    assert check_smzv_routes(Index((2,)), (1, 1), 40) < TOL
    assert check_smzv_routes(Index((1, 2)), (1, 1), 40) < TOL
    with pytest.raises(ValueError):
        smzv_via_assoc(Index(()), HARMONIC, 0, 0, (1, 1), 40)
    with pytest.raises(TruncationError):
        rsmzv(Index((2,)), (1, 1), 40, D=3)


def test_degree_budget_is_the_longest_flanked_word(monkeypatch):
    # coefficients up to the longest word read do not depend on D, so the
    # exact budget and one degree more give the same values, bit for bit
    for k, orders in ((Index((2,)), (1, 1)), (Index((1, 2)), (1, 1)), (Index((2, 1)), (2, 1))):
        need = associator._degree(k.weight, orders)
        assert need == k.weight + 1 + orders[0] + orders[1]
        exact, deeper = rsmzv(k, orders, 40), rsmzv(k, orders, 40, D=need + 1)
        assert max(abs(a - b) for row_a, row_b in zip(exact.grid, deeper.grid)
                   for a, b in zip(row_a, row_b)) == 0.0
        with pytest.raises(TruncationError):
            rsmzv(k, orders, 40, D=need - 1)
    # duality pads (2) up to (1,2,1): weight 4, so degree 4 + 1 + 1 + 1
    associator._PHI_RS_CACHE.clear()
    exact = check_refined_duality(Index((2,)), (1, 1), 40)
    assert set(associator._PHI_RS_CACHE) == {(7, 40)}
    degree = associator._degree
    monkeypatch.setattr(associator, "_degree", lambda wt, orders: degree(wt, orders) + 1)
    associator._PHI_RS_CACHE.clear()
    assert check_refined_duality(Index((2,)), (1, 1), 40) == exact
    assert set(associator._PHI_RS_CACHE) == {(8, 40)}


def test_rsmzv():
    with mp.workdps(60):
        empty = rsmzv(Index(()), (1, 1), 40)
        base = -mp.pi * mp.mpc(0, 1) / 2
        assert abs(empty.grid[0][0] - 1) < TOL
        assert abs(empty.grid[1][0] - base) < TOL
        assert abs(empty.grid[1][1] - base * base) < TOL
        assert check_rsmzv_routes(Index((2,)), (0, 0), 40) < TOL
        assert check_rsmzv_routes(Index((2,)), (1, 1), 40) < TOL
        assert check_rsmzv_routes(Index((1, 1)), (1, 1), 40) < TOL


def test_rsmzv_harmonic_relation():
    # exp(-(s+t) pi i/2) rsmzv((1)*(1)) = rsmzv((1))^2 at orders (1,1)
    from mzvkit.associator import _exp_st_grid
    from mzvkit.words import index_harmonic
    with mp.workdps(60):
        orders = (1, 1)
        combo = index_harmonic(Index((1,)), Index((1,)))
        acc = None
        for idx, c in combo.terms.items():
            v = rsmzv(idx, orders, 40, D=6).scale(mp.mpf(int(c)))
            acc = v if acc is None else acc + v
        lhs = _exp_st_grid(orders, 40) * acc
        one = rsmzv(Index((1,)), orders, 40, D=6)
        rhs = one * one
        assert max(abs(e) for _, _, e in (lhs - rhs).entries()) < TOL


def test_refined_duality():
    assert check_refined_duality(Index((3,)), (0, 0), 40) < TOL
    assert check_refined_duality(Index((2,)), (1, 1), 40) < TOL
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
