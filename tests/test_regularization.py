import sys
from fractions import Fraction
from math import factorial

import pytest

from mzvkit import regularization, words
from mzvkit.indices import EMPTY, Index
from mzvkit.numeric import residual, tolerance
from mzvkit.regularization import (
    R_poly, RegDecomposition, Z_reg_full, check_reg_theorem,
    e1_power, gamma0_coeffs, reg_theorem_sides, regularize, rho,
    rho_of_T_power, zeta_reg,
)
from mzvkit.rings import BiSeries, ZetaPoly
from mzvkit.stadic import check_csf_tau, check_harmonic
from mzvkit.words import E0, E1, HARMONIC, SHUFFLE, NcPoly, index_of_word, word_of_index
from support import (
    clear_caches, indices_up_to, planted, stuffle_without_merged_terms, words_up_to,
)

W = NcPoly.from_word
Z = ZetaPoly.zeta
T = ZetaPoly.tvar("T")


def test_regularize_h0_fixed():
    for product in (HARMONIC, SHUFFLE):
        d = regularize(W((E1, E0)), product)
        assert d.coefficients == (W((E1, E0)),)


def test_regularize_e1():
    for product in (HARMONIC, SHUFFLE):
        d = regularize(W((E1,)), product)
        assert d.coefficients[0] == NcPoly()
        assert d.coefficients[1] == NcPoly.one()


def test_regularize_e1e1_harmonic():
    d = regularize(W((E1, E1)), HARMONIC)
    assert d.coefficients[0] == W((E1, E0), Fraction(1, 2))
    assert d.coefficients[1] == NcPoly()
    assert d.coefficients[2] == NcPoly.one(Fraction(1, 2))


def test_reconstruction_all_h1_words():
    for w in words_up_to(6, h1_only=True):
        for product in (HARMONIC, SHUFFLE):
            d = regularize(W(w), product)
            assert isinstance(d, RegDecomposition)
            assert d.reconstruct() == W(w), (w, product)
    for product in (HARMONIC, SHUFFLE):
        d = regularize(NcPoly(), product)
        assert d.coefficients == (NcPoly(),) and d.reconstruct() == NcPoly()


def test_regularize_rejects_non_h1():
    with pytest.raises(ValueError):
        regularize(W((E0, E1)), HARMONIC)


def test_e1_powers():
    assert e1_power(SHUFFLE, 3) == W((E1, E1, E1), Fraction(6))
    got = e1_power(HARMONIC, 2)
    assert got == NcPoly({(E1, E1): Fraction(2), (E1, E0): Fraction(-1)})


def test_zeta_reg_examples():
    assert zeta_reg(Index((1,)), HARMONIC) == T
    assert zeta_reg(Index((1,)), SHUFFLE) == T
    assert zeta_reg(Index((1, 1)), HARMONIC) == (T * T - Z((2,))) * Fraction(1, 2)
    assert zeta_reg(Index((1, 1)), SHUFFLE) == T * T * Fraction(1, 2)
    assert zeta_reg(EMPTY, HARMONIC) == ZetaPoly.const(1)
    assert zeta_reg(Index((2,)), SHUFFLE) == Z((2,))


def test_zeta_reg_keeps_whole_coefficients_as_ints():
    # Fraction(n, 1) has the value of n, so no check of values can see one;
    # it would only make every product built from zeta_reg, the parts of the
    # solve or rho slower
    def whole(p):
        return [c for c in p.terms.values() if isinstance(c, Fraction) and c.denominator == 1]

    indices = list(indices_up_to(6, 1))
    assert len(indices) == 63
    for k in indices:
        for product in (HARMONIC, SHUFFLE):
            assert not whole(zeta_reg(k, product)), (k, product)
            parts = regularize(W(word_of_index(k)), product).coefficients
            assert not [c for part in parts for c in whole(part)], (k, product)
    for n in range(7):
        assert not whole(rho_of_T_power(n)), n


def _zeta_symbols(u):
    """The zeta symbol map on H0: e_k -> (-1)^depth Z[k]."""
    out = ZetaPoly()
    for w, c in u.terms.items():
        k = index_of_word(w)
        out.add_scaled(ZetaPoly.zeta(k), c * (-1) ** k.depth)
    return out


def _zeta_reg_by_words(k, product):
    """Z_T(k) by the word route: the parts w_i of the word of k along
    H1 = H0[e1], part i sent to (-T)^i, all times (-1)^depth."""
    out = ZetaPoly()
    for i, wi in enumerate(regularize(W(word_of_index(k)), product).coefficients):
        out.add_scaled(_zeta_symbols(wi) * T ** i, (-1) ** (i + k.depth))
    return out


def test_zeta_reg_equals_the_word_route():
    indices = list(indices_up_to(9))
    assert len(indices) == 512
    for k in indices:
        for product in (HARMONIC, SHUFFLE):
            assert zeta_reg(k, product) == _zeta_reg_by_words(k, product), (k, product)


def _decompose_word_without_factorial(w, product):
    return tuple(wi.scale(factorial(i)) for i, wi in enumerate(_decompose_word(w, product)))


_decompose_word = regularization._decompose_word

# planted faults on the word route, which no check reads: each must make the
# word route disagree with zeta_reg
WORD_ROUTE_FAULTS = {
    "decompose-without-factorial": (regularization, "_decompose_word",
                                    _decompose_word_without_factorial),
    "h0-symbol-without-sign": (sys.modules[__name__], "_zeta_symbols",
                               planted(_zeta_symbols, "c * (-1) ** k.depth", "c")),
    "words-stuffle-without-merged-terms": (words, "stuffle", stuffle_without_merged_terms),
}


@pytest.mark.parametrize("fault", sorted(WORD_ROUTE_FAULTS))
def test_oracle_sees_word_route_fault(monkeypatch, fault):
    owner, name, faulty = WORD_ROUTE_FAULTS[fault]
    indices = indices_up_to(5, 1)
    expected = {(k, p): zeta_reg(k, p) for k in indices for p in (HARMONIC, SHUFFLE)}
    clear_caches()
    monkeypatch.setattr(owner, name, faulty)
    try:
        wrong = [key for key, value in expected.items() if _zeta_reg_by_words(*key) != value]
    finally:
        monkeypatch.undo()
        clear_caches()
    assert wrong, fault


def test_the_symbolic_checks_build_no_word_products():
    clear_caches()
    prec = 40
    tol = tolerance(prec)
    assert check_harmonic(Index((1, 1)), Index((2, 1)), (2, 2), prec) < tol
    assert check_csf_tau(Index((1, 2, 1)), Fraction(1, 2), (2, 2), prec) < tol
    assert check_reg_theorem(Index((2, 1, 1, 1)), prec) < tol
    assert regularization.zeta_reg.cache_info().misses > 0
    assert regularization._decompose_word.cache_info().misses == 0
    assert words._harmonic_words.cache_info().misses == 0


def test_z_reg_full():
    assert Z_reg_full(W((E0,)), SHUFFLE) == ZetaPoly()
    assert Z_reg_full(NcPoly.one(), SHUFFLE) == ZetaPoly.const(1)
    assert Z_reg_full(W((E0, E1, E0)), SHUFFLE) == Z((3,)) * 2
    assert Z_reg_full(W((E1, E0)), HARMONIC) == -1 * Z((2,))
    assert Z_reg_full(W((E0, E0)), HARMONIC) == ZetaPoly()


def test_z_reg_is_ring_homomorphism_numerically():
    # Z_reg_full(u * v) = Z_reg_full(u) Z_reg_full(v) on H1 for both products,
    # coefficient by coefficient in T
    from mzvkit.words import harmonic, shuffle
    prec = 40
    cases = [((1,), (2,)), ((1, 1), (2,)), ((1,), (1, 2))]
    for product, op in ((HARMONIC, harmonic), (SHUFFLE, shuffle)):
        for ktup, ltup in cases:
            u, v = W(word_of_index(Index(ktup))), W(word_of_index(Index(ltup)))
            lhs = Z_reg_full(op(u, v), product)
            rhs = Z_reg_full(u, product) * Z_reg_full(v, product)
            assert residual(lhs, rhs, prec) < tolerance(prec)


def test_gamma0():
    g = gamma0_coeffs(4)
    assert g[0] == ZetaPoly.const(1)
    assert g[1] == ZetaPoly()
    assert g[2] == Z((2,)) * Fraction(1, 2)
    assert g[3] == Z((3,)) * Fraction(1, 3)
    assert g[4] == Z((4,)) * Fraction(1, 4) + Z((2,)) * Z((2,)) * Fraction(1, 8)


def _gamma0_by_powers(order):
    """Gamma0 up to X^order as sum_m s^m/m! of truncated BiSeries powers of
    s = sum_{k>=2} Z[(k)]/k X^k; 0 where a coefficient vanishes."""
    s = BiSeries(0, order, [[Z((k,)) * Fraction(1, k) if k >= 2 else ZetaPoly()
                             for k in range(order + 1)]])
    out = BiSeries.constant(ZetaPoly.const(1), 0, order)
    power = BiSeries.constant(ZetaPoly.const(1), 0, order)
    for m in range(1, order // 2 + 1):
        power = power * s
        out += power.scale(Fraction(1, factorial(m)))
    return out.coeffs


def _rho_by_convolution(n):
    """rho(T^n) = sum_{a+b=n} n!/a! (-1)^b Gamma0_b T^a."""
    g = _gamma0_by_powers(n)
    out = ZetaPoly()
    for a in range(n + 1):
        b = n - a
        out += g[b] * (factorial(n) // factorial(a) * (-1) ** b) * T ** a
    return out


def _R_by_convolution(r):
    """R(1^r; T) = sum_{a+b=r} rho(T^b)|_{T=0} (-T)^a / (a! b!)."""
    out = ZetaPoly()
    for a in range(r + 1):
        b = r - a
        const = _rho_by_convolution(b).subst_tvars({"T": 0})
        out += const * (-1 * T) ** a * Fraction(1, factorial(a) * factorial(b))
    return out


def test_gamma0_rho_and_R_equal_the_power_and_convolution_routes():
    assert list(gamma0_coeffs(14)) == _gamma0_by_powers(14)
    for n in range(11):
        assert rho_of_T_power(n).terms == _rho_by_convolution(n).terms, n
        assert R_poly(Index((1,) * n)).terms == _R_by_convolution(n).terms, n


def test_rho():
    assert rho_of_T_power(0) == ZetaPoly.const(1)
    assert rho_of_T_power(1) == T
    assert rho_of_T_power(2) == T * T + Z((2,))
    p = T * T * Z((5,)) + T * 3
    assert rho(p) == (T * T + Z((2,))) * Z((5,)) + T * 3
    with pytest.raises(ValueError):
        rho(ZetaPoly.tvar("T1"))


def test_R_poly():
    assert R_poly(Index((2,))) == ZetaPoly()
    assert R_poly(EMPTY) == ZetaPoly.const(1)
    assert R_poly(Index((1,))) == -1 * T
    # depth 2: a+b=2 gives (T^2 - zeta(2))/2 from rho(T^2)|0 = zeta(2)
    assert R_poly(Index((1, 1))) == (T * T + Z((2,))) * Fraction(1, 2)


def test_reg_theorem_small():
    prec = 40
    tol = tolerance(prec)
    for k in [Index((2,)), Index((1,)), Index((1, 1)), Index((2, 1)), Index((1, 1, 1))]:
        assert check_reg_theorem(k, prec) < tol


def test_reg_theorem_structural_cases():
    lhs, rhs = reg_theorem_sides(Index((2,)))
    assert lhs == rhs == Z((2,))
    lhs, rhs = reg_theorem_sides(Index((1,)))
    assert lhs == rhs == T
    lhs, rhs = reg_theorem_sides(Index((1, 1)))
    assert lhs == T * T * Fraction(1, 2)
    assert rhs == T * T * Fraction(1, 2)  # rho((T^2 - Z2)/2)
