from fractions import Fraction

import pytest

from mzvkit import regularization, stadic
from mzvkit.indices import EMPTY, Index, coarsenings, concat, cyclic_class, reverse, shifts, split
from mzvkit.numeric import residual, tolerance
from mzvkit.regularization import Z_reg_full
from mzvkit.rings import BiSeries, ZetaPoly
from mzvkit.stadic import (
    check_antipode, check_classical_csf, check_csf_nonstar,
    check_csf_star, check_csf_tau, check_explicit_reg, check_harmonic,
    check_shifted_csf, check_shifted_harmonic, check_shuffle, check_t_translation,
    shifted_mzv, shifted_mzv_star, stadic_smzv, stadic_smzv_tau,
)
from mzvkit.words import E0, HARMONIC, SHUFFLE, NcPoly, word_of_index
from support import indices_up_to

Z = ZetaPoly.zeta
T = ZetaPoly.tvar("T")
TOL = tolerance(40)


def test_shifted_examples():
    ts = shifted_mzv(Index((2,)), HARMONIC, 2)
    assert ts.coeffs == [Z((2,)), -2 * Z((3,)), 3 * Z((4,))]
    assert shifted_mzv(EMPTY, HARMONIC, 2).coeffs == [ZetaPoly.const(1), ZetaPoly(), ZetaPoly()]
    # order-1 series of the single 1: T - zeta(2) t, per the coefficient form
    assert shifted_mzv(Index((1,)), HARMONIC, 1).coeffs == [T, -1 * Z((2,))]


def _coefficient_form(max_length: int, products) -> tuple[int, list]:
    """Def-by-binomials against (-1)^depth sum_n Z_reg_full(e0^n e_k) t^n on
    every word e0^n e_k of length <= max_length, k non-empty: the number of
    coefficients compared, and the (product, n, k) of those that differ."""
    compared, wrong = 0, []
    for product in products:
        for k in indices_up_to(max_length, 1):
            ts = shifted_mzv(k, product, max_length - k.weight)
            for n, coeff in enumerate(ts.coeffs):
                rhs = Z_reg_full(NcPoly.from_word((E0,) * n + word_of_index(k)), product)
                compared += 1
                if coeff != rhs * Fraction((-1) ** k.depth):
                    wrong.append((product, n, k))
    return compared, wrong


def test_shifted_matches_coefficient_form():
    # exactly, for both products: shifted_mzv sums the binomial weights
    # b(k; m), and Z_reg_full strips the e0s by the one-letter recursion
    assert _coefficient_form(10, (HARMONIC, SHUFFLE)) == (4072, [])


def test_coefficient_form_sees_unit_shift_weights(monkeypatch):
    # the recursion with every weight k_i set to 1: the two routes disagree
    monkeypatch.setattr(regularization, "shifts", lambda k, n: [(l, 1) for l, _ in shifts(k, n)])
    regularization._z_reg_full_word.cache_clear()
    try:
        wrong = _coefficient_form(6, (SHUFFLE,))[1]
    finally:
        regularization._z_reg_full_word.cache_clear()
    assert len(wrong) == 52


def test_shifted_star():
    assert shifted_mzv_star(Index((2,)), 1) == shifted_mzv(Index((2,)), HARMONIC, 1)
    got = shifted_mzv_star(Index((1, 1)), 0)
    assert got.coeffs == [(T * T + Z((2,))) * Fraction(1, 2)]
    assert shifted_mzv_star(EMPTY, 1).coeffs == [ZetaPoly.const(1), ZetaPoly()]


def test_stadic_empty_and_single():
    assert stadic_smzv(EMPTY, HARMONIC, (1, 1)).coeff(0, 0) == ZetaPoly.const(1)
    g = stadic_smzv(Index((1,)), HARMONIC, (1, 1))
    T1, T2 = ZetaPoly.tvar("T1"), ZetaPoly.tvar("T2")
    assert g.coeff(0, 0) == T1 - T2
    assert g.coeff(0, 1) == -1 * Z((2,))
    assert g.coeff(1, 0) == -1 * Z((2,))
    assert g.coeff(1, 1) == ZetaPoly()


def test_stadic_single_one_full_pattern():
    # value of (1) at T1 = T2: sum over n >= 1 of Z[n+1] ((-s)^n - t^n)
    g = stadic_smzv(Index((1,)), HARMONIC, (3, 3))
    for n in range(1, 4):
        assert g.coeff(n, 0) == Z((n + 1,)) * ((-1) ** n)
        assert g.coeff(0, n) == -1 * Z((n + 1,))
    assert g.coeff(1, 1) == ZetaPoly()


def test_stadic_star_and_tau_consistency():
    k = Index((1, 2))
    orders = (1, 1)
    star = BiSeries.constant(ZetaPoly(), *orders)
    for l in coarsenings(k):
        star += stadic_smzv(l, HARMONIC, orders)
    plain = stadic_smzv(k, HARMONIC, orders)
    assert stadic_smzv_tau(k, Fraction(0), orders) == plain
    assert stadic_smzv_tau(k, Fraction(1), orders) == star
    half = stadic_smzv_tau(Index((1, 1)), Fraction(1, 2), orders)
    expect = (stadic_smzv(Index((1, 1)), HARMONIC, orders)
              + stadic_smzv(Index((2,)), HARMONIC, orders).scale(Fraction(1, 2)))
    assert half == expect


def test_t_translation():
    for k in indices_up_to(5, 1):
        assert check_t_translation(k, (2, 2), 40) == 0


def test_check_harmonic():
    assert check_harmonic(Index((1,)), Index((2,)), (2, 2), 40) < TOL
    assert check_harmonic(Index((1,)), Index((1,)), (1, 1), 40) < TOL
    # empty factor: structural equality, zero residual
    lhs = stadic_smzv(EMPTY, HARMONIC, (1, 1)) * stadic_smzv(Index((2,)), HARMONIC, (1, 1))
    assert residual(lhs, stadic_smzv(Index((2,)), HARMONIC, (1, 1)), 40) == 0


def test_check_harmonic_fails_on_a_planted_term(monkeypatch):
    # z(2) (1 + T2 - T1) vanishes at any point with T2 - T1 = -1; the check
    # must see it anyway
    T1, T2 = ZetaPoly.tvar("T1"), ZetaPoly.tvar("T2")
    planted = Z((2,)) * (1 + T2 - T1)
    value = stadic.stadic_smzv

    def wrong(k, product, orders):
        # (3) is the merged term of (1) * (2), read on the left side only
        out = value(k, product, orders)
        return out + BiSeries.monomial(planted, 0, 0, *orders) if k == Index((3,)) else out

    monkeypatch.setattr(stadic, "stadic_smzv", wrong)
    assert check_harmonic(Index((1,)), Index((2,)), (2, 2), 40) >= TOL


def test_check_shifted_harmonic():
    assert check_shifted_harmonic(Index((1,)), Index((1,)), 2, 40) < TOL
    assert check_shifted_harmonic(Index((2,)), Index((3,)), 1, 40) < TOL


def test_check_antipode():
    assert check_antipode(EMPTY, 2, 40) == 0
    assert check_antipode(Index((2,)), 2, 40) < TOL
    assert check_antipode(Index((1, 1)), 2, 40) < TOL
    assert check_antipode(Index((2, 1)), 2, 40) < TOL


def test_check_shuffle():
    assert check_shuffle(EMPTY, Index((2,)), (2, 2), 40) == 0
    assert check_shuffle(Index((1,)), Index((2,)), (2, 2), 40) < TOL
    assert check_shuffle(Index((2,)), Index((1,)), (1, 2), 40) < TOL
    assert check_shuffle(Index((1,)), Index((1, 2)), (2, 2), 40) < TOL


def test_classical_csf():
    # zeta*(1,2) = 2 zeta(3) sits inside the (2) case
    assert check_classical_csf(Index((2,)), 40) < TOL
    assert check_classical_csf(Index((1, 2)), 40) < TOL
    assert check_classical_csf(Index((2, 1)), 40) < TOL
    assert check_classical_csf(Index((3,)), 40) < TOL
    with pytest.raises(ValueError):
        check_classical_csf(Index((1, 1)), 40)


def test_shifted_csf():
    assert check_shifted_csf(Index((3,)), 2, 40) < TOL
    assert check_shifted_csf(Index((1, 2)), 2, 40) < TOL
    with pytest.raises(ValueError):
        check_shifted_csf(Index((1,)), 2, 40)


def test_csf_star_nonstar_tau():
    for ktup in [(2,), (1, 2)]:
        k = Index(ktup)
        assert check_csf_star(k, (2, 2), 40) < TOL
        assert check_csf_nonstar(k, (2, 2), 40) < TOL
        for tau in (Fraction(0), Fraction(1), Fraction(1, 2)):
            assert check_csf_tau(k, tau, (2, 2), 40) < TOL
    with pytest.raises(ValueError):
        check_csf_star(Index((1, 1)), (1, 1), 40)


@pytest.mark.parametrize("served, failing", [(1, check_csf_nonstar), (0, check_csf_star)],
                         ids=["star-values-at-tau-0", "plain-values-at-tau-1"])
def test_csf_nonstar_reads_the_plain_values_and_csf_star_the_star_values(monkeypatch, served,
                                                                       failing):
    # both formulas are theorems, so only values of the wrong kind tell the two
    # checks apart: served at the other tau, they fail the check that reads them
    values = stadic.stadic_smzv_tau
    monkeypatch.setattr(stadic, "stadic_smzv_tau", lambda k, tau, *args:
                        values(k, served if tau == 1 - served else tau, *args))
    k = Index((2, 1))
    for check in (check_csf_nonstar, check_csf_star):
        assert (check(k, (2, 2), 40) < TOL) == (check is not failing), check.__name__


def test_terms_of_weight_zero_are_skipped(monkeypatch):
    def refuse(*args):
        raise AssertionError("a term of weight 0 was computed")

    k = Index((2, 1))
    plain = stadic_smzv(k, HARMONIC, (1, 1))
    # tau = 0: every proper coarsening carries tau^(drop in depth) = 0
    monkeypatch.setattr(stadic, "stadic_smzv",
                        lambda idx, *args: plain if idx == k else refuse())
    assert stadic_smzv_tau(k, 0, (1, 1)) == plain
    monkeypatch.undo()
    # tau = 1: no glued variant (weight 1 - tau); tau = 0: no zeta(weight+1) term
    monkeypatch.setattr(stadic, "uplus", refuse)
    assert check_csf_tau(k, 1, (1, 1), 40) < TOL
    monkeypatch.undo()
    value = stadic.stadic_smzv
    monkeypatch.setattr(stadic, "stadic_smzv", lambda idx, *args:
                        refuse() if idx == Index((k.weight + 1,)) else value(idx, *args))
    assert check_csf_tau(k, 0, (1, 1), 40) < TOL


def test_all_csf_checkers_on_pinned_set():
    for ktup in [(2,), (3,), (1, 2), (2, 1), (2, 2), (1, 1, 2)]:
        k = Index(ktup)
        assert check_classical_csf(k, 40) < TOL
        assert check_shifted_csf(k, 2, 40) < TOL
        assert check_csf_star(k, (2, 2), 40) < TOL
        assert check_csf_nonstar(k, (2, 2), 40) < TOL
        assert check_csf_tau(k, Fraction(1, 2), (2, 2), 40) < TOL


def _zeta_star(k):
    return sum(map(Z, coarsenings(k)), ZetaPoly())


def test_order_0_csf_is_the_classical_formula_with_no_t_monomial(monkeypatch):
    # the terms zeta*(u, l, 1) and zeta*(rot, 1) of the shifted formula at
    # order 0 cancel exactly: what is left is the classical difference, in
    # admissible zeta symbols alone
    sides = []
    monkeypatch.setattr(stadic, "residual", lambda lhs, rhs, prec: sides.append(lhs - rhs) or 0)
    ks = [k for k in indices_up_to(6, 1) if k.weight > max(k.depth, 1)]
    assert len(ks) == 57
    for k in ks:
        sides.clear()
        assert check_classical_csf(k, 40) == 0
        (diff,) = sides
        assert not [m for m in diff.coeff(0, 0).terms if m[1]], k
        classical = _zeta_star(Index((k.weight + 1,))) * -k.weight
        for rot in cyclic_class(k):
            for j in range(rot[0] - 1):
                classical += _zeta_star(concat(Index((j + 1,)), rot[1:], Index((rot[0] - j,))))
        assert diff.coeff(0, 0) == classical, k


def test_explicit_reg():
    for k in indices_up_to(5, 1):
        assert check_explicit_reg(k, 2, 40) < TOL


def test_symbols_are_renamed_and_zeroed_as_by_substitution():
    # shifted values are in T; the symmetric value's head factor is in T1 and
    # its tail factor in T2; a check at T = 0 drops every monomial with a T-part
    T1, T2 = ZetaPoly.tvar("T1"), ZetaPoly.tvar("T2")
    orders = (2, 2)
    for k in indices_up_to(5):
        for product in (HARMONIC, SHUFFLE):
            shifted_mzv.cache_clear()
            shifted = shifted_mzv(k, product, 2)
            assert shifted_mzv.cache_info().misses == 1
            for name, image in (("T1", T1), ("T2", T2), (None, 0)):
                assert stadic._t_renamed(shifted, name) == shifted.map(
                    lambda p: p.subst_tvars({"T": image}))
            stadic_smzv.cache_clear()
            value = stadic_smzv(k, product, orders)
            assert stadic_smzv.cache_info().misses == 1
            assert stadic_smzv(k, product, orders) is value
            assert stadic._t_renamed(value, None) == value.map(
                lambda p: p.subst_tvars({"T1": 0, "T2": 0}))
            expected = BiSeries.constant(ZetaPoly(), *orders)
            for i in range(k.depth + 1):
                head, tail = split(k, i)
                a = shifted_mzv(head, product, 2).map(lambda p: p.subst_tvars({"T": T1}))
                b = shifted_mzv(reverse(tail), product, 2).map(lambda p: p.subst_tvars({"T": T2}))
                expected += BiSeries.from_outer(a, b.negate_t()).scale((-1) ** tail.weight)
            assert value == expected
