from fractions import Fraction

import pytest

from mzvkit import stadic
from mzvkit.indices import EMPTY, Index
from mzvkit.numeric import tolerance
from mzvkit.regularization import Z_reg_full
from mzvkit.rings import ZetaPoly
from mzvkit.stadic import (
    SAMPLE_T1, SAMPLE_T2, check_antipode, check_classical_csf, check_csf_nonstar,
    check_csf_star, check_csf_tau, check_explicit_reg, check_harmonic,
    check_shifted_csf, check_shifted_harmonic, check_shuffle, check_t_translation,
    residual_biseries, shifted_mzv, shifted_mzv_star, stadic_smzv,
    stadic_smzv_star, stadic_smzv_tau,
)
from mzvkit.words import E0, HARMONIC, SHUFFLE, NcPoly, word_of_index

Z = ZetaPoly.zeta
T = ZetaPoly.tvar("T")
TOL = tolerance(40)


def test_shifted_examples():
    ts = shifted_mzv(Index((2,)), HARMONIC, 2)
    assert ts.coeffs == [Z((2,)), -2 * Z((3,)), 3 * Z((4,))]
    assert shifted_mzv(EMPTY, HARMONIC, 2).coeffs == [ZetaPoly.const(1), ZetaPoly(), ZetaPoly()]
    # order-1 series of the single 1: T - zeta(2) t, per the coefficient form
    assert shifted_mzv(Index((1,)), HARMONIC, 1).coeffs == [T, -1 * Z((2,))]


def test_shifted_matches_coefficient_form():
    # Def-by-binomials equals (-1)^depth sum_n Z_reg_full(e0^n e_k) t^n, exactly
    for ktup in [(1,), (2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (3, 2)]:
        k = Index(ktup)
        w = word_of_index(k)
        for product in (HARMONIC, SHUFFLE):
            ts = shifted_mzv(k, product, 3)
            for n in range(4):
                rhs = Z_reg_full(NcPoly.from_word((E0,) * n + w), product)
                assert ts.coeffs[n] == rhs * Fraction((-1) ** k.depth)


def test_shifted_star():
    assert shifted_mzv_star(Index((2,)), HARMONIC, 1) == shifted_mzv(Index((2,)), HARMONIC, 1)
    got = shifted_mzv_star(Index((1, 1)), HARMONIC, 0)
    assert got.coeffs == [(T * T + Z((2,))) * Fraction(1, 2)]
    assert shifted_mzv_star(EMPTY, HARMONIC, 1).coeffs == [ZetaPoly.const(1), ZetaPoly()]


def test_stadic_empty_and_single():
    assert stadic_smzv(EMPTY, HARMONIC, (1, 1)).grid[0][0] == ZetaPoly.const(1)
    g = stadic_smzv(Index((1,)), HARMONIC, (1, 1))
    T1, T2 = ZetaPoly.tvar("T1"), ZetaPoly.tvar("T2")
    assert g.grid[0][0] == T1 - T2
    assert g.grid[0][1] == -1 * Z((2,))
    assert g.grid[1][0] == -1 * Z((2,))
    assert g.grid[1][1] == ZetaPoly()


def test_stadic_single_one_full_pattern():
    # value of (1) at T1 = T2: sum over n >= 1 of Z[n+1] ((-s)^n - t^n)
    g = stadic_smzv(Index((1,)), HARMONIC, (3, 3))
    for n in range(1, 4):
        assert g.grid[n][0] == Z((n + 1,)) * ((-1) ** n)
        assert g.grid[0][n] == -1 * Z((n + 1,))
    assert g.grid[1][1] == ZetaPoly()


def test_stadic_star_and_tau_consistency():
    k = Index((1, 2))
    orders = (1, 1)
    star = stadic_smzv_star(k, HARMONIC, orders)
    plain = stadic_smzv(k, HARMONIC, orders)
    assert stadic_smzv_tau(k, Fraction(0), HARMONIC, orders) == plain
    assert stadic_smzv_tau(k, Fraction(1), HARMONIC, orders) == star
    half = stadic_smzv_tau(Index((1, 1)), Fraction(1, 2), HARMONIC, orders)
    expect = (stadic_smzv(Index((1, 1)), HARMONIC, orders)
              + stadic_smzv(Index((2,)), HARMONIC, orders).scale(Fraction(1, 2)))
    assert half == expect


def all_nonempty_indices(maxwt):
    for wt in range(1, maxwt + 1):
        for mask in range(2 ** (wt - 1)):
            parts = [1]
            for b in range(wt - 1):
                if mask >> b & 1:
                    parts[-1] += 1
                else:
                    parts.append(1)
            yield Index(parts)


def test_t_translation():
    for k in all_nonempty_indices(5):
        assert check_t_translation(k, (2, 2), 40) < TOL


def test_check_harmonic():
    assert check_harmonic(Index((1,)), Index((2,)), (2, 2), 40) < TOL
    assert check_harmonic(Index((1,)), Index((1,)), (1, 1), 40) < TOL
    # empty factor: structural equality, zero residual
    lhs = stadic_smzv(EMPTY, HARMONIC, (1, 1)) * stadic_smzv(Index((2,)), HARMONIC, (1, 1))
    assert residual_biseries(lhs, stadic_smzv(Index((2,)), HARMONIC, (1, 1)),
                             {"T1": SAMPLE_T1, "T2": SAMPLE_T2}, 40) == 0


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


def test_terms_of_weight_zero_are_skipped(monkeypatch):
    def refuse(*args):
        raise AssertionError("a term of weight 0 was computed")

    k = Index((2, 1))
    plain = stadic_smzv(k, HARMONIC, (1, 1))
    # tau = 0: every proper coarsening carries tau^(drop in depth) = 0
    monkeypatch.setattr(stadic, "stadic_smzv",
                        lambda idx, *args: plain if idx == k else refuse())
    assert stadic_smzv_tau(k, 0, HARMONIC, (1, 1)) == plain
    monkeypatch.undo()
    # tau = 1: no glued variant (weight 1 - tau); tau = 0: no zeta(weight+1) term
    monkeypatch.setattr(stadic, "uplus", refuse)
    assert check_csf_tau(k, 1, (1, 1), 40) < TOL
    monkeypatch.undo()
    monkeypatch.setattr(stadic, "stadic_smzv_star", refuse)
    assert check_csf_tau(k, 0, (1, 1), 40) < TOL


def test_all_csf_checkers_on_pinned_set():
    for ktup in [(2,), (3,), (1, 2), (2, 1), (2, 2), (1, 1, 2)]:
        k = Index(ktup)
        assert check_classical_csf(k, 40) < TOL
        assert check_shifted_csf(k, 2, 40) < TOL
        assert check_csf_star(k, (2, 2), 40) < TOL
        assert check_csf_nonstar(k, (2, 2), 40) < TOL
        assert check_csf_tau(k, Fraction(1, 2), (2, 2), 40) < TOL


def test_explicit_reg():
    for k in all_nonempty_indices(5):
        assert check_explicit_reg(k, 2, 40) < TOL
