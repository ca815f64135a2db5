from fractions import Fraction

import pytest

from mzvkit.rings import BiSeries, ZetaPoly


def test_zetapoly_construction():
    z2 = ZetaPoly.zeta((2,))
    assert ZetaPoly.zeta(()) == ZetaPoly.const(1)
    with pytest.raises(ValueError):
        ZetaPoly.zeta((2, 1))
    assert not ZetaPoly.const(0)
    assert z2 and z2 == ZetaPoly.zeta((2,))


def test_zetapoly_arithmetic():
    z2 = ZetaPoly.zeta((2,))
    T = ZetaPoly.tvar("T")
    p = (T + z2) * (T - z2)
    assert p == T * T - z2 * z2
    assert p - p == ZetaPoly()
    assert z2 * Fraction(1, 2) + z2 * Fraction(1, 2) == z2
    assert (T ** 3).subst_tvars({"T": 2}) == ZetaPoly.const(8)
    assert ZetaPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (T + z2).constant_value()


def test_zetapoly_substitution_and_rename():
    T = ZetaPoly.tvar("T")
    p = T * T + ZetaPoly.zeta((3,)) * T
    q = p.subst_tvars({"T": ZetaPoly.tvar("T1")})
    assert q.tvar_names() == {"T1"}
    assert q.subst_tvars({"T1": 0}) == ZetaPoly()
    assert p.subst_tvars({"T": Fraction(1, 2)}) == (
        ZetaPoly.const(Fraction(1, 4)) + ZetaPoly.zeta((3,)) * Fraction(1, 2))


def test_zetapoly_text_form():
    z23 = ZetaPoly.zeta((2, 3))
    T = ZetaPoly.tvar("T")
    p = z23 * T * T * Fraction(1, 2) + ZetaPoly.const(1)
    assert str(p) == "1 + 1/2 * Z[2,3]^1 * T^2"
    assert str(ZetaPoly()) == "0"


def tseries(*coeffs):
    """A one-variable series: a BiSeries with ms = 0."""
    return BiSeries(0, len(coeffs) - 1, [[Fraction(c) for c in coeffs]])


def test_tseries():
    a = tseries(1, 2, 3)
    b = tseries(0, 1, 0)
    assert (a * b).coeffs == [Fraction(0), Fraction(1), Fraction(2)]
    assert (a + b).coeffs == [1, 3, 3]
    assert a.negate_t().coeffs == [1, -2, 3]
    assert a.shift(0, 1).coeffs == [0, 1, 2]
    assert a.shift(0, 5).coeffs == [0, 0, 0]
    assert a.scale(Fraction(2)).coeffs == [2, 4, 6]
    assert BiSeries.constant(Fraction(5), 0, 2).coeffs == [5, 0, 0]
    with pytest.raises(ValueError):
        a + tseries(0, 0)
    with pytest.raises(ValueError):
        BiSeries.constant(Fraction(1), 1, 1).coeffs


def test_biseries():
    a = BiSeries.monomial(Fraction(1), 0, 1, 1, 1)  # t
    b = BiSeries.monomial(Fraction(1), 1, 0, 1, 1)  # s
    prod = a * b
    assert prod.grid[1][1] == 1 and prod.grid[0][0] == 0
    assert (a + b).grid[0][1] == 1 and (a + b).grid[1][0] == 1
    c = BiSeries.constant(Fraction(2), 1, 1)
    assert (c * a).grid[0][1] == 2
    assert a.shift(1, 0).grid[1][1] == 1
    assert not a.shift(1, 1)  # falls off the grid
    assert a.scale(Fraction(3)).grid[0][1] == 3
    assert (a * Fraction(3)).grid[0][1] == 3


def test_biseries_outer_product():
    s = tseries(1, 2)
    t = tseries(1, 0, 5)
    g = BiSeries.from_outer(s, t)
    assert (g.ms, g.mt) == (1, 2)
    assert g.grid[1][2] == 10 and g.grid[0][0] == 1


def test_biseries_truncation_in_product():
    x = BiSeries.monomial(Fraction(1), 1, 0, 1, 0)
    assert not x * x  # s^2 beyond ms=1


def test_ring_axioms_on_samples():
    # every coefficient ring used by the word algebra: commutative ring
    # axioms on a handful of sampled elements
    z2, z3 = ZetaPoly.zeta((2,)), ZetaPoly.zeta((3,))
    T = ZetaPoly.tvar("T")
    samples = {
        "rational": [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)],
        "zetapoly": [ZetaPoly(), ZetaPoly.const(1), z2 - T, z3 * T + ZetaPoly.const(2)],
        "tseries": [tseries(a, b, c) for a, b, c in [(0, 0, 0), (1, 0, 0), (2, -1, 3), (0, 1, 1)]],
        "biseries": [BiSeries.monomial(Fraction(1), i, j, 1, 1)
                     for i in range(2) for j in range(2)],
    }
    ones = {
        "rational": Fraction(1),
        "zetapoly": ZetaPoly.const(1),
        "tseries": BiSeries.constant(Fraction(1), 0, 2),
        "biseries": BiSeries.constant(Fraction(1), 1, 1),
    }
    for name, elems in samples.items():
        one = ones[name]
        for a in elems:
            assert a * one == a and a + (a - a) == a
            for b in elems:
                assert a + b == b + a and a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
