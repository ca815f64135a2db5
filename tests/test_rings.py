import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from mzvkit.rings import BiSeries, ZetaPoly, exp_coeffs


def constant_value(p: ZetaPoly):
    """The rational value of a constant polynomial; ValueError otherwise."""
    if p.terms.keys() - {((), ())}:
        raise ValueError(f"not a constant polynomial: {p}")
    return p.terms.get(((), ()), 0)


def tvar_names(p: ZetaPoly) -> set[str]:
    return {name for (_, tpart) in p.terms for (name, _) in tpart}


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
    assert constant_value(ZetaPoly.const(Fraction(3, 4))) == Fraction(3, 4)
    assert constant_value(ZetaPoly()) == 0
    with pytest.raises(ValueError):
        constant_value(T + z2)


def test_zetapoly_substitution_and_rename():
    T = ZetaPoly.tvar("T")
    p = T * T + ZetaPoly.zeta((3,)) * T
    q = p.subst_tvars({"T": ZetaPoly.tvar("T1")})
    assert tvar_names(q) == {"T1"}
    assert q.subst_tvars({"T1": 0}) == ZetaPoly()
    assert p.subst_tvars({"T": Fraction(1, 2)}) == (
        ZetaPoly.const(Fraction(1, 4)) + ZetaPoly.zeta((3,)) * Fraction(1, 2))


def test_const_keeps_ints_and_converts_everything_else():
    assert type(ZetaPoly.const(3).terms[((), ())]) is int
    assert type(ZetaPoly.const(Fraction(6, 2)).terms[((), ())]) is Fraction
    assert ZetaPoly.const(0.5) == Fraction(1, 2)
    assert ZetaPoly.const(3) == ZetaPoly.const(Fraction(3))
    assert all(type(c) is int for c in (ZetaPoly.tvar("T") * ZetaPoly.const(1)).terms.values())


def test_a_constant_hashes_as_its_value():
    z2 = ZetaPoly.zeta((2,))
    for p, value in [(ZetaPoly(), 0), (ZetaPoly.const(1), 1), (ZetaPoly.const(-4), -4),
                     (ZetaPoly.const(Fraction(2, 3)), Fraction(2, 3)), (z2 - z2, 0)]:
        assert p == value and hash(p) == hash(value)
    assert {ZetaPoly.const(1): "one"}.get(1) == "one"
    assert {1: "one"}.get(ZetaPoly.const(1)) == "one"
    assert {0: "zero"}.get(ZetaPoly()) == "zero"
    assert hash(z2 + 1) == hash(1 + z2)


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
    assert prod.coeff(1, 1) == 1 and prod.coeff(0, 0) == 0
    assert (a + b).coeff(0, 1) == 1 and (a + b).coeff(1, 0) == 1
    c = BiSeries.constant(Fraction(2), 1, 1)
    assert (c * a).coeff(0, 1) == 2
    assert a.shift(1, 0).coeff(1, 1) == 1
    assert not a.shift(1, 1)  # falls off the grid
    assert a.scale(Fraction(3)).coeff(0, 1) == 3
    assert (a * Fraction(3)).coeff(0, 1) == 3


def test_biseries_outer_product():
    s = tseries(1, 2)
    t = tseries(1, 0, 5)
    g = BiSeries.from_outer(s, t)
    assert (g.ms, g.mt) == (1, 2)
    assert g.coeff(1, 2) == 10 and g.coeff(0, 0) == 1


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


# ---------------------------------------------------------------------------
# the sparse BiSeries against a dense-grid reference (property tests)
# ---------------------------------------------------------------------------

# Derandomized and small: the same examples on every run, well under a second.
LAWS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

_coeffs = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _grid(ms, mt):
    return st.lists(st.lists(_coeffs, min_size=mt + 1, max_size=mt + 1),
                    min_size=ms + 1, max_size=ms + 1)


_orders = st.tuples(st.integers(0, 3), st.integers(0, 3))
grid_pairs = _orders.flatmap(lambda o: st.tuples(st.just(o), _grid(*o), _grid(*o)))


def dense(x):
    return [[x.coeff(i, j) for j in range(x.mt + 1)] for i in range(x.ms + 1)]


def dense_mul(a, b):
    ms, mt = len(a) - 1, len(a[0]) - 1
    return [[sum((a[i][j] * b[m - i][n - j] for i in range(m + 1) for j in range(n + 1)),
                 Fraction(0)) for n in range(mt + 1)] for m in range(ms + 1)]


def dense_shift(a, ds, dt):
    return [[a[i - ds][j - dt] if i >= ds and j >= dt else Fraction(0)
             for j in range(len(a[0]))] for i in range(len(a))]


def assert_matches(x, orders, ref):
    assert (x.ms, x.mt) == orders
    assert all(x.terms.values())        # no stored zeros
    assert dense(x) == ref


@LAWS
@given(grid_pairs, st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.integers(0, 4), st.integers(0, 4))
def test_sparse_biseries_matches_the_dense_grid(pair, q, ds, dt):
    orders, ga, gb = pair
    a, b = BiSeries(*orders, ga), BiSeries(*orders, gb)
    assert_matches(a, orders, ga)
    assert_matches(a + b, orders, [[x + y for x, y in zip(r, s)] for r, s in zip(ga, gb)])
    assert_matches(a - b, orders, [[x - y for x, y in zip(r, s)] for r, s in zip(ga, gb)])
    acc = BiSeries(*orders, ga)
    acc += b
    assert acc == a + b and dense(a) == ga
    assert_matches(a * b, orders, dense_mul(ga, gb))
    assert_matches(a * q, orders, [[x * q for x in r] for r in ga])
    assert q * a == a * q
    assert_matches(a.shift(ds, dt), orders, dense_shift(ga, ds, dt))
    assert_matches(a.negate_t(), orders, [[x * (-1) ** j for j, x in enumerate(r)] for r in ga])
    column, row = [r[0] for r in ga], gb[0]
    outer = BiSeries.from_outer(BiSeries(0, orders[0], [column]), BiSeries(0, orders[1], [row]))
    assert_matches(outer, orders, [[x * y for y in row] for x in column])


@LAWS
@given(grid_pairs)
def test_scaling_by_one_copies_the_container_and_shares_the_coefficients(pair):
    orders, ga, _ = pair
    a = BiSeries(*orders, [[ZetaPoly.const(x) for x in r] for r in ga])
    c = a.scale(1)
    assert c == a and c.terms is not a.terms
    assert all(c.terms[k] is v for k, v in a.terms.items())


# ---------------------------------------------------------------------------
# the ZetaPoly product against a Counter-merging reference (property tests)
# ---------------------------------------------------------------------------

# Both parts of a monomial may be empty: a pure T-monomial, a pure zeta
# monomial and the constant monomial all take the empty-side merge.
_zparts = st.dictionaries(st.sampled_from([(2,), (3,), (2, 1), (3, 1, 2)]),
                          st.integers(1, 3), max_size=2)
_tparts = st.dictionaries(st.sampled_from(["T", "T1", "T2"]), st.integers(1, 3), max_size=2)
_monomials = st.tuples(_zparts, _tparts).map(
    lambda zt: (tuple(sorted(zt[0].items())), tuple(sorted(zt[1].items()))))
_zetapolys = st.dictionaries(_monomials, st.one_of(st.integers(-3, 3), _coeffs),
                             max_size=4).map(ZetaPoly)


def reference_product(a: ZetaPoly, b: ZetaPoly) -> dict:
    """The product by merging exponents in Counters, in Fraction arithmetic."""
    out: Counter = Counter()
    for (z1, t1), c1 in a.terms.items():
        for (z2, t2), c2 in b.terms.items():
            z = Counter(dict(z1)) + Counter(dict(z2))
            t = Counter(dict(t1)) + Counter(dict(t2))
            out[(tuple(sorted(z.items())), tuple(sorted(t.items())))] += Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c}


@LAWS
@given(_zetapolys, _zetapolys)
def test_zetapoly_product_matches_the_counter_reference(a, b):
    product = a * b
    assert product.terms == reference_product(a, b)
    assert all(product.terms.values())  # no stored zeros
    for zpart, tpart in product.terms:
        assert list(zpart) == sorted(zpart) and list(tpart) == sorted(tpart)
        assert all(e > 0 for _, e in zpart + tpart)
    one = ZetaPoly.const(1)
    assert a * one == a and one * a == a
    acc = ZetaPoly(a.terms)
    acc.add_scaled(b, Fraction(-3, 2))
    assert acc == a + b * Fraction(-3, 2) and all(acc.terms.values())
    if all(type(c) is int for c in [*a.terms.values(), *b.terms.values()]):
        assert all(type(c) is int for c in product.terms.values())


def test_exp_coeffs_equals_the_truncated_power_series():
    # sum_m c^m/m! with every power truncated at x^n, for seeded rational c
    rng = random.Random(22)
    for n in range(9):
        c = [Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        want = [Fraction(1)] + [Fraction(0)] * n
        power = list(want)
        for m in range(1, n + 1):
            power = [sum(power[i] * c[j - i] for i in range(j + 1)) for j in range(n + 1)]
            want = [w + p / factorial(m) for w, p in zip(want, power)]
        assert exp_coeffs(c) == want, c
    assert exp_coeffs([ZetaPoly(), 0, ZetaPoly.zeta((2,))])[2] == ZetaPoly.zeta((2,))
    with pytest.raises(ValueError):
        exp_coeffs([Fraction(1), Fraction(2)])
