"""Shifted and two-parameter symmetric multiple zeta values, with checkers.

``shifted_mzv`` deforms the regularized polynomial of an index by a formal
variable: the coefficient of t^n collects the binomially weighted values of
all componentwise shifts of total size n, with sign (-1)^n.

``stadic_smzv`` is the symmetric two-parameter combination: the sum over
split positions i of

    (-1)^(weight of tail) * shifted(head; s, T1) * shifted(reverse tail; -t, T2)

with values in ZetaPoly[T1,T2] coefficient grids truncated at (ms, mt).
Shifted values are polynomials in T; the symmetric value renames T to T1
in its head factor and to T2 in its tail factor, and a check at T = 0
drops every monomial with a T-part.
Star and tau-interpolated values are those of the harmonic product.  The
tau-interpolated family weights each coarsening by tau^(drop in depth);
tau = 0 is the plain value and tau = 1 the star value, the coarsening sum.
The classical cyclic sum formula is checked as the shifted one at order 0.

A symmetric value is kept as its split sum: a ``LinearCombination`` of
pairs (s-side key, t-side key), each the sorted tuple of its factors' keys
(index, product, order, shift, T-name).  Sums, products and shifts act on
keys alone, so equal terms of two sides cancel before any ZetaPoly is
formed; ``_expand`` groups the pairs by s-side and makes one outer product
per group.  The harmonic, shuffle and tau cyclic-sum checks expand only
their difference; ``stadic_smzv`` is the expanded grid of one value.

The ``check_*`` functions build both sides of a proved relation and return
``numeric.residual`` of them: the largest absolute difference over the
truncated grid, compared coefficient by coefficient in T, T1 and T2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .indices import (
    Index, coarsenings, concat, cyclic_class, reverse, shifts, split, stuffle, uplus,
)
from .numeric import residual
from .regularization import R_poly, zeta_reg
from .rings import BiSeries, LinearCombination, ZetaPoly
from .words import HARMONIC, SHUFFLE, embed, index_of_word, lift_biseries, shuffle_shifted

@cache
def shifted_mzv(k: Index, product: str, order: int) -> BiSeries:
    """The shift deformation sum_n b(k;n) zeta(k+n;T) (-t)^wt(n) to t^order."""
    k = Index(k)
    coeffs = []
    for n in range(order + 1):
        acc = ZetaPoly()
        for l, b in shifts(k, n):
            acc.add_scaled(zeta_reg(l, product), b)
        coeffs.append(acc * ((-1) ** n))
    return BiSeries(0, order, [coeffs])


def _t_renamed(series: BiSeries, name: str | None) -> BiSeries:
    """``series`` with T renamed to ``name``, or with every T-symbol set to 0
    when ``name`` is None.  A rename needs coefficients in T alone, as
    ``shifted_mzv`` gives; each monomial keeps its zeta part and exponent."""
    def rewrite(p: ZetaPoly) -> ZetaPoly:
        return ZetaPoly({(zpart, ((name, tpart[0][1]),) if tpart else ()): c
                         for (zpart, tpart), c in p.terms.items() if name or not tpart})
    return series.map(rewrite)


def shifted_mzv_star(k: Index, order: int) -> BiSeries:
    """Coarsening sum of harmonic shifted values; 1 for the empty index."""
    out = BiSeries.constant(ZetaPoly(), 0, order)
    for l in coarsenings(Index(k)):
        out += shifted_mzv(l, HARMONIC, order)
    return out


def _splits(k: Index, product: str, orders: tuple[int, int],
            names: tuple = ("T1", "T2")) -> LinearCombination:
    """The symmetric value of k as a split sum, T named by ``names`` (None: 0)."""
    ms, mt = orders
    out = LinearCombination()
    for i in range(k.depth + 1):
        head, tail = split(k, i)
        out.add_term((((head, product, ms, 0, names[0]),),
                      ((reverse(tail), product, mt, 0, names[1]),)), (-1) ** tail.weight)
    return out


def _splits_tau(k: Index, tau: Fraction, orders: tuple[int, int]) -> LinearCombination:
    """The split sum of the tau-interpolated value of k."""
    out = LinearCombination()
    for l in coarsenings(k):
        weight = tau ** (k.depth - l.depth)
        if weight:
            out.add_scaled(_splits(l, HARMONIC, orders), weight)
    return out


def _shifted(pairs: LinearCombination, ds: int, dt: int) -> LinearCombination:
    """A split sum times s^ds t^dt, the power put on the first factor of each side."""
    def up(keys, d):
        (index, product, order, shift, name), *rest = keys
        return ((index, product, order, shift + d, name), *rest)
    return LinearCombination({(up(s, ds), up(t, dt)): c for (s, t), c in pairs.terms.items()})


@cache
def _factor(keys: tuple, t_side: bool) -> BiSeries:
    """The one-variable series of a side's key: the product of its factors,
    each a shifted value with T renamed, read at -t on the t side, and
    multiplied by its variable to the shift."""
    out = None
    for index, product, order, shift, name in keys:
        series = _t_renamed(shifted_mzv(index, product, order), name)
        series = (series.negate_t() if t_side else series).shift(0, shift)
        out = series if out is None else out * series
    return out


def _expand(pairs: LinearCombination, orders: tuple[int, int]) -> BiSeries:
    """The ZetaPoly grid of a split sum: each s-side against the sum of the
    t-sides it pairs with, one outer product per s-side.  An integral
    coefficient is applied as an int."""
    groups: dict = {}
    for (s, t), c in pairs.terms.items():
        if s not in groups:
            groups[s] = BiSeries.constant(ZetaPoly(), 0, orders[1])
        groups[s].add_scaled(_factor(t, True), c.numerator if c.denominator == 1 else c)
    out = BiSeries.constant(ZetaPoly(), *orders)
    for s, b in groups.items():
        if b:
            out += BiSeries.from_outer(_factor(s, False), b)
    return out


def _residual(diff: LinearCombination, orders: tuple[int, int], prec: int):
    """``numeric.residual`` of a check whose difference of sides is ``diff``."""
    return residual(_expand(diff, orders), BiSeries.constant(ZetaPoly(), *orders), prec)


@cache
def stadic_smzv(k: Index, product: str, orders: tuple[int, int]) -> BiSeries:
    """Two-parameter symmetric value as a ZetaPoly grid over (s, t)."""
    return _expand(_splits(Index(k), product, orders), orders)


def stadic_smzv_tau(k: Index, tau: Fraction, orders: tuple[int, int]) -> BiSeries:
    """Interpolation between the plain (tau=0) and star (tau=1) harmonic values."""
    return _expand(_splits_tau(Index(k), Fraction(tau), orders), orders)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _rotations_with_head(k: Index) -> list[tuple[int, Index]]:
    """Each cyclic rotation split as (first part, remaining index)."""
    return [(rot[0], Index(rot[1:])) for rot in cyclic_class(k)]


def _require_weight_gt_depth(k: Index) -> None:
    if k.weight <= k.depth:
        raise ValueError(f"index {k} must have weight greater than depth")


# ---------------------------------------------------------------------------
# relation checkers
# ---------------------------------------------------------------------------

def check_harmonic(k: Index, l: Index, orders: tuple[int, int], prec: int):
    """Stuffle multiplicativity of the two-parameter symmetric values."""
    k, l = Index(k), Index(l)
    lhs = LinearCombination()
    for idx, c in stuffle(k, l):
        lhs.add_scaled(_splits(idx, HARMONIC, orders), c)
    def times(a, b):
        # the empty unshifted factor is 1: a product drops it, so that the
        # rhs terms of a concatenation cancel against the lhs
        return tuple(sorted(f for f in a + b if f[0] or f[3])) or a

    right = _splits(l, HARMONIC, orders).terms.items()
    rhs = LinearCombination()
    for (s1, t1), c1 in _splits(k, HARMONIC, orders).terms.items():
        for (s2, t2), c2 in right:
            rhs.add_term((times(s1, s2), times(t1, t2)), c1 * c2)
    return _residual(lhs - rhs, orders, prec)


def check_shifted_harmonic(k: Index, l: Index, order: int, prec: int):
    """Stuffle multiplicativity of the shifted values."""
    k, l = Index(k), Index(l)
    lhs = BiSeries.constant(ZetaPoly(), 0, order)
    for idx, c in stuffle(k, l):
        lhs += shifted_mzv(idx, HARMONIC, order).scale(c)
    rhs = shifted_mzv(k, HARMONIC, order) * shifted_mzv(l, HARMONIC, order)
    return residual(lhs, rhs, prec)


def check_antipode(k: Index, order: int, prec: int):
    """Convolution of shifted against shifted-star values telescopes to
    delta(depth = 0)."""
    k = Index(k)
    acc = BiSeries.constant(ZetaPoly(), 0, order)
    for i in range(k.depth + 1):
        head, tail = split(k, i)
        term = (shifted_mzv(reverse(head), HARMONIC, order)
                * shifted_mzv_star(tail, order))
        acc += term.scale((-1) ** i)
    target = BiSeries.constant(ZetaPoly.const(1 if k.depth == 0 else 0), 0, order)
    return residual(acc, target, prec)


def check_shuffle(l: Index, k: Index, orders: tuple[int, int], prec: int):
    """Shifted-shuffle relation, with both parameters at T = 0.

    The left side reads each word of the s-shifted shuffle of the two signed
    words as its signed index and applies the symmetric value linearly;
    the right side is the binomially shifted concatenation sum.
    """
    l, k = Index(l), Index(k)
    word = shuffle_shifted(lift_biseries(embed(l), orders),
                           lift_biseries(embed(k), orders), orders)
    lhs = LinearCombination()
    for w, series in word.terms.items():
        idx = index_of_word(w)
        value = _splits(idx, SHUFFLE, orders, (None, None))
        for (i, j), c in series.terms.items():
            lhs.add_scaled(_shifted(value, i, j), c * (-1) ** idx.depth)

    rhs = LinearCombination()
    for n in range(orders[1] + 1):
        for m, b in shifts(l, n):
            term = _splits(concat(k, reverse(m)), SHUFFLE, orders, (None, None))
            rhs.add_scaled(_shifted(term, 0, n), b * (-1) ** l.weight)
    return _residual(lhs - rhs, orders, prec)


def check_t_translation(k: Index, orders: tuple[int, int], prec: int):
    """The symmetric value depends on (T1, T2) only through T2 - T1.

    Both sides are polynomials, so an identity makes the residual exactly 0.
    """
    v = stadic_smzv(Index(k), HARMONIC, orders)
    T1, T2 = ZetaPoly.tvar("T1"), ZetaPoly.tvar("T2")
    return residual(v, v.map(lambda p: p.subst_tvars({"T1": 0, "T2": T2 - T1})), prec)


def check_classical_csf(k: Index, prec: int):
    """Cyclic sum formula for star values of an index with weight > depth: the
    shifted formula at order 0, whose extra terms zeta*(u, l, 1) on the left
    and zeta*(rot, 1) on the right run over the same rotations rot = (u, l) and
    cancel exactly, leaving admissible star values and no T-monomial."""
    return check_shifted_csf(k, 0, prec)


def check_shifted_csf(k: Index, order: int, prec: int):
    """Cyclic sum formula for shifted star values."""
    k = Index(k)
    _require_weight_gt_depth(k)
    lhs = BiSeries.constant(ZetaPoly(), 0, order)
    for u, l in _rotations_with_head(k):
        for j in range(u):
            lhs += shifted_mzv_star(concat(Index((j + 1,)), l, Index((u - j,))), order)
    rhs = BiSeries.constant(ZetaPoly(), 0, order)
    for rot in cyclic_class(k):
        for j in range(order + 1):
            rhs += shifted_mzv_star(concat(rot, Index((j + 1,))), order).shift(0, j)
    rhs += shifted_mzv_star(Index((k.weight + 1,)), order).scale(k.weight)
    return residual(lhs, rhs, prec)


def check_csf_star(k: Index, orders: tuple[int, int], prec: int):
    """Cyclic sum formula for the star symmetric values (tau = 1)."""
    return check_csf_tau(k, 1, orders, prec)


def check_csf_nonstar(k: Index, orders: tuple[int, int], prec: int):
    """Cyclic sum formula for the plain symmetric values (tau = 0)."""
    return check_csf_tau(k, 0, orders, prec)


def check_csf_tau(k: Index, tau: Fraction, orders: tuple[int, int], prec: int):
    """Interpolated cyclic sum formula for the tau-interpolated values.

    Each rotation contributes a prepended/appended part j+1 plus, weighted
    by 1 - tau, the variant glued into the rotation; the single-zeta term
    weight * zeta(weight+1) carries tau^depth.
    """
    k = Index(k)
    _require_weight_gt_depth(k)
    tau = Fraction(tau)
    ms, mt = orders
    one_minus = 1 - tau

    def val(idx):
        return _splits_tau(idx, tau, orders)

    def around(left, right):
        term = val(concat(left, right))
        if one_minus:
            term.add_scaled(val(uplus(left, right)), one_minus)
        return term

    lhs = LinearCombination()
    for u, l in _rotations_with_head(k):
        for j in range(u):
            lhs += val(concat(Index((j + 1,)), l, Index((u - j,))))
    rhs = LinearCombination()
    for rot in cyclic_class(k):
        for j in range(mt + 1):
            rhs += _shifted(around(Index((j + 1,)), rot), 0, j)
        for j in range(ms + 1):
            rhs += _shifted(around(rot, Index((j + 1,))), j, 0)
    correction = k.weight * tau ** k.depth
    if correction:
        # the depth-1 index has one coarsening, itself: its star value is its value
        rhs.add_scaled(_splits(Index((k.weight + 1,)), HARMONIC, orders), correction)
    return _residual(lhs - rhs, orders, prec)


def check_explicit_reg(k: Index, order: int, prec: int):
    """Shuffle-shifted value at T=0 as a split sum of harmonic-shifted values
    against the all-ones correction polynomials."""
    k = Index(k)
    lhs = _t_renamed(shifted_mzv(k, SHUFFLE, order), None)
    rhs = BiSeries.constant(ZetaPoly(), 0, order)
    for i in range(k.depth + 1):
        head, tail = split(k, i)
        rhs += shifted_mzv(head, HARMONIC, order).scale(R_poly(tail))
    return residual(lhs, rhs, prec)
