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
from .rings import BiSeries, ZetaPoly
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


@cache
def stadic_smzv(k: Index, product: str, orders: tuple[int, int]) -> BiSeries:
    """Two-parameter symmetric value as a ZetaPoly grid over (s, t)."""
    k = Index(k)
    ms, mt = orders
    out = BiSeries.constant(ZetaPoly(), ms, mt)
    for i in range(k.depth + 1):
        head, tail = split(k, i)
        sign = (-1) ** tail.weight
        a = _t_renamed(shifted_mzv(head, product, ms), "T1")
        b = _t_renamed(shifted_mzv(reverse(tail), product, mt), "T2").negate_t()
        out.add_scaled(BiSeries.from_outer(a, b), sign)
    return out


def stadic_smzv_tau(k: Index, tau: Fraction, orders: tuple[int, int]) -> BiSeries:
    """Interpolation between the plain (tau=0) and star (tau=1) harmonic values."""
    k = Index(k)
    tau = Fraction(tau)
    out = BiSeries.constant(ZetaPoly(), *orders)
    for l in coarsenings(k):
        weight = tau ** (k.depth - l.depth)
        if weight:
            out += stadic_smzv(l, HARMONIC, orders).scale(weight)
    return out


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
    lhs = BiSeries.constant(ZetaPoly(), *orders)
    for idx, c in stuffle(k, l):
        lhs += stadic_smzv(idx, HARMONIC, orders).scale(c)
    rhs = stadic_smzv(k, HARMONIC, orders) * stadic_smzv(l, HARMONIC, orders)
    return residual(lhs, rhs, prec)


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
    ms, mt = orders
    word = shuffle_shifted(lift_biseries(embed(l), orders),
                           lift_biseries(embed(k), orders), orders)
    lhs = BiSeries.constant(ZetaPoly(), ms, mt)
    for w, series in word.terms.items():
        idx = index_of_word(w)
        value = _t_renamed(stadic_smzv(idx, SHUFFLE, orders), None)
        lhs += (series * value).scale((-1) ** idx.depth)

    rhs = BiSeries.constant(ZetaPoly(), ms, mt)
    for n in range(mt + 1):
        for m, b in shifts(l, n):
            term = _t_renamed(stadic_smzv(concat(k, reverse(m)), SHUFFLE, orders), None)
            rhs += term.shift(0, n).scale(b)
    rhs = rhs.scale((-1) ** l.weight)
    return residual(lhs, rhs, prec)


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
        return stadic_smzv_tau(idx, tau, orders)

    def around(left, right):
        term = val(concat(left, right))
        if one_minus:
            term += val(uplus(left, right)).scale(one_minus)
        return term

    lhs = BiSeries.constant(ZetaPoly(), ms, mt)
    for u, l in _rotations_with_head(k):
        for j in range(u):
            lhs += val(concat(Index((j + 1,)), l, Index((u - j,))))
    rhs = BiSeries.constant(ZetaPoly(), ms, mt)
    for rot in cyclic_class(k):
        for j in range(mt + 1):
            rhs += around(Index((j + 1,)), rot).shift(0, j)
        for j in range(ms + 1):
            rhs += around(rot, Index((j + 1,))).shift(j, 0)
    correction = k.weight * tau ** k.depth
    if correction:
        # the depth-1 index has one coarsening, itself: its star value is its value
        rhs += stadic_smzv(Index((k.weight + 1,)), HARMONIC, orders).scale(correction)
    return residual(lhs, rhs, prec)


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
