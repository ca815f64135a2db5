"""Shifted and two-parameter symmetric multiple zeta values, with checkers.

``shifted_mzv`` deforms the regularized polynomial of an index by a formal
variable: the coefficient of t^n collects the binomially weighted values of
all componentwise shifts of total size n, with sign (-1)^n.

``stadic_smzv`` is the symmetric two-parameter combination: the sum over
split positions i of

    (-1)^(weight of tail) * shifted(head; s, T1) * shifted(reverse tail; -t, T2)

with values in ZetaPoly[T1,T2] coefficient grids truncated at (ms, mt).
The tau-interpolated family weights each coarsening by tau^(drop in depth);
tau = 0 is the plain value and tau = 1 the star value, the coarsening sum.

The ``check_*`` functions evaluate both sides of a proved relation at
sampled rational (or supplied) parameter values through the numeric layer
and return the maximal absolute residual over the truncated grid.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from mpmath import mp

from .indices import (
    Index, IndexCombination, b_coeff, coarsenings, compositions, concat,
    cyclic_class, oplus, reverse, split, uplus,
)
from .numeric import _GUARD, eval_zeta_poly, mzv_star
from .regularization import R_poly, zeta_reg
from .rings import BiSeries, ZetaPoly
from .words import (
    HARMONIC, SHUFFLE, NcPoly, embed, extract_combination, index_harmonic,
    lift_biseries, shuffle_shifted,
)

# Sampled parameter points for numeric certification of symbolic identities;
# rational, away from 0 to avoid accidental vanishing.
SAMPLE_T = Fraction(7, 10)
SAMPLE_T1 = Fraction(3, 10)
SAMPLE_T2 = Fraction(-7, 10)


@cache
def _zeta_reg_sym(k: Index, product: str, tsym: str | None) -> ZetaPoly:
    """zeta(k;T) with the T symbol renamed to ``tsym`` (or set to 0)."""
    p = zeta_reg(k, product)
    if tsym == "T":
        return p
    return p.subst_tvars({"T": ZetaPoly.tvar(tsym) if tsym else 0})


@cache
def shifted_mzv(k: Index, product: str, order: int, tsym: str | None = "T") -> BiSeries:
    """The shift deformation sum_n b(k;n) zeta(k+n;T) (-t)^wt(n) to t^order."""
    k = Index(k)
    coeffs = []
    for n in range(order + 1):
        acc = ZetaPoly()
        for shift in compositions(n, k.depth):
            acc += _zeta_reg_sym(oplus(k, shift), product, tsym) * b_coeff(k, shift)
        coeffs.append(acc * ((-1) ** n))
    return BiSeries(0, order, [coeffs])


def shifted_mzv_star(k: Index, product: str, order: int, tsym: str | None = "T") -> BiSeries:
    """Coarsening sum of shifted values; 1 for the empty index."""
    out = BiSeries.constant(ZetaPoly(), 0, order)
    for l in coarsenings(Index(k)):
        out += shifted_mzv(l, product, order, tsym)
    return out


@cache
def stadic_smzv(k: Index, product: str, orders: tuple[int, int],
                t1sym: str | None = "T1", t2sym: str | None = "T2") -> BiSeries:
    """Two-parameter symmetric value as a ZetaPoly grid over (s, t)."""
    k = Index(k)
    ms, mt = orders
    out = BiSeries.constant(ZetaPoly(), ms, mt)
    for i in range(k.depth + 1):
        head, tail = split(k, i)
        sign = (-1) ** tail.weight
        a = shifted_mzv(head, product, ms, t1sym)
        b = shifted_mzv(reverse(tail), product, mt, t2sym).negate_t()
        out += BiSeries.from_outer(a, b).scale(Fraction(sign))
    return out


def stadic_smzv_star(k: Index, product: str, orders: tuple[int, int],
                     t1sym: str | None = "T1", t2sym: str | None = "T2") -> BiSeries:
    return stadic_smzv_tau(k, 1, product, orders, t1sym, t2sym)


def stadic_smzv_tau(k: Index, tau: Fraction, product: str, orders: tuple[int, int],
                    t1sym: str | None = "T1", t2sym: str | None = "T2") -> BiSeries:
    """Interpolation between the plain (tau=0) and star (tau=1) values."""
    k = Index(k)
    tau = Fraction(tau)
    out = BiSeries.constant(ZetaPoly(), *orders)
    for l in coarsenings(k):
        weight = tau ** (k.depth - l.depth)
        if weight:
            out += stadic_smzv(l, product, orders, t1sym, t2sym).scale(weight)
    return out


def stadic_of_combination(combo: IndexCombination, product: str, orders: tuple[int, int],
                          t1sym: str | None = "T1", t2sym: str | None = "T2") -> BiSeries:
    out = BiSeries.constant(ZetaPoly(), *orders)
    for idx, c in combo.terms.items():
        out += stadic_smzv(idx, product, orders, t1sym, t2sym).scale(c)
    return out


# ---------------------------------------------------------------------------
# residual helpers
# ---------------------------------------------------------------------------

def _tvals(T1=SAMPLE_T1, T2=SAMPLE_T2, T=SAMPLE_T) -> dict:
    return {"T1": T1, "T2": T2, "T": T}


def residual_biseries(a: BiSeries, b: BiSeries, tvals: dict, prec: int):
    diff = a - b
    with mp.workdps(prec + _GUARD):
        worst = mp.mpf(0)
        for _, _, entry in diff.entries():
            worst = max(worst, abs(eval_zeta_poly(entry, tvals, prec)))
        return worst


def _rotations_with_head(k: Index) -> list[tuple[int, Index]]:
    """Each cyclic rotation split as (first part, remaining index)."""
    out = []
    for rot in cyclic_class(k):
        out.append((rot[0], Index(rot[1:])))
    return out


def _require_weight_gt_depth(k: Index) -> None:
    if k.weight <= k.depth:
        raise ValueError(f"index {k} must have weight greater than depth")


# ---------------------------------------------------------------------------
# relation checkers
# ---------------------------------------------------------------------------

def check_harmonic(k: Index, l: Index, orders: tuple[int, int], prec: int,
                   T1=SAMPLE_T1, T2=SAMPLE_T2):
    """Stuffle multiplicativity of the two-parameter symmetric values."""
    k, l = Index(k), Index(l)
    lhs = stadic_of_combination(index_harmonic(k, l), HARMONIC, orders)
    rhs = stadic_smzv(k, HARMONIC, orders) * stadic_smzv(l, HARMONIC, orders)
    return residual_biseries(lhs, rhs, _tvals(T1=T1, T2=T2), prec)


def check_shifted_harmonic(k: Index, l: Index, order: int, prec: int, T=SAMPLE_T):
    """Stuffle multiplicativity of the shifted values at a sampled T."""
    k, l = Index(k), Index(l)
    lhs = BiSeries.constant(ZetaPoly(), 0, order)
    for idx, c in index_harmonic(k, l).terms.items():
        lhs += shifted_mzv(idx, HARMONIC, order).scale(c)
    rhs = shifted_mzv(k, HARMONIC, order) * shifted_mzv(l, HARMONIC, order)
    return residual_biseries(lhs, rhs, _tvals(T=T), prec)


def check_antipode(k: Index, order: int, prec: int, T=SAMPLE_T):
    """Convolution of shifted against shifted-star values telescopes to
    delta(depth = 0)."""
    k = Index(k)
    acc = BiSeries.constant(ZetaPoly(), 0, order)
    for i in range(k.depth + 1):
        head, tail = split(k, i)
        term = (shifted_mzv(reverse(head), HARMONIC, order)
                * shifted_mzv_star(tail, HARMONIC, order))
        acc += term.scale(Fraction((-1) ** i))
    target = BiSeries.constant(ZetaPoly.const(1 if k.depth == 0 else 0), 0, order)
    return residual_biseries(acc, target, _tvals(T=T), prec)


def check_shuffle(l: Index, k: Index, orders: tuple[int, int], prec: int):
    """Shifted-shuffle relation, with both parameters at T = 0.

    The left side transports the word-level s-shifted shuffle of the two
    signed words back to indices and applies the symmetric value linearly;
    the right side is the binomially shifted concatenation sum.
    """
    l, k = Index(l), Index(k)
    ms, mt = orders
    word = shuffle_shifted(lift_biseries(embed(l), orders),
                           lift_biseries(embed(k), orders), orders)
    lhs = BiSeries.constant(ZetaPoly(), ms, mt)
    for w, series in word.terms.items():
        combo = extract_combination(NcPoly.from_word(w))
        [(idx, sign)] = combo.terms.items()
        value = stadic_smzv(idx, SHUFFLE, orders, None, None)
        lhs += (series.map(ZetaPoly.const) * value).scale(sign)

    rhs = BiSeries.constant(ZetaPoly(), ms, mt)
    for n in range(mt + 1):
        for shift in compositions(n, l.depth):
            idx = concat(k, reverse(oplus(l, shift)))
            term = stadic_smzv(idx, SHUFFLE, orders, None, None).shift(0, n)
            rhs += term.scale(Fraction(b_coeff(l, shift)))
    rhs = rhs.scale(Fraction((-1) ** l.weight))
    return residual_biseries(lhs, rhs, {}, prec)


def check_t_translation(k: Index, orders: tuple[int, int], prec: int,
                        T1=SAMPLE_T1, T2=SAMPLE_T2):
    """The symmetric value depends on (T1, T2) only through T2 - T1."""
    v = stadic_smzv(Index(k), HARMONIC, orders)
    lhs = _tvals(T1=T1, T2=T2)
    rhs = _tvals(T1=Fraction(0), T2=Fraction(T2) - Fraction(T1))
    with mp.workdps(prec + _GUARD):
        worst = mp.mpf(0)
        for _, _, entry in v.entries():
            worst = max(worst, abs(eval_zeta_poly(entry, lhs, prec)
                                   - eval_zeta_poly(entry, rhs, prec)))
        return worst


def check_classical_csf(k: Index, prec: int):
    """Cyclic sum formula for star values of an index with weight > depth."""
    k = Index(k)
    _require_weight_gt_depth(k)
    with mp.workdps(prec + _GUARD):
        lhs = mp.mpf(0)
        for u, l in _rotations_with_head(k):
            for j in range(u - 1):
                lhs += mzv_star(concat(Index((j + 1,)), l, Index((u - j,))), prec)
        rhs = k.weight * mzv_star(Index((k.weight + 1,)), prec)
        return abs(lhs - rhs)


def check_shifted_csf(k: Index, order: int, prec: int, T=SAMPLE_T):
    """Cyclic sum formula for shifted star values at a sampled T."""
    k = Index(k)
    _require_weight_gt_depth(k)
    lhs = BiSeries.constant(ZetaPoly(), 0, order)
    for u, l in _rotations_with_head(k):
        for j in range(u):
            lhs += shifted_mzv_star(concat(Index((j + 1,)), l, Index((u - j,))), HARMONIC, order)
    rhs = BiSeries.constant(ZetaPoly(), 0, order)
    for rot in cyclic_class(k):
        for j in range(order + 1):
            rhs += shifted_mzv_star(concat(rot, Index((j + 1,))), HARMONIC, order).shift(0, j)
    rhs += shifted_mzv_star(Index((k.weight + 1,)), HARMONIC, order).scale(Fraction(k.weight))
    return residual_biseries(lhs, rhs, _tvals(T=T), prec)


def check_csf_star(k: Index, orders: tuple[int, int], prec: int,
                   T1=SAMPLE_T1, T2=SAMPLE_T2):
    """Cyclic sum formula for the star symmetric values (tau = 1)."""
    return check_csf_tau(k, 1, orders, prec, T1, T2)


def check_csf_nonstar(k: Index, orders: tuple[int, int], prec: int,
                      T1=SAMPLE_T1, T2=SAMPLE_T2):
    """Cyclic sum formula for the plain symmetric values (tau = 0)."""
    return check_csf_tau(k, 0, orders, prec, T1, T2)


def check_csf_tau(k: Index, tau: Fraction, orders: tuple[int, int], prec: int,
                  T1=SAMPLE_T1, T2=SAMPLE_T2):
    """Interpolated cyclic sum formula for the tau-interpolated values.

    Each rotation contributes a prepended/appended part j+1 plus, weighted
    by 1 - tau, the variant glued into the rotation; the single-zeta term
    weight * zeta(weight+1) carries tau^depth.  Terms of weight 0 are skipped.
    """
    k = Index(k)
    _require_weight_gt_depth(k)
    tau = Fraction(tau)
    ms, mt = orders
    one_minus = 1 - tau

    def val(idx):
        return stadic_smzv_tau(idx, tau, HARMONIC, orders)

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
        rhs += stadic_smzv_star(Index((k.weight + 1,)), HARMONIC, orders).scale(correction)
    return residual_biseries(lhs, rhs, _tvals(T1=T1, T2=T2), prec)


def check_explicit_reg(k: Index, order: int, prec: int, T=SAMPLE_T):
    """Shuffle-shifted value at T=0 as a split sum of harmonic-shifted values
    against the all-ones correction polynomials."""
    k = Index(k)
    lhs = shifted_mzv(k, SHUFFLE, order, tsym=None)
    rhs = BiSeries.constant(ZetaPoly(), 0, order)
    for i in range(k.depth + 1):
        head, tail = split(k, i)
        rhs += shifted_mzv(head, HARMONIC, order).scale(R_poly(tail))
    return residual_biseries(lhs, rhs, _tvals(T=T), prec)
