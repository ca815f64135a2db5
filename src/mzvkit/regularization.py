"""Regularized multiple zeta polynomials.

H1 is a polynomial algebra over H0 in the single generator e1, for either
the harmonic or the shuffle product.  Splitting a word along that structure
gives its regularized decomposition; sending the H0 part through the zeta
symbol map and e1 to -T yields the regularized polynomial Z_T.  The map is
extended to all of H for both products by stripping leading e0 powers with
a binomial-weighted shift formula.

The comparison between the two regularizations is the linear map rho on
polynomials in T, generated by exp(TX) * Gamma0(-X) where Gamma0 collects
single zeta values zeta(k)/k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .indices import Index, b_coeff, compositions, oplus
from .rings import BiSeries, ZetaPoly
from .words import (
    E0, E1, HARMONIC, SHUFFLE, NcPoly, Word, in_h0, in_h1, index_of_word,
    product_fn, word_of_index,
)


@dataclass(frozen=True)
class RegDecomposition:
    """Coefficients (w0, w1, ..., wd) with w = sum_i wi * e1^(product i)."""

    coefficients: tuple[NcPoly, ...]
    product: str

    def reconstruct(self) -> NcPoly:
        out = NcPoly()
        for i, wi in enumerate(self.coefficients):
            out += product_fn(self.product)(wi, e1_power(self.product, i))
        return out


@cache
def e1_power(product: str, i: int) -> NcPoly:
    """The i-fold product power of e1."""
    if i == 0:
        return NcPoly.one()
    return product_fn(product)(e1_power(product, i - 1), NcPoly.from_word((E1,)))


def _strip_trailing_ones(w: Word) -> tuple[Word, int]:
    i = len(w)
    while i > 0 and w[i - 1] == E1:
        i -= 1
    return w[:i], len(w) - i


@cache
def reg_word(w: Word, product: str) -> NcPoly:
    """Constant term of an H1 word in the H0[e1] polynomial structure.

    Inverts the triangular system w0 e1^n = sum_i reg(w0 e1^(n-i))/i! * e1^i
    by peeling the maximal trailing e1-run.
    """
    if not in_h1(w):
        raise ValueError(f"word {w} is not supported on H1")
    if in_h0(w):
        return NcPoly.from_word(w)
    head, m = _strip_trailing_ones(w)
    res = NcPoly.from_word(w)
    mul = product_fn(product)
    for i in range(1, m + 1):
        ci = reg_word(head + (E1,) * (m - i), product).scale(Fraction(1, factorial(i)))
        res -= mul(ci, e1_power(product, i))
    if not res.support_in_h0():
        raise AssertionError(f"regularization of {w} left non-H0 words")
    return res


@cache
def _decompose_word(w: Word, product: str) -> tuple[NcPoly, ...]:
    if not in_h1(w):
        raise ValueError(f"word {w} is not supported on H1")
    head, m = _strip_trailing_ones(w)
    return tuple(
        reg_word(head + (E1,) * (m - i), product).scale(Fraction(1, factorial(i)))
        for i in range(m + 1)
    )


def regularize(u: NcPoly, product: str) -> RegDecomposition:
    """Decompose an H1-supported polynomial along H1 = H0[e1]."""
    parts: list[NcPoly] = []
    for w, c in u.terms.items():
        for i, ci in enumerate(_decompose_word(w, product)):
            while len(parts) <= i:
                parts.append(NcPoly())
            parts[i] += ci.scale(c)
    if not parts:
        parts = [NcPoly()]
    return RegDecomposition(tuple(parts), product)


def z_of_h0(u: NcPoly) -> ZetaPoly:
    """The zeta symbol map on H0: e_k -> (-1)^depth Z[k]."""
    out = ZetaPoly()
    for w, c in u.terms.items():
        if not in_h0(w):
            raise ValueError(f"word {w} is not supported on H0")
        idx = index_of_word(w)
        out += ZetaPoly.zeta(tuple(idx)) * (Fraction(c) * (-1) ** idx.depth)
    return out


@cache
def _z_reg_word(w: Word, product: str) -> ZetaPoly:
    dec = _decompose_word(w, product)
    T = ZetaPoly.tvar("T")
    out = ZetaPoly()
    power = ZetaPoly.const(1)
    for i, ci in enumerate(dec):
        out += z_of_h0(ci) * power
        power = power * (-1 * T)
    return out


def Z_reg(u: NcPoly, product: str) -> ZetaPoly:
    """Regularized value of an H1-supported polynomial, e1 mapped to -T."""
    out = ZetaPoly()
    for w, c in u.terms.items():
        out += _z_reg_word(w, product) * Fraction(c)
    return out


@cache
def zeta_reg(k: Index, product: str) -> ZetaPoly:
    """The regularized polynomial of an index, as a ZetaPoly in T."""
    return _z_reg_word(word_of_index(k), product) * Fraction((-1) ** k.depth)


@cache
def _z_reg_full_word(w: Word, product: str) -> ZetaPoly:
    n = 0
    while n < len(w) and w[n] == E0:
        n += 1
    rest = w[n:]
    k = index_of_word(rest)
    out = ZetaPoly()
    for shift in compositions(n, k.depth):
        out += zeta_reg(oplus(k, shift), product) * b_coeff(k, shift)
    return out * ((-1) ** (n + k.depth))


def Z_reg_full(u: NcPoly, product: str) -> ZetaPoly:
    """Regularized value on all of H, stripping leading e0 powers.

    Words with no e1 evaluate to 1 (empty) or 0 (positive e0 power).
    """
    out = ZetaPoly()
    for w, c in u.terms.items():
        out += _z_reg_full_word(w, product) * Fraction(c)
    return out


# ---------------------------------------------------------------------------
# comparison of the two regularizations
# ---------------------------------------------------------------------------

@cache
def gamma0_coeffs(order: int) -> tuple[ZetaPoly, ...]:
    """Coefficients of X^0..X^order of exp(sum_{k>=2} Z[(k)]/k X^k)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    s = BiSeries(0, order, [[ZetaPoly.zeta((k,)) * Fraction(1, k) if k >= 2 else ZetaPoly()
                              for k in range(order + 1)]])
    out = BiSeries.constant(ZetaPoly.const(1), 0, order)
    power = BiSeries.constant(ZetaPoly.const(1), 0, order)
    for m in range(1, order // 2 + 1):
        power = power * s
        out += power.scale(Fraction(1, factorial(m)))
    return tuple(out.coeffs)


@cache
def rho_of_T_power(n: int) -> ZetaPoly:
    """rho(T^n), read off from exp(TX) Gamma0(-X) = sum rho(T^n)/n! X^n."""
    g = gamma0_coeffs(n)
    T = ZetaPoly.tvar("T")
    out = ZetaPoly()
    for a in range(n + 1):
        b = n - a
        coeff = Fraction(factorial(n), factorial(a)) * (-1) ** b
        out += g[b] * coeff * T ** a
    return out


def rho(p: ZetaPoly) -> ZetaPoly:
    """Linear extension of rho to polynomials in T over the zeta symbols."""
    out = ZetaPoly()
    for (zpart, tpart), c in p.terms.items():
        n = 0
        for name, e in tpart:
            if name != "T":
                raise ValueError(f"rho acts on polynomials in T only, found {name}")
            n = e
        out += ZetaPoly({(zpart, ()): c}) * rho_of_T_power(n)
    return out


def R_poly(k: Index) -> ZetaPoly:
    """The correction polynomial R(k;T) of the explicit comparison formula.

    Vanishes unless every part of k is 1; for the all-ones index of depth r
    it is sum_{a+b=r} rho(T^b)|_{T=0} (-T)^a / (a! b!).
    """
    if any(p != 1 for p in k):
        return ZetaPoly()
    r = k.depth
    T = ZetaPoly.tvar("T")
    out = ZetaPoly()
    for a in range(r + 1):
        b = r - a
        const = rho_of_T_power(b).subst_tvars({"T": 0})
        out += const * (-1 * T) ** a * Fraction(1, factorial(a) * factorial(b))
    return out


def check_reg_theorem(k: Index, prec: int, T: Fraction = Fraction(7, 10)):
    """Residual of the comparison zeta_sh(k;T) = rho(zeta_ha(k;T)), numerically."""
    from .numeric import eval_zeta_poly

    diff = zeta_reg(k, SHUFFLE) - rho(zeta_reg(k, HARMONIC))
    return abs(eval_zeta_poly(diff, {"T": T}, prec))


def reg_theorem_sides(k: Index) -> tuple[ZetaPoly, ZetaPoly]:
    """Both sides of the regularization comparison, as symbolic polynomials."""
    return zeta_reg(k, SHUFFLE), rho(zeta_reg(k, HARMONIC))
