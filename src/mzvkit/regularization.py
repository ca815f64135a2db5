"""Regularized multiple zeta polynomials.

H1 is a polynomial algebra over H0 in the single generator e1, for either
the harmonic or the shuffle product, and the regularized polynomial Z_T is
the algebra map that sends each admissible index to its zeta symbol and the
index (1), the letter e1, to T.  ``zeta_reg`` solves for Z_T(k) by the product recursion
T Z_T(head) = Z_T((1) * head), with the expansion taken on indices, so it
builds no word product.  The decomposition of a word along H1 = H0[e1]
(``_decompose_word``, ``regularize``) stays as the word route, which the
tests hold ``zeta_reg`` against.  Z_T is extended to all of H for both
products by Z_T(e0) = 0, which strips leading e0s one letter at a time.

The comparison between the two regularizations is the linear map rho on
polynomials in T, generated by exp(TX) * Gamma0(-X) where Gamma0 collects
single zeta values zeta(k)/k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .indices import Index, shifts, shuffle_one, stuffle, trusted_index
from .numeric import residual
from .rings import ZetaPoly, exp_coeffs
from .words import (E1, HARMONIC, SHUFFLE, NcPoly, Word, in_h1, index_of_word, product_fn,
                    word_of_index)

_T = ZetaPoly.tvar("T")


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
def _decompose_word(w: Word, product: str) -> tuple[NcPoly, ...]:
    """The parts (w0, ..., wm) of an H1 word w = head e1^m along H1 = H0[e1].

    Part i >= 1 is part 0 of head e1^(m-i) divided by i!; part 0 is what
    remains of w after the product powers of e1 are taken out, and lies in H0.
    Whole coefficients are ints, so every later product stays in int arithmetic.
    """
    if not in_h1(w):
        raise ValueError(f"word {w} is not supported on H1")
    head, m = _strip_trailing_ones(w)
    parts = [_decompose_word(head + (E1,) * (m - i), product)[0].scale(Fraction(1, factorial(i)))
             for i in range(1, m + 1)]
    w0 = NcPoly.from_word(w)
    mul = product_fn(product)
    for i, wi in enumerate(parts, start=1):
        w0 -= mul(wi, e1_power(product, i))
    if not w0.support_in_h0():
        raise AssertionError(f"regularization of {w} left non-H0 words")
    if not parts:       # w lies in H0: its one part is w itself, coefficient 1
        return (w0,)
    return tuple(part.map_coeffs(_int_if_whole) for part in (w0, *parts))


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


@cache
def zeta_reg(k: Index, product: str) -> ZetaPoly:
    """The regularized polynomial Z_T(k) of an index, as a ZetaPoly in T.

    Z[k] for an admissible k.  Otherwise, Z_T is an algebra homomorphism for
    the product with Z_T((1)) = T, so T Z_T(head) = sum c_l Z_T(l) over the
    expansion of (1) * head, head = k[:-1], taken on indices (``shuffle_one``
    or ``stuffle``).  k appears there with its number of trailing 1s as
    coefficient c_k, and every other l has fewer, so solving for Z_T(k)
    recurses down to admissible indices.  Whole coefficients stay ints.
    """
    if k.admissible:
        return ZetaPoly.zeta(k)
    head = trusted_index(k[:-1])
    terms = shuffle_one(head) if product == SHUFFLE else dict(stuffle((1,), head))
    out = zeta_reg(head, product) * _T
    for l, c in terms.items():
        if l != k:
            out.add_scaled(zeta_reg(l, product), -c)
    ck = terms[k]
    if ck == 1:
        return out
    return ZetaPoly({m: _int_if_whole(Fraction(c) / ck) for m, c in out.terms.items()})


def _int_if_whole(q):
    """An exact rational as an int when it is whole, else unchanged."""
    return q.numerator if q.denominator == 1 else q


@cache
def _z_reg_full_word(w: Word, product: str) -> ZetaPoly:
    """Z_T(w) for w = e0^n e_k: (-1)^depth Z_T(k) at n = 0; above, Z_T(e0) = 0
    gives the one-letter recursion n Z_T(e0^n e_k) = -sum_i k_i
    Z_T(e0^(n-1) e_(k + delta_i)) over the shifts of k by 1, for both products."""
    n = w.index(E1) if E1 in w else len(w)
    k = index_of_word(w[n:])
    if not n:
        return zeta_reg(k, product) * (-1) ** k.depth
    out = ZetaPoly()
    for l, c in shifts(k, 1):
        out.add_scaled(_z_reg_full_word(w[1:n] + word_of_index(l), product), Fraction(-c, n))
    return out


def Z_reg_full(u: NcPoly, product: str) -> ZetaPoly:
    """Regularized value on all of H, stripping leading e0 powers.

    Words with no e1 evaluate to 1 (empty) or 0 (positive e0 power).
    """
    out = ZetaPoly()
    for w, c in u.terms.items():
        out += _z_reg_full_word(w, product) * c
    return out


# ---------------------------------------------------------------------------
# comparison of the two regularizations
# ---------------------------------------------------------------------------

@cache
def gamma0_coeffs(order: int) -> tuple[ZetaPoly, ...]:
    """Coefficients of X^0..X^order of exp(sum_{k>=2} Z[(k)]/k X^k)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return tuple(exp_coeffs([ZetaPoly.zeta((k,)) / k if k >= 2 else ZetaPoly()
                             for k in range(order + 1)]))


def _exp_T_gamma0(n: int, sign: int) -> ZetaPoly:
    """[X^n] exp(sign T X) Gamma0(-X) = sum_{a+b=n} (sign T)^a/a! (-1)^b Gamma0_b."""
    g = gamma0_coeffs(n)
    return ZetaPoly({(zpart, (("T", a),) if a else ()):
                     _int_if_whole(c * Fraction(sign ** a * (-1) ** (n - a), factorial(a)))
                     for a in range(n + 1) for (zpart, _), c in g[n - a].terms.items()})


@cache
def rho_of_T_power(n: int) -> ZetaPoly:
    """rho(T^n), read off from exp(TX) Gamma0(-X) = sum rho(T^n)/n! X^n."""
    return ZetaPoly({key: _int_if_whole(c * factorial(n))
                     for key, c in _exp_T_gamma0(n, 1).terms.items()})


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
    it is [X^r] exp(-TX) Gamma0(-X).
    """
    if any(p != 1 for p in k):
        return ZetaPoly()
    return _exp_T_gamma0(k.depth, -1)


def check_reg_theorem(k: Index, prec: int):
    """Residual of the comparison zeta_sh(k;T) = rho(zeta_ha(k;T)), compared
    coefficient by coefficient in T."""
    return residual(*reg_theorem_sides(k), prec)


def reg_theorem_sides(k: Index) -> tuple[ZetaPoly, ZetaPoly]:
    """Both sides of the regularization comparison, as symbolic polynomials."""
    return zeta_reg(k, SHUFFLE), rho(zeta_reg(k, HARMONIC))
