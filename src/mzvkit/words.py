"""Noncommutative words over two letters and the products on them.

Words live over the letters ``E0`` and ``E1`` (encoded 0 and 1).  A word is
in H1 when it is empty or starts with E1, and in H0 when it is empty or
starts with E1 and ends with E0.  An index k = (k1,...,kr) corresponds to
the word ``e1 e0^(k1-1) ... e1 e0^(kr-1)``; the linear bijection onto index
combinations carries the sign (-1)^depth.

``NcPoly`` is a finitely supported map from words to coefficients in a
pluggable scalar ring (anything with +, -, *, bool), on the sparse core
``rings.LinearCombination``.  Its ``*`` is concatenation; ``subst``, ``eps``
and ``reverse`` are its letter maps.  The harmonic (quasi-shuffle) and shuffle
products are the bilinear maps :func:`harmonic` and :func:`shuffle`, with
integer structure constants computed once per word pair and cached.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import prod

from .indices import Index, IndexCombination, coarsenings, reverse
from .rings import BiSeries, LinearCombination

E0 = 0
E1 = 1

# Letter images for NcPoly.subst: the swap e0 <-> e1.
SWAP = {E0: ((E1, 1),), E1: ((E0, 1),)}

Word = tuple  # tuple of 0/1 letters


def in_h1(w: Word) -> bool:
    return len(w) == 0 or w[0] == E1


def in_h0(w: Word) -> bool:
    return len(w) == 0 or (w[0] == E1 and w[-1] == E0)


def word_of_index(k: Index) -> Word:
    out = []
    for p in k:
        out.append(E1)
        out.extend([E0] * (p - 1))
    return tuple(out)


def index_of_word(w: Word) -> Index:
    """Parse an H1 word back into its index."""
    if not in_h1(w):
        raise ValueError(f"word {w} does not start with e1")
    parts = []
    for letter in w:
        if letter == E1:
            parts.append(1)
        else:
            parts[-1] += 1
    return Index(parts)


def _word_sort_key(w: Word):
    # length first, then lexicographic with E1 > E0
    return (len(w), tuple(-a for a in w))


class NcPoly(LinearCombination):
    """Finitely supported noncommutative polynomial over {e0, e1}."""

    __slots__ = ()

    @classmethod
    def from_word(cls, w: Word, coeff=Fraction(1)) -> "NcPoly":
        return cls({tuple(w): coeff})

    @classmethod
    def one(cls, coeff=Fraction(1)) -> "NcPoly":
        return cls({(): coeff})

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        """Concatenation product."""
        out = NcPoly()
        out._accumulate((w1 + w2, c1 * c2)
                        for w1, c1 in self.terms.items() for w2, c2 in other.terms.items())
        return out

    def map_coeffs(self, f) -> "NcPoly":
        return NcPoly({w: f(c) for w, c in self.terms.items()})

    def coeff(self, w: Word):
        """The coefficient of ``w``; 0 when the word is absent."""
        return self.terms.get(tuple(w), 0)

    def subst(self, images: dict[int, tuple[tuple[int, object], ...]]) -> "NcPoly":
        """Algebra endomorphism: each letter a becomes sum m * b over ``images[a]``."""
        out = self._new({})
        for w, c in self.terms.items():
            out._accumulate((tuple(b for b, _ in choices), c * prod(m for _, m in choices))
                            for choices in itertools.product(*(images[a] for a in w)))
        return out

    def reverse(self) -> "NcPoly":
        """Word-by-word reversal, no signs."""
        return self._new({w[::-1]: c for w, c in self.terms.items()})

    def eps(self) -> "NcPoly":
        """Anti-automorphism e_i -> -e_i: reverse words, sign by length."""
        return self._new({w[::-1]: c * (-1) ** len(w) for w, c in self.terms.items()})

    def support_in_h1(self) -> bool:
        return all(in_h1(w) for w in self.terms)

    def support_in_h0(self) -> bool:
        return all(in_h0(w) for w in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        for w in sorted(self.terms, key=_word_sort_key):
            body = "".join(f"y{a}" for a in w) or "1"
            c = str(self.terms[w])
            neg = c.startswith("-") and " " not in c
            if neg:
                c = c[1:]
            if c == "1" and body != "1":
                piece = body
            elif " " in c or "+" in c:
                piece = f"({c})*{body}"
            else:
                piece = f"{c}*{body}"
            if not out:
                out = ("-" if neg else "") + piece
            else:
                out += (" - " if neg else " + ") + piece
        return out

    __repr__ = __str__


def embed(k: Index) -> NcPoly:
    """The signed word (-1)^depth e_k of an index."""
    return NcPoly.from_word(word_of_index(k), Fraction((-1) ** k.depth))


def embed_combination(c: IndexCombination) -> NcPoly:
    out = NcPoly()
    for idx, q in c.terms.items():
        out += embed(idx).scale(q)
    return out


def extract_combination(u: NcPoly) -> IndexCombination:
    """Inverse of :func:`embed_combination`; the support must lie in H1."""
    terms = {}
    for w, c in u.terms.items():
        idx = index_of_word(w)
        terms[idx] = Fraction((-1) ** idx.depth) * c
    return IndexCombination(terms)


# ---------------------------------------------------------------------------
# shuffle and harmonic structure constants
# ---------------------------------------------------------------------------

@cache
def _shuffle_words(w1: Word, w2: Word) -> tuple:
    """Integer-weighted interleavings of two words."""
    n1, n2 = len(w1), len(w2)
    out: dict[Word, int] = {}
    for positions in itertools.combinations(range(n1 + n2), n1):
        merged = [None] * (n1 + n2)
        for i, p in enumerate(positions):
            merged[p] = w1[i]
        it = iter(w2)
        for p in range(n1 + n2):
            if merged[p] is None:
                merged[p] = next(it)
        w = tuple(merged)
        out[w] = out.get(w, 0) + 1
    return tuple(sorted(out.items()))


def _last_block(w: Word) -> tuple[Word, int]:
    """Split an H1 word as (head, k) where the word ends in e1 e0^(k-1)."""
    i = len(w) - 1
    while w[i] == E0:
        i -= 1
    return w[:i], len(w) - i


@cache
def _harmonic_words(w1: Word, w2: Word) -> tuple:
    """Quasi-shuffle structure constants for two H1 words.

    Recursion on the last index blocks:
    u.B(k) * v.B(l) = (u.B(k) * v).B(l) + (u * v.B(l)).B(k) - (u * v).B(k+l).
    """
    if not w1:
        return ((w2, 1),)
    if not w2:
        return ((w1, 1),)
    if w2 < w1:
        w1, w2 = w2, w1
    u1, k = _last_block(w1)
    u2, l = _last_block(w2)
    out = NcPoly()
    for terms, suffix_k, sign in ((_harmonic_words(w1, u2), l, 1),
                                  (_harmonic_words(u1, w2), k, 1),
                                  (_harmonic_words(u1, u2), k + l, -1)):
        suffix = (E1,) + (E0,) * (suffix_k - 1)
        out._accumulate((w + suffix, sign * c) for w, c in terms)
    return tuple(sorted(out.terms.items()))


def _bilinear(kernel, u: NcPoly, v: NcPoly) -> NcPoly:
    out = NcPoly()
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            c = c1 * c2
            out._accumulate((w, c * m) for w, m in kernel(w1, w2))
    return out


def shuffle(u: NcPoly, v: NcPoly) -> NcPoly:
    return _bilinear(_shuffle_words, u, v)


def harmonic(u: NcPoly, v: NcPoly) -> NcPoly:
    for p in (u, v):
        if not p.support_in_h1():
            raise ValueError("harmonic product requires operands supported on H1 words")
    return _bilinear(_harmonic_words, u, v)


HARMONIC = "harmonic"
SHUFFLE = "shuffle"


def product_fn(tag: str):
    if tag == HARMONIC:
        return harmonic
    if tag == SHUFFLE:
        return shuffle
    raise ValueError(f"unknown product tag {tag!r}")


def index_harmonic(k: Index, l: Index) -> IndexCombination:
    """The stuffle k * l as an index combination, via the signed embedding."""
    return extract_combination(harmonic(embed(k), embed(l)))


def index_shuffle(k: Index, l: Index) -> IndexCombination:
    return extract_combination(shuffle(embed(k), embed(l)))


# ---------------------------------------------------------------------------
# truncated geometric tails and the shifted shuffle
# ---------------------------------------------------------------------------

def _bs_mono(q: Fraction, var: str, power: int, orders: tuple[int, int]) -> BiSeries:
    ms, mt = orders
    i, j = (power, 0) if var == "s" else (0, power)
    return BiSeries.monomial(Fraction(q), i, j, ms, mt)


def lift_biseries(u: NcPoly, orders: tuple[int, int]) -> NcPoly:
    """Reinterpret rational coefficients as constant (s,t)-series."""
    ms, mt = orders
    return u.map_coeffs(lambda c: BiSeries.constant(Fraction(c), ms, mt))


def geometric(sign: int, letter: int, var: str, orders: tuple[int, int]) -> NcPoly:
    """(1 + sign * e_letter * var)^(-1) truncated: sum (-sign)^j e^j var^j."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    bound = orders[0] if var == "s" else orders[1]
    terms = {}
    for j in range(bound + 1):
        terms[(letter,) * j] = _bs_mono(Fraction((-sign) ** j), var, j, orders)
    return NcPoly(terms)


def linear_factor(sign: int, letter: int, var: str, orders: tuple[int, int]) -> NcPoly:
    """(1 + sign * e_letter * var) as a word polynomial."""
    return NcPoly({
        (): _bs_mono(Fraction(1), var, 0, orders),
        (letter,): _bs_mono(Fraction(sign), var, 1, orders),
    })


def shuffle_shifted(u: NcPoly, v: NcPoly, orders: tuple[int, int]) -> NcPoly:
    """The s-shifted shuffle (1 - e0 s)(u sh (1 - e0 s)^(-1) v).

    Operands must carry BiSeries coefficients at the same orders.
    """
    g = geometric(-1, E0, "s", orders)
    pre = linear_factor(-1, E0, "s", orders)
    return pre * shuffle(u, g * v)


def telescope_sides(w: Word, orders: tuple[int, int]) -> tuple[NcPoly, NcPoly]:
    """Both sides of the telescoping shuffle identity for a word w.

    The alternating sum over split points v of

        (1+e0 t)^(-1) e1 w[:v]  sh  (1-e0 s)^(-1) e1 reverse(w[v:])

    collapses to two boundary terms:

        (1+e0 t)^(-1) sh ((1-e0 s)^(-1) e1 rev(w) e1 (1-e0 t)^(-1))
        + (-1)^len(w) (1-e0 s)^(-1) sh ((1+e0 t)^(-1) e1 w e1 (1+e0 s)^(-1)).

    Returned as exact polynomials over rational (s,t)-grids.
    """
    w = tuple(w)
    n = len(w)
    gt_plus = geometric(1, E0, "t", orders)
    gt_minus = geometric(-1, E0, "t", orders)
    gs_plus = geometric(1, E0, "s", orders)
    gs_minus = geometric(-1, E0, "s", orders)
    e1 = NcPoly.from_word((E1,))

    lhs = NcPoly()
    for v in range(n + 1):
        left = gt_plus * NcPoly.from_word((E1,) + w[:v])
        right = gs_minus * NcPoly.from_word((E1,) + w[v:][::-1])
        lhs += shuffle(left, right).scale(Fraction((-1) ** v))

    rhs = shuffle(gt_plus, gs_minus * e1 * NcPoly.from_word(w[::-1]) * e1 * gt_minus)
    rhs += shuffle(gs_minus, gt_plus * e1 * NcPoly.from_word(w) * e1 * gs_plus).scale(
        Fraction((-1) ** n))
    return lhs, rhs


def sigma_t(u: NcPoly, order: int) -> NcPoly:
    """Ring endomorphism e_i -> e_i (1 + e0 t)^(-1), truncated at t^order.

    Expands each letter into e_i e0^j (-t)^j and multiplies out; the input
    must have rational coefficients.
    """
    orders = (0, order)
    out = NcPoly()
    for w, c in u.terms.items():
        n = len(w)
        for extra in itertools.product(range(order + 1), repeat=n):
            total = sum(extra)
            if total > order:
                continue
            new = []
            for letter, j in zip(w, extra):
                new.append(letter)
                new.extend([E0] * j)
            out.add_term(tuple(new), _bs_mono(Fraction(c) * (-1) ** total, "t", total, orders))
    return out


# ---------------------------------------------------------------------------
# Hopf structure on H1 (deconcatenation coproduct for the stuffle algebra)
# ---------------------------------------------------------------------------

def coproduct(u: NcPoly) -> dict[tuple[Word, Word], object]:
    """Deconcatenation at index boundaries: e_k -> sum e_head (x) e_tail."""
    out = LinearCombination()
    for w, c in u.terms.items():
        idx = index_of_word(w)
        for i in range(idx.depth + 1):
            out.add_term((word_of_index(Index(idx[:i])), word_of_index(Index(idx[i:]))), c)
    return out.terms


def counit(u: NcPoly):
    c = u.terms.get(())
    return c if c is not None else Fraction(0)


def antipode(u: NcPoly) -> NcPoly:
    """e_k -> sum over coarsenings l of k of (-1)^depth(l) e_reverse(l)."""
    out = NcPoly()
    for w, c in u.terms.items():
        idx = index_of_word(w)
        for l in coarsenings(idx):
            out.add_term(word_of_index(reverse(l)), Fraction((-1) ** l.depth) * c)
    return out


# ---------------------------------------------------------------------------
# letter endomorphisms
# ---------------------------------------------------------------------------

def endo_tau(u: NcPoly) -> NcPoly:
    """Swap e0 and e1."""
    return u.subst(SWAP)


def endo_S(u: NcPoly, tau: Fraction) -> NcPoly:
    """Algebra endomorphism e1 -> e1 + tau e0, e0 -> e0."""
    return u.subst({E0: ((E0, 1),), E1: ((E1, 1), (E0, Fraction(tau)))})


def endo_A(u: NcPoly, tau: Fraction) -> NcPoly:
    """Algebra endomorphism e1 -> tau e0, e0 -> e0."""
    return u.subst({E0: ((E0, 1),), E1: ((E0, Fraction(tau)),)})


def endo_C(u: NcPoly) -> NcPoly:
    """Sum of all letter rotations of each word; the empty word maps to 0."""
    out = NcPoly()
    for w, c in u.terms.items():
        for j in range(1, len(w) + 1):
            out.add_term(w[j:] + w[:j], c)
    return out


def endo_H(u: NcPoly) -> NcPoly:
    """Strip a leading e1; words starting with e0 (and 1) map to 0."""
    out = NcPoly()
    for w, c in u.terms.items():
        if w and w[0] == E1:
            out.add_term(w[1:], c)
    return out
