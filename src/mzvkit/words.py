"""Noncommutative words over two letters and the products on them.

Words live over the letters ``E0`` and ``E1`` (encoded 0 and 1).  A word is
in H1 when it is empty or starts with E1, and in H0 when it is empty or
starts with E1 and ends with E0.  An index k = (k1,...,kr) corresponds to
the word ``e1 e0^(k1-1) ... e1 e0^(kr-1)``; its signed image ``embed``
carries the sign (-1)^depth.

``NcPoly`` is a finitely supported map from words to coefficients in a
pluggable scalar ring (anything with +, -, *, bool), on the sparse core
``rings.LinearCombination``.  Its ``*`` is concatenation; ``subst``, ``eps``
and ``reverse`` are its letter maps.  ``subst`` runs letter by letter on
word codes 2^len(w) + bits(w) (``_subst_codes``, also under ``NcSeries``),
so words that agree after a letter is replaced are summed before the next
letter expands.  The harmonic (quasi-shuffle) and shuffle products are the
bilinear maps :func:`harmonic` and :func:`shuffle`, with integer structure constants
computed once per word pair and cached.  The shuffle constants come from the
recursion on last letters, ua sh vb = (u sh vb) a + (ua sh v) b, as the
stuffle of ``indices.stuffle`` does on parts; the harmonic constants are
those of ``indices.stuffle``, carried through the signed embedding.  An
``NcPoly`` prints as the core's ``repr``: its type name and terms.
"""

from __future__ import annotations

from functools import cache

from .indices import Index, coarsenings, reverse, stuffle, trusted_index
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


def code_of_word(w: Word) -> int:
    """The code 2^len(w) + bits(w) of a word, its first letter highest."""
    return int("".join(map(str, (1, *w))), 2)


def word_of_code(code: int) -> Word:
    return tuple(map(int, bin(code)[3:]))


def reversed_code(code: int) -> int:
    """The code of the reversed word."""
    return int("1" + bin(code)[:2:-1], 2)


def _subst_codes(terms: dict, images: dict) -> dict:
    """``NcPoly.subst`` on a map code -> coefficient.  The images keep lengths,
    so pass q replaces bit q (the q-th letter from the end) of every word
    longer than q, and the words that then agree are summed."""
    flips = {a: tuple((b != a, m) for b, m in img) for a, img in images.items()}

    def expand(terms, bit):
        for code, c in terms.items():       # a word of at most q letters is kept
            for flip, m in flips[1 if code & bit else 0] if code >= bit << 1 else ((False, 1),):
                yield code ^ bit if flip else code, c if m == 1 else c * m

    terms = dict(terms)
    for q in range(max(terms, default=1).bit_length() - 1):
        terms = LinearCombination()._accumulate(expand(terms, 1 << q)).terms
    return terms


def index_of_word(w: Word) -> Index:
    """Parse an H1 word back into its index; every part is at least 1."""
    if not in_h1(w):
        raise ValueError(f"word {w} does not start with e1")
    parts = []
    for letter in w:
        if letter == E1:
            parts.append(1)
        else:
            parts[-1] += 1
    return trusted_index(tuple(parts))


class NcPoly(LinearCombination):
    """Finitely supported noncommutative polynomial over {e0, e1}."""

    __slots__ = ()

    @classmethod
    def from_word(cls, w: Word, coeff=1) -> "NcPoly":
        return cls({tuple(w): coeff})

    @classmethod
    def one(cls, coeff=1) -> "NcPoly":
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
        terms = _subst_codes({code_of_word(w): c for w, c in self.terms.items()}, images)
        return self._new({word_of_code(code): c for code, c in terms.items()})

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


def embed(k: Index) -> NcPoly:
    """The signed word (-1)^depth e_k of an index."""
    return NcPoly.from_word(word_of_index(k), (-1) ** k.depth)


# ---------------------------------------------------------------------------
# shuffle and harmonic structure constants
# ---------------------------------------------------------------------------

@cache
def _shuffle_words(w1: Word, w2: Word) -> tuple:
    """Integer-weighted interleavings of two words, by the recursion on last
    letters ua sh vb = (u sh vb) a + (ua sh v) b."""
    if not w1 or not w2:
        return ((w1 + w2, 1),)
    out = {w + w1[-1:]: c for w, c in _shuffle_words(w1[:-1], w2)}
    for w, c in _shuffle_words(w1, w2[:-1]):
        w += w2[-1:]
        out[w] = out.get(w, 0) + c
    return tuple(sorted(out.items()))


@cache
def _harmonic_words(w1: Word, w2: Word) -> tuple:
    """Quasi-shuffle structure constants for two H1 words: the stuffle of
    their indices, signed as e_k * e_l = (-1)^(d_k+d_l) sum c (-1)^d_m e_m."""
    k, l = index_of_word(w1), index_of_word(w2)
    sign = (-1) ** (k.depth + l.depth)
    return tuple(sorted((word_of_index(m), sign * (-1) ** m.depth * c) for m, c in stuffle(k, l)))


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


# ---------------------------------------------------------------------------
# truncated geometric tails and the shifted shuffle
# ---------------------------------------------------------------------------

def lift_biseries(u: NcPoly, orders: tuple[int, int]) -> NcPoly:
    """Reinterpret rational coefficients as constant (s,t)-series."""
    ms, mt = orders
    return u.map_coeffs(lambda c: BiSeries.constant(c, ms, mt))


def geometric(sign: int, var: str, orders: tuple[int, int]) -> NcPoly:
    """(1 + sign * e0 * var)^(-1) truncated: sum (-sign)^j e0^j var^j."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    bound = orders[0] if var == "s" else orders[1]
    terms = {}
    for n in range(bound + 1):
        i, j = (n, 0) if var == "s" else (0, n)
        terms[(E0,) * n] = BiSeries.monomial((-sign) ** n, i, j, *orders)
    return NcPoly(terms)


def shuffle_shifted(u: NcPoly, v: NcPoly, orders: tuple[int, int]) -> NcPoly:
    """The s-shifted shuffle (1 - e0 s)(u sh (1 - e0 s)^(-1) v).

    Operands must carry BiSeries coefficients at the same orders.
    """
    pre = NcPoly({(): BiSeries.constant(1, *orders), (E0,): BiSeries.monomial(-1, 1, 0, *orders)})
    return pre * shuffle(u, geometric(-1, "s", orders) * v)


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
    gt_plus = geometric(1, "t", orders)
    gt_minus = geometric(-1, "t", orders)
    gs_plus = geometric(1, "s", orders)
    gs_minus = geometric(-1, "s", orders)
    e1 = NcPoly.from_word((E1,))

    lhs = NcPoly()
    for v in range(n + 1):
        left = gt_plus * NcPoly.from_word((E1,) + w[:v])
        right = gs_minus * NcPoly.from_word((E1,) + w[v:][::-1])
        lhs += shuffle(left, right).scale((-1) ** v)

    rhs = shuffle(gt_plus, gs_minus * e1 * NcPoly.from_word(w[::-1]) * e1 * gt_minus)
    rhs += shuffle(gs_minus, gt_plus * e1 * NcPoly.from_word(w) * e1 * gs_plus).scale(
        (-1) ** n)
    return lhs, rhs


def sigma_t(u: NcPoly, order: int) -> NcPoly:
    """Ring endomorphism e_i -> e_i (1 + e0 t)^(-1), truncated at t^order.

    Each word is the product of the images of its letters, and the truncating
    (s,t)-series product drops every term beyond t^order as it goes; the
    input must have rational coefficients.
    """
    orders = (0, order)
    tail = geometric(1, "t", orders)
    out = NcPoly()
    for w, c in lift_biseries(u, orders).terms.items():
        term = NcPoly.one(c)
        for a in w:
            term = term * NcPoly.from_word((a,)) * tail
        out += term
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


def antipode(u: NcPoly) -> NcPoly:
    """e_k -> sum over coarsenings l of k of (-1)^depth(l) e_reverse(l)."""
    out = NcPoly()
    for w, c in u.terms.items():
        idx = index_of_word(w)
        for l in coarsenings(idx):
            out.add_term(word_of_index(reverse(l)), (-1) ** l.depth * c)
    return out
