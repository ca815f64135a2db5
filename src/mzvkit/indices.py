"""Indices of multiple zeta values and their combinatorics.

An index is a finite tuple of positive integers.  It is *admissible* when it
is empty or its last entry is at least 2 (so the attached nested series
converges).  This module holds the index type plus the combinatorial maps
used everywhere else: reversal, splitting, the componentwise shifts of a
given total with their binomial weights (every shift sum and, at total 1,
the one-letter recursion of regularized values run over these),
the stuffle (harmonic) product of two indices (every stuffle in mzvkit,
the word-level harmonic product included, reads it), the shuffle (1) sh k
of the product recursion of regularized values, Hoffman duality,
coarsenings (comma-to-plus merges), cyclic rotations and the glued
concatenation.
"""

from __future__ import annotations

import re
from functools import cache
from math import comb
from typing import Iterable


class Index(tuple):
    """A finite sequence of positive integers."""

    def __new__(cls, parts: Iterable[int] = ()) -> "Index":
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"index parts must be positive integers, got {p!r}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def admissible(self) -> bool:
        return len(self) == 0 or self[-1] >= 2

    def __repr__(self) -> str:
        return f"Index({tuple(self)})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self) + ")"


EMPTY = Index()


def trusted_index(parts: tuple) -> Index:
    """An Index of parts that are positive ints by construction, built
    without checking them again."""
    return tuple.__new__(Index, parts)


def parse_index(text: str) -> Index:
    """Parse the literal form ``(k1,k2,...)``; ``()`` is the empty index.

    Parts are written in ASCII digits only."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"index literal must look like (k1,k2,...), got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return EMPTY
    parts = []
    for piece in inner.split(","):
        piece = piece.strip()
        if not re.fullmatch(r"[0-9]+", piece):
            raise ValueError(f"index part {piece!r} is not a positive integer")
        parts.append(int(piece))
    return Index(parts)


def reverse(k: Index) -> Index:
    return Index(k[::-1])


def split(k: Index, i: int) -> tuple[Index, Index]:
    """Return the head/tail pair (first ``i`` parts, remaining parts)."""
    if not 0 <= i <= len(k):
        raise IndexError(f"split position {i} out of range for depth {len(k)}")
    return Index(k[:i]), Index(k[i:])


def concat(*indices: Iterable[int]) -> Index:
    out: list[int] = []
    for k in indices:
        out.extend(k)
    return Index(out)


def shifts(k: Index, n: int) -> list[tuple[Index, int]]:
    """Every shift k + m with m >= 0 componentwise and |m| = n, paired with
    its weight b(k; m) = prod C(k_i + m_i - 1, m_i); m_1 ascends first.

    The empty index has the one shift () at n = 0 and none above.  A shift
    keeps every part of k positive, so no shift is checked again.
    """
    partial = [((), 1, n)]      # (shifted parts so far, their weight, n left)
    last = len(k) - 1
    for i, a in enumerate(k):
        partial = [(parts + (a + m,), b * comb(a + m - 1, m), left - m)
                   for parts, b, left in partial
                   for m in ((left,) if i == last else range(left + 1))]
    return [(trusted_index(parts), b) for parts, b, left in partial if left == 0]


@cache
def stuffle(k: Index, l: Index) -> tuple[tuple[Index, int], ...]:
    """The stuffle k * l as (index, coefficient) pairs, by the recursion on
    last parts (k,a) * (l,b) = (k * (l,b), a) + ((k,a) * l, b) + (k * l, a+b).

    The recursion reaches k * () and () * l, where k and l are checked, so
    the parts it appends are not checked again."""
    if not k or not l:
        return ((Index(k or l), 1),)
    out: dict[Index, int] = {}
    for terms, last in ((stuffle(k[:-1], l), k[-1]), (stuffle(k, l[:-1]), l[-1]),
                        (stuffle(k[:-1], l[:-1]), k[-1] + l[-1])):
        for m, c in terms:
            m = trusted_index(m + (last,))
            out[m] = out.get(m, 0) + c
    return tuple(out.items())


def shuffle_one(head: Index) -> dict[Index, int]:
    """(1) sh head on indices: e1 goes in at each letter position of the word
    of head, which prepends a part 1 or splits a part p into (m + 1, p - m).
    Both keep every part positive, so no term is checked again."""
    out = {trusted_index((1,) + head): 1}
    for i, p in enumerate(head):
        for m in range(p):
            l = trusted_index(head[:i] + (m + 1, p - m) + head[i + 1:])
            out[l] = out.get(l, 0) + 1
    return out


def hoffman_dual(k: Index) -> Index:
    """Swap commas and pluses in the all-ones expansion of a non-empty index:
    each comma of k adds 1 to the current part, and each part p of k then
    appends p - 1 parts 1."""
    if len(k) == 0:
        raise ValueError("the empty index has no dual")
    parts = [1] * k[0]
    for p in k[1:]:
        parts[-1] += 1
        parts += [1] * (p - 1)
    return Index(parts)


def coarsenings(k: Index) -> list[Index]:
    """All 2^(depth-1) indices obtained by merging adjacent parts.

    Separator ``i`` (between parts i and i+1, zero-based) is merged when bit
    ``i`` of the enumeration mask is set, so the original index comes first
    and the full merge last.  The empty index has itself as sole coarsening.
    """
    r = len(k)
    if r == 0:
        return [EMPTY]
    out = []
    for mask in range(1 << (r - 1)):
        parts = [k[0]]
        for i in range(1, r):
            if mask >> (i - 1) & 1:
                parts[-1] += k[i]
            else:
                parts.append(k[i])
        out.append(Index(parts))
    return out


def cyclic_class(k: Index) -> list[Index]:
    """The depth(k) rotations (tail, head), kept with multiplicity.

    Rotation ``i`` moves the first ``i`` parts to the back, for i = 1..depth.
    """
    return [concat(k[i:], k[:i]) for i in range(1, len(k) + 1)]


def uplus(k: Index, l: Index) -> Index:
    """Concatenation with the touching parts glued: last of k + first of l."""
    if len(k) == 0 or len(l) == 0:
        raise ValueError("uplus needs two non-empty indices")
    return Index(k[:-1] + (k[-1] + l[0],) + l[1:])

