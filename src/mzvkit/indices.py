"""Indices of multiple zeta values and their combinatorics.

An index is a finite tuple of positive integers.  It is *admissible* when it
is empty or its last entry is at least 2 (so the attached nested series
converges).  This module holds the index type plus the combinatorial maps
used everywhere else: reversal, splitting, componentwise shifts, Hoffman
duality, coarsenings (comma-to-plus merges), cyclic rotations and the glued
concatenation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator

from .rings import LinearCombination


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


def parse_index(text: str) -> Index:
    """Parse the literal form ``(k1,k2,...)``; ``()`` is the empty index."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"index literal must look like (k1,k2,...), got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return EMPTY
    parts = []
    for piece in inner.split(","):
        piece = piece.strip()
        if not piece.isdigit():
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


def oplus(k: Index, n: tuple[int, ...]) -> Index:
    """Componentwise sum of an index and a same-length tuple of shifts >= 0."""
    if len(k) != len(n):
        raise ValueError(f"shape mismatch: depth {len(k)} vs tuple length {len(n)}")
    if any(m < 0 for m in n):
        raise ValueError("shift entries must be nonnegative")
    return Index(a + b for a, b in zip(k, n))


def b_coeff(k: Index, n: tuple[int, ...]) -> int:
    """Product of binomials C(k_i + n_i - 1, n_i) over the components."""
    if len(k) != len(n):
        raise ValueError(f"shape mismatch: depth {len(k)} vs tuple length {len(n)}")
    out = 1
    for a, b in zip(k, n):
        if b < 0:
            raise ValueError("shift entries must be nonnegative")
        out *= comb(a + b - 1, b)
    return out


def compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``length`` nonnegative integers summing to ``total``."""
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, length - 1):
            yield (first,) + rest


def hoffman_dual(k: Index) -> Index:
    """Swap commas and pluses in the all-ones expansion of a non-empty index.

    Writing k as 1+...+1 blocks separated by commas, the separators sit at
    the partial sums of k; the dual takes the complementary separator set.
    """
    if len(k) == 0:
        raise ValueError("the empty index has no dual")
    w = k.weight
    cuts = set()
    acc = 0
    for p in k[:-1]:
        acc += p
        cuts.add(acc)
    dual_cuts = sorted(set(range(1, w)) - cuts)
    parts = []
    prev = 0
    for c in dual_cuts + [w]:
        parts.append(c - prev)
        prev = c
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


class IndexCombination(LinearCombination):
    """A finitely supported rational linear combination of indices."""

    __slots__ = ()

    def __init__(self, terms: dict[Index, Fraction] | None = None):
        super().__init__({Index(idx): Fraction(c) for idx, c in (terms or {}).items()})

    @classmethod
    def single(cls, k: Index, c: Fraction | int = 1) -> "IndexCombination":
        return cls({Index(k): Fraction(c)})

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].weight, kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{idx}" for idx, c in self.items())
