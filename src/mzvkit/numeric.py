"""High-precision numerical evaluation of multiple zeta values.

The evaluator splits the iterated-integral representation of an admissible
index at the midpoint 1/2.  Each piece is a multiple polylogarithm at 1/2,
a geometrically convergent nested series (ratio 1/2), so ``prec`` digits
need about 3.33*prec terms.  The reflected upper piece swaps the two
letters and reverses, which keeps every piece convergent exactly when the
index is admissible.  Each piece is summed in Python-int fixed point, and
the exact sum of their products becomes an mpf once, at the end.  Each
nesting level is one pass over the level of the parent composition, held
in a bounded memo, so pieces that share a prefix share its sums.

Computed values are memoised as decimal strings keyed by the key text of
their record, ``k=2,1,3;prec=40``; a ``ValueCache`` can persist them as one
sorted record per line.  A loaded record is kept as it is read: one pattern
accepts only the canonical form that ``save`` writes, and one multiline
match of it reads a whole store, so loading parses no number.  ``mzv``
looks its string up in the store on every call but parses each string to an
mpf only once.

``residual`` is the one measure of every relation checker: the largest
|lhs - rhs| over the entries of the difference.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, repeat

import mpmath
from mpmath import mp

from .indices import Index, coarsenings
from .rings import LinearCombination, ZetaPoly

DEFAULT_PREC = 40
MIN_PREC = 15
_GUARD = 15


def tolerance(prec: int):
    """Residual tolerance 10^-(prec-10) used by all relation checkers."""
    with mp.workdps(prec + _GUARD):
        return mp.mpf(10) ** (10 - prec)


def to_mp(x):
    """Exact conversion of rationals and ints to the working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    if isinstance(x, int):
        return mp.mpf(x)
    return x


class CacheFormatError(ValueError):
    pass


# A record exactly as ``save`` writes it: the key text (index parts >= 1
# without leading zeros, the last >= 2; prec >= MIN_PREC = 15 without a
# leading zero), then a decimal value, which cannot be NaN or infinite.
_DECIMAL = r"-?[0-9]+(?:\.[0-9]*)?(?:e[-+]?[0-9]+)?"
_RECORD = re.compile(r"(k=(?:(?:[1-9][0-9]*,)*(?:[2-9]|[1-9][0-9]+))?"
                     rf";prec=(?:1[5-9]|[2-9][0-9]|[1-9][0-9]{{2,}}));value=({_DECIMAL})")
# Every line of a store that is one record, with the whitespace around it
# that ``load`` strips; a record holds no whitespace, so a store of records
# and blank lines has as many whitespace-separated words as records.
_RECORD_LINES = re.compile(rf"^[^\S\n]*{_RECORD.pattern}[^\S\n]*$", re.MULTILINE)


def _key(k, prec: int) -> str:
    """The key text of the record of (k, prec): ``k=2,1,3;prec=40``."""
    return f"k={','.join(map(str, k))};prec={prec}"


def _bad_record(line: str) -> str:
    """Why a line that ``_RECORD`` refuses is not a record."""
    fields = line.split(";")
    if [field.partition("=")[0] for field in fields] != ["k", "prec", "value"]:
        return "unknown field name"
    if not re.fullmatch(_DECIMAL, fields[2][6:]):
        return "value is not a finite decimal"
    return "not a value that mzv stores"


class ValueCache:
    """Decimal-string store of ``mzv`` values, keyed by the key text of their
    records (``k=2,1,3;prec=40``), so a loaded line is kept as it is read."""

    def __init__(self):
        self.records: dict[str, str] = {}

    def get(self, k, prec: int) -> str | None:
        return self.records.get(_key(k, prec))

    def put(self, k, prec: int, value: str) -> None:
        self.records[_key(k, prec)] = value

    def clear(self) -> None:
        self.records.clear()

    def load(self, path: str) -> int:
        """Add the records of the store at ``path``; return how many it holds.

        One multiline match reads a store of records and blank lines.  Any
        other line makes the counts disagree; the store then adds nothing,
        and a pass over the lines names the first bad one and why it is not
        a record."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        found = _RECORD_LINES.findall(text)
        if len(found) != len(text.split()):
            for lineno, line in enumerate(text.split("\n"), start=1):
                line = line.strip()
                if line and _RECORD.fullmatch(line) is None:
                    raise CacheFormatError(
                        f"line {lineno}: malformed cache record {line!r}: {_bad_record(line)}")
        self.records.update(found)
        return len(found)

    def save(self, path: str) -> int:
        """Write the store to a temporary file beside ``path``, then rename it
        over ``path``: readers and a crash midway see the old or the new store,
        never a torn one, and concurrent savers leave one complete store."""
        lines = self.lines()
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return len(lines)

    def lines(self) -> list[str]:
        """The records in their file format, by weight, then index, then prec."""
        def order(key: str):
            parts, _, prec = key[2:].partition(";prec=")
            k = tuple(map(int, parts.split(","))) if parts else ()
            return sum(k), k, int(prec)
        return [f"{key};value={self.records[key]}" for key in sorted(self.records, key=order)]


CACHE = ValueCache()


def _bits(prec: int) -> int:
    return math.ceil(math.log2(10) * (prec + _GUARD)) + 32


@lru_cache(maxsize=32)
def _level(comp: tuple, prec: int) -> list[int]:
    """The innermost nesting level of ``comp`` at n = 1 .. N, in fixed point."""
    parent, c = comp[:-1], comp[-1]
    sums = accumulate(_level(parent, prec), initial=0) if parent else repeat(1 << _bits(prec))
    return [s // n ** c for s, n in zip(sums, range(1, int(3.322 * (prec + 12)) + 17))]


@cache
def _li_half(comp: tuple, prec: int) -> int:
    """Multiple polylogarithm of a composition at 1/2, as an int scaled by
    2^bits, bits = ``_bits(prec)``.

    Sum over 0 < n_1 < ... < n_q of 2^(-n_q) / prod n_j^(c_j), summed to
    N = ceil(3.33 (prec+12)) + 16 terms; the tail is below (N+2) 2^(1-N).

    Level j at n (``_level``) is the floor quotient by n^(c_j) of level j-1's
    sum over m < n, and level j-1 is the memoised level of the parent
    composition; 2^(-n) is a right shift.  The floors lose at most N (q+1)
    units of 2^-bits, which 32 guard bits beyond prec + _GUARD digits absorb.
    The level memo keeps 32 lists, enough for the pieces of one index to
    reach their parents; an unbounded memo is faster on a long cold table but
    holds megabytes.  As a functools cache it is emptied with the others.
    """
    if not comp:
        return 1 << _bits(prec)
    for j in range(1, len(comp)):   # parents first, so no level recurses deeply
        _level(comp[:j], prec)
    return sum(term >> n for n, term in enumerate(_level(comp, prec), start=1))


def _prefixes(k: tuple) -> list[tuple]:
    """The index of each prefix of k's word, shortest first: (), then
    k[:j] + (m,) for each part k[j] and 1 <= m <= k[j]."""
    return [()] + [k[:j] + (m,) for j, p in enumerate(k) for m in range(1, p + 1)]


def _dual(k: tuple) -> tuple:
    """The index whose word is k's word reversed with e0 and e1 swapped: each
    part p of k, last first, adds p - 1 parts 1 and then 1 to the last part."""
    parts: list[int] = []
    for p in reversed(k):
        parts += [1] * (p - 1)
        parts[-1] += 1
    return tuple(parts)


def _mzv_compute(k: Index, prec: int) -> mpmath.mpf:
    # the split of k's word w after i letters: the index of w[:i] and the
    # index of the reflected w[i:], which is the dual's prefix of n - i letters
    lower, upper = _prefixes(k), _prefixes(_dual(k))
    total = sum(_li_half(head, prec) * _li_half(tail, prec)
                for head, tail in zip(lower, reversed(upper)))
    with mp.workdps(prec + _GUARD):
        return mp.mpf((total, -2 * _bits(prec)))


def mzv(k, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """zeta(k) for an admissible index, rounded to prec significant digits,
    so |error| <= 10^(1-prec) |zeta(k)| (no guard digits are kept)."""
    k = Index(k)
    if not k.admissible:
        raise ValueError(f"index {k} is not admissible; the series diverges")
    if prec < MIN_PREC:
        raise ValueError(f"prec must be at least {MIN_PREC}")
    if k.depth == 0:
        return mp.mpf(1)
    cached = CACHE.get(k, prec)
    if cached is None:
        with mp.workdps(prec + _GUARD):
            value = _mzv_compute(k, prec)
            cached = mp.nstr(value, prec, strip_zeros=False)
        CACHE.put(k, prec, cached)
    return _value_of(cached, prec)


@cache
def _value_of(text: str, prec: int) -> mpmath.mpf:
    """A store string as an mpf at the working precision, parsed once."""
    with mp.workdps(prec + _GUARD):
        return mp.mpf(text)


def mzv_star(k, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """Star value: the sum of zeta over all coarsenings of the index."""
    k = Index(k)
    with mp.workdps(prec + _GUARD):
        return mp.fsum(mzv(l, prec) for l in coarsenings(k))


def eval_zeta_poly(p: ZetaPoly, t_values: dict, prec: int = DEFAULT_PREC):
    """Evaluate a ZetaPoly, sending Z[k] to mzv(k) and T-symbols to values.

    Every T-symbol occurring in ``p`` must have an assigned value.
    """
    with mp.workdps(prec + _GUARD):
        total = mp.mpf(0)
        for (zpart, tpart), c in p.terms.items():
            term = to_mp(c)
            for idx, e in zpart:
                term *= mzv(idx, prec) ** e
            for name, e in tpart:
                if name not in t_values:
                    raise ValueError(f"no value bound for symbol {name}")
                term *= to_mp(t_values[name]) ** e
            total += term
        return total


def residual(lhs, rhs, prec: int) -> mpmath.mpf:
    """The largest |lhs - rhs| over the entries of the difference.

    The sides are numbers, ``ZetaPoly``s, or sparse series of either (a
    ``LinearCombination`` that is not a ``ZetaPoly``, such as a ``BiSeries``,
    compared coefficient by coefficient through its ``largest``; an absent
    term is 0 and cannot raise the maximum).  ``ZetaPoly``s are
    subtracted exactly and compared coefficient by coefficient in the
    T-symbols: the zeta part of each T-monomial is evaluated on its own, so
    an identity between polynomials in T, T1, T2 holds for every value of
    them, not at one point.  The subtraction and the comparison run at
    prec + _GUARD digits.  A NaN entry anywhere makes the residual NaN,
    which passes no tolerance.
    """
    with mp.workdps(prec + _GUARD):
        diff = lhs - rhs
        if isinstance(diff, LinearCombination) and not isinstance(diff, ZetaPoly):
            entries = diff.largest()
        else:
            entries = (diff,)
        worst = mp.mpf(0)
        for entry in entries:
            values = _t_coefficients(entry, prec) if isinstance(entry, ZetaPoly) else (entry,)
            for value in values:
                size = abs(value)
                if mp.isnan(size):
                    return size
                worst = max(worst, size)
        return worst


def _t_coefficients(p: ZetaPoly, prec: int):
    """The value of the zeta part of each T-monomial of ``p``."""
    parts: dict[tuple, dict] = {}
    for (zpart, tpart), c in p.terms.items():
        parts.setdefault(tpart, {})[(zpart, ())] = c
    return (eval_zeta_poly(ZetaPoly(part), {}, prec) for part in parts.values())


def pi_val(prec: int = DEFAULT_PREC) -> mpmath.mpf:
    with mp.workdps(prec + _GUARD):
        return +mp.pi
