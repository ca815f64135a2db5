"""High-precision numerical evaluation of multiple zeta values.

The evaluator splits the iterated-integral representation of an admissible
index at the midpoint 1/2.  Each piece is a multiple polylogarithm at 1/2,
a geometrically convergent nested series (ratio 1/2), so ``prec`` digits
need about 3.33*prec terms.  The reflected upper piece swaps the two
letters and reverses, which keeps every piece convergent exactly when the
index is admissible.  Each piece is summed in Python-int fixed point.  The
level of each prefix of a piece's word is one C-level ``map`` of floor
divisions by n over the level of the prefix one letter shorter, held in a
bounded memo of 128 levels, so pieces that share a prefix share its sums
and no level runs a Python frame per term.  The exact sum of the products
of the pieces is rounded once, by ``mpmath.libmp``, into the store string.

Computed values are memoised as decimal strings keyed by the key text of
their record, ``k=2,1,3;prec=40``; a ``ValueCache`` can persist them as one
sorted record per line.  A loaded record is kept as it is read: one pattern
accepts only the canonical form that ``save`` writes, and one multiline
match of it reads a whole store, so loading parses no number.  ``mzv``
looks its string up in the store on every call but parses each string only
once, into an int scaled by 2^bits (``_fixed``), and rounds its mpf from
that int by ``mpmath.libmp`` at prec + _GUARD digits, so neither a cold
value nor a stored one builds an intermediate mpf or switches the context.

``residual`` is the one measure of every relation checker: the largest
|lhs - rhs| over the entries of the difference.  The zeta part of each
T-coefficient of a ``ZetaPoly`` is summed exactly over those ints and
becomes an mpf once; ``eval_zeta_poly`` reads the same coefficients.
The associator's pairings read their products in Gaussian ints at 2^bits (``_SplitProduct``).
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, repeat
from operator import floordiv, rshift

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest, to_str

from .indices import Index, coarsenings
from .rings import ZetaPoly

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


def _terms(prec: int) -> range:
    """n = 1 .. N, the terms of every polylogarithm at 1/2 at ``prec``."""
    return range(1, int(3.322 * (prec + 12)) + 17)


def _prefixes(k: tuple) -> list[tuple]:
    """The index of each prefix of k's word, shortest first: (), then
    k[:j] + (m,) for each part k[j] and 1 <= m <= k[j]."""
    return [()] + [k[:j] + (m,) for j, p in enumerate(k) for m in range(1, p + 1)]


@lru_cache(maxsize=128)
def _level(comp: tuple, prec: int) -> list[int]:
    """The innermost nesting level of ``comp`` at n = 1 .. N, in fixed point:
    the level of its sibling with last part c - 1 floor-divided by n when
    c > 1, else the running sums of its parent's level floor-divided by n."""
    parent, c = comp[:-1], comp[-1]
    if c > 1:
        above = _level(parent + (c - 1,), prec)
    elif parent:
        above = accumulate(_level(parent, prec), initial=0)
    else:
        above = repeat(1 << _bits(prec))
    return list(map(floordiv, above, _terms(prec)))


@cache
def _li_half(comp: tuple, prec: int) -> int:
    """Multiple polylogarithm of a composition at 1/2, as an int scaled by
    2^bits, bits = ``_bits(prec)``.

    Sum over 0 < n_1 < ... < n_q of 2^(-n_q) / prod n_j^(c_j), summed to
    N = ceil(3.33 (prec+12)) + 16 terms; the tail is below (N+2) 2^(1-N).

    Level j at n (``_level``) is the floor quotient by n^(c_j) of level j-1's
    sum over m < n, taken as c_j floor divisions by n, one per letter of the
    word; floor(floor(S/n^(c-1))/n) = floor(S/n^c), so every int is the one
    a single division gives.  2^(-n) is a right shift.  The floors lose at
    most N (q+1) units of 2^-bits, which 32 guard bits beyond prec + _GUARD
    digits absorb.  The level memo keeps 128 lists, so the two chains of one
    value, the prefixes of its word and of its dual's, stay in it up to
    weight 64; a long table still evicts levels that later pieces need again,
    but an unbounded memo would hold some 300 MB at weight 16.  As a
    functools cache it is emptied with the others.
    """
    if not comp:
        return 1 << _bits(prec)
    for head in _prefixes(comp)[1:]:   # shortest first, so no level recurses deeply
        level = _level(head, prec)
    return sum(map(rshift, level, _terms(prec)))


def _dual(k: tuple) -> tuple:
    """The index whose word is k's word reversed with e0 and e1 swapped: each
    part p of k, last first, adds p - 1 parts 1 and then 1 to the last part."""
    parts: list[int] = []
    for p in reversed(k):
        parts += [1] * (p - 1)
        parts[-1] += 1
    return tuple(parts)


def _mzv_compute(k: Index, prec: int) -> int:
    """zeta(k) as an int scaled by 2^(2 bits), bits = ``_bits(prec)``: the
    exact sum of the products of the pieces of each split."""
    # the split of k's word w after i letters: the index of w[:i] and the
    # index of the reflected w[i:], which is the dual's prefix of n - i letters
    lower, upper = _prefixes(k), _prefixes(_dual(k))
    return sum(_li_half(head, prec) * _li_half(tail, prec)
               for head, tail in zip(lower, reversed(upper)))


def _rounded(fixed: int, bits: int, prec: int) -> tuple:
    """A fixed-point int scaled by 2^bits as a raw mpf rounded to nearest at
    prec + _GUARD digits, as ``mp.mpf((fixed, -bits))`` makes it there."""
    return from_man_exp(fixed, -bits, dps_to_prec(prec + _GUARD), round_nearest)


def _as_mpf(fixed, bits: int, prec: int) -> mpmath.mpf:
    """``_rounded`` as an mpf, whatever the working precision; anything but
    an int (None, NaN) is NaN."""
    return mp.make_mpf(_rounded(fixed, bits, prec)) if type(fixed) is int else mp.nan


def _scaled(x, bits: int):
    """round(x 2^bits) for an mpf x, from its mantissa and exponent; None if not finite."""
    sign, man, exp, _ = x._mpf_
    if not man:
        return None if exp else 0
    shift = exp + bits
    man = -man if sign else man
    return man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift


def _div(x, d: int):
    """round(x / d) for a fixed-point x and an int d > 0; NaN stays NaN."""
    return (2 * x + d) // (2 * d) if type(x) is int else x


def _number(re: int, im: int, bits: int):
    """(re + i im) 2^-bits: an mpf, or an mpc when im is not 0."""
    x = mp.mpf((re, -bits))
    return mp.mpc(x, mp.mpf((im, -bits))) if im else x


def _fixed_mzv(k, prec: int) -> int | None:
    """zeta(k) as its store string reads, an int scaled by 2^bits, bits =
    ``_bits(prec)``; None when the store holds no finite decimal for it.  A
    value missing from the store is computed and stored first."""
    k = Index(k)
    if not k.admissible:
        raise ValueError(f"index {k} is not admissible; the series diverges")
    if prec < MIN_PREC:
        raise ValueError(f"prec must be at least {MIN_PREC}")
    if k.depth == 0:
        return 1 << _bits(prec)
    text = CACHE.get(k, prec)
    if text is None:
        text = to_str(_rounded(_mzv_compute(k, prec), 2 * _bits(prec), prec), prec,
                      strip_zeros=False)
        CACHE.put(k, prec, text)
    return _fixed(text, prec)


@cache
def _fixed(text: str, prec: int) -> int | None:
    """A decimal string times 2^bits, bits = ``_bits(prec)``, rounded to the
    nearest int; None when the string is not a finite decimal."""
    if re.fullmatch(_DECIMAL, text) is None:
        return None
    mantissa, _, exponent = text.partition("e")
    whole, _, fraction = mantissa.partition(".")
    n, e = int(whole + fraction), int(exponent or 0) - len(fraction)
    if e >= 0:
        return n * 10 ** e << _bits(prec)
    return ((n << (_bits(prec) + 1)) // 10 ** -e + 1) >> 1


def mzv(k, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """zeta(k) for an admissible index, rounded to prec significant digits,
    so |error| <= 10^(1-prec) |zeta(k)| (no guard digits are kept)."""
    return _as_mpf(_fixed_mzv(k, prec), _bits(prec), prec)


def mzv_star(k, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """Star value: the sum of zeta over all coarsenings of the index."""
    k = Index(k)
    with mp.workdps(prec + _GUARD):
        return mp.fsum(mzv(l, prec) for l in coarsenings(k))


def eval_zeta_poly(p: ZetaPoly, t_values: dict, prec: int = DEFAULT_PREC):
    """Evaluate a ZetaPoly, sending Z[k] to mzv(k) and T-symbols to values:
    each T-coefficient as ``_t_coefficients`` gives it, times its T-monomial.

    Every T-symbol occurring in ``p`` must have an assigned value.
    """
    with mp.workdps(prec + _GUARD):
        total = mp.mpf(0)
        for tpart, value in _t_coefficients(p, prec, {}).items():
            for name, e in tpart:
                if name not in t_values:
                    raise ValueError(f"no value bound for symbol {name}")
                value *= to_mp(t_values[name]) ** e
            total += value
        return total


def residual(lhs, rhs, prec: int) -> mpmath.mpf:
    """The largest |lhs - rhs| over the entries of the difference.

    The sides are numbers, ``ZetaPoly``s, or sparse series of either (any
    other object with a ``largest``, such as a ``BiSeries`` or an
    ``NcSeries``, compared coefficient by coefficient through it; an absent
    term is 0 and cannot raise the maximum).  ``ZetaPoly``s are
    subtracted exactly and compared coefficient by coefficient in the
    T-symbols: the zeta part of each T-monomial is an exact int sum over the
    stored values, rounded once (``_t_coefficients``), so an identity between
    polynomials in T, T1, T2 holds for every value of them, not at one point.
    Each zeta symbol is read from the store once per call.  Exact numbers are
    converted exactly, and the comparison runs at prec + _GUARD digits.  A
    NaN entry anywhere makes the residual NaN, which passes no tolerance.
    """
    with mp.workdps(prec + _GUARD):
        diff = lhs - rhs
        if hasattr(diff, "largest") and not isinstance(diff, ZetaPoly):
            entries = diff.largest()
        else:
            entries = (diff,)
        read: dict = {}
        worst = mp.mpf(0)
        for entry in entries:
            if isinstance(entry, ZetaPoly):
                values = _t_coefficients(entry, prec, read).values()
            else:
                values = (to_mp(entry),)
            for value in values:
                size = abs(value)
                if mp.isnan(size):
                    return size
                worst = max(worst, size)
        return worst


def _t_coefficients(p: ZetaPoly, prec: int, read: dict) -> dict:
    """The zeta part of each T-monomial of ``p`` (keyed by it), as an mpf at
    prec + _GUARD digits.

    Each is summed exactly in ints scaled by 2^bits, bits = ``_bits(prec)``:
    a symbol's fixed-point value is one ``_fixed_mzv`` per index, kept in
    ``read``; each factor of a product is one multiply and one shift, and a
    coefficient one multiply and one floor division.  The floors lose a few
    units of 2^-bits per term, and the sum becomes an mpf once.  A symbol
    whose stored value is not a finite decimal makes its coefficient NaN.
    """
    bits = _bits(prec)
    sums: dict = {}
    for (zpart, tpart), c in p.terms.items():
        term = 1 << bits
        for k, e in zpart:
            if k not in read:
                read[k] = _fixed_mzv(k, prec)
            if read[k] is None:
                term = None
                break
            for _ in range(e):
                term = term * read[k] >> bits
        s = sums.get(tpart, 0)
        sums[tpart] = None if term is None or s is None else s + term * c.numerator // c.denominator
    return {tpart: _as_mpf(s, bits, prec) for tpart, s in sums.items()}


def pi_val(prec: int = DEFAULT_PREC) -> mpmath.mpf:
    with mp.workdps(prec + _GUARD):
        return +mp.pi


@cache
def _pi(bits: int) -> int:
    """round(pi 2^bits), within one unit: mpmath's pi at bits + 8 bits, read once."""
    with mp.workprec(bits + 8):
        return _scaled(+mp.pi, bits)


@cache
def _i_pi_power(r, n: int, bits: int) -> tuple[int, int]:
    """(r pi i)^n / n!, r rational, as a Gaussian int at 2^bits rounded from pi at 2^(bits+16)."""
    a, b, g = r.numerator ** n, r.denominator ** n * math.factorial(n), bits + 16
    v = _div(a * _pi(g) ** n << bits, b << g * n)
    return ((v, 0), (0, v), (-v, 0), (0, -v))[n % 4]


class _SplitProduct:
    """A product F1...Fr of factors, read one word at a time without building it.

    Every split of a word into r pieces, empty ones included, adds
    F1(piece 1)...Fr(piece r).  A factor is (letter, f), f(piece) a Gaussian
    int (re, im) at scale 2^bits; one with a letter a is 0 off the words a^n.
    Each prefix coefficient is summed exactly and rounded once per factor,
    None (NaN) once a value that is not an int enters.  ``_known[i]`` maps
    each prefix read so far to F1...F(i+1) at it, reused by words sharing it.
    """

    __slots__ = ("factors", "bits", "_known")

    def __init__(self, factors, bits: int):
        self.factors, self.bits = factors, bits
        self._known = [{} for _ in factors]

    def coeff(self, w: tuple):
        row = [(1 << self.bits, 0)] + [(0, 0)] * len(w)   # the empty product at each prefix
        for factor, known in zip(self.factors, self._known):
            for j in range(len(w), -1, -1):  # row[m <= j] still holds the previous factor
                c = known.get(w[:j])
                if c is None:
                    c = known[w[:j]] = self._split(factor, w, j, row)
                row[j] = c
        return mp.nan if row[-1] is None else _number(*row[-1], self.bits)

    def _split(self, factor, w: tuple, j: int, row: list):
        """Sum of row[m] times the factor at w[m:j] over m <= j, or the run of its letter."""
        letter, f = factor
        re = im = 0
        for m in range(j, -1, -1):
            if row[m] is None:
                return None
            if row[m] != (0, 0):
                (a, b), (x, y) = row[m], f(w[m:j])
                if type(x) is not int:
                    return None
                re, im = re + a * x - b * y, im + a * y + b * x
            if letter is not None and m and w[m - 1] != letter:
                break
        half = 1 << (self.bits - 1)
        return (re + half) >> self.bits, (im + half) >> self.bits
