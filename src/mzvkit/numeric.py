"""High-precision numerical evaluation of multiple zeta values.

The evaluator splits the iterated-integral representation of an admissible
index at the midpoint 1/2.  Each piece is a multiple polylogarithm at 1/2,
a geometrically convergent nested series (ratio 1/2), so ``prec`` digits
need about 3.33*prec terms.  The reflected upper piece swaps the two
letters and reverses, which keeps every piece convergent exactly when the
index is admissible.

Computed values are memoised as decimal strings keyed by (index, prec); a
``ValueCache`` can persist them as one sorted record per line.
"""

from __future__ import annotations

import os
import tempfile
from fractions import Fraction
from functools import cache

import mpmath
from mpmath import mp

from .indices import Index, coarsenings
from .rings import ZetaPoly
from .words import index_of_word, word_of_index

DEFAULT_PREC = 40
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


class ValueCache:
    """Decimal-string store for (index, prec) -> value records."""

    def __init__(self):
        self.records: dict[tuple[tuple, int], str] = {}

    def get(self, k: tuple, prec: int) -> str | None:
        return self.records.get((tuple(k), prec))

    def put(self, k: tuple, prec: int, value: str) -> None:
        self.records[(tuple(k), prec)] = value

    def clear(self) -> None:
        self.records.clear()

    def load(self, path: str) -> int:
        count = 0
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    kpart, ppart, vpart = line.split(";")
                    assert kpart.startswith("k=") and ppart.startswith("prec=") and vpart.startswith("value=")
                    kstr = kpart[2:]
                    k = tuple(int(x) for x in kstr.split(",")) if kstr else ()
                    prec = int(ppart[5:])
                    value = vpart[6:]
                    float(value)
                except (ValueError, AssertionError) as exc:
                    raise CacheFormatError(f"line {lineno}: malformed cache record {line!r}") from exc
                self.records[(k, prec)] = value
                count += 1
        return count

    def save(self, path: str) -> int:
        """Write the store to a temporary file beside ``path``, then rename it
        over ``path``: readers and a crash midway see the old or the new store,
        never a torn one, and concurrent savers leave one complete store."""
        items = sorted(self.records.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1]))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=os.path.basename(path) + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for (k, prec), value in items:
                    fh.write(f"k={','.join(map(str, k))};prec={prec};value={value}\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return len(items)


CACHE = ValueCache()


@cache
def _li_half(comp: tuple, prec: int) -> mpmath.mpf:
    """Multiple polylogarithm of a composition at 1/2.

    Sum over 0 < n_1 < ... < n_q of 2^(-n_q) / prod n_j^(c_j), summed to
    N = ceil(3.33 (prec+12)) + 16 terms; the tail is below (N+2) 2^(1-N).
    """
    if not comp:
        return mp.mpf(1)
    with mp.workdps(prec + _GUARD):
        q = len(comp)
        nterms = int(3.322 * (prec + 12)) + 16
        pref = [mp.mpf(0)] * q
        acc = mp.mpf(0)
        powx = mp.mpf(1)
        half = mp.mpf(1) / 2
        for n in range(1, nterms + 1):
            powx *= half
            invn = mp.mpf(1) / n
            t = [mp.mpf(0)] * q
            t[0] = invn ** comp[0]
            for d in range(1, q):
                if pref[d - 1]:
                    t[d] = pref[d - 1] * invn ** comp[d]
            acc += t[q - 1] * powx
            for d in range(q):
                pref[d] += t[d]
        return acc


def _mzv_compute(k: Index, prec: int) -> mpmath.mpf:
    w = word_of_index(k)
    n = len(w)
    with mp.workdps(prec + _GUARD):
        total = mp.mpf(0)
        for i in range(n + 1):
            lower = w[:i]
            upper = tuple(1 - a for a in reversed(w[i:]))
            total += _li_half(index_of_word(lower), prec) * _li_half(index_of_word(upper), prec)
        return total


def mzv(k, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """zeta(k) for an admissible index, with |error| <= 10^-prec."""
    k = Index(k)
    if not k.admissible:
        raise ValueError(f"index {k} is not admissible; the series diverges")
    if prec < 15:
        raise ValueError("prec must be at least 15")
    if k.depth == 0:
        return mp.mpf(1)
    key = (tuple(k), prec)
    cached = CACHE.get(*key)
    if cached is None:
        with mp.workdps(prec + _GUARD):
            value = _mzv_compute(k, prec)
            cached = mp.nstr(value, prec, strip_zeros=False)
        CACHE.put(tuple(k), prec, cached)
    with mp.workdps(prec + _GUARD):
        return mp.mpf(cached)


def mzv_star(k, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """Star value: the sum of zeta over all coarsenings of the index."""
    k = Index(k)
    if not k.admissible:
        raise ValueError(f"index {k} is not admissible")
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


def euler_check(k: int, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """Residual of the classical even-zeta identities at weight 4 or 6."""
    if k not in (2, 3):
        raise ValueError("only k in {2, 3} is supported")
    with mp.workdps(prec + _GUARD):
        z2 = mzv((2,), prec)
        if k == 2:
            return abs(mzv((4,), prec) - Fraction(2, 5) * z2 ** 2)
        return abs(mzv((6,), prec) - Fraction(8, 35) * z2 ** 3)


def pi_val(prec: int = DEFAULT_PREC) -> mpmath.mpf:
    with mp.workdps(prec + _GUARD):
        return +mp.pi
