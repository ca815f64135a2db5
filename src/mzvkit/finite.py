"""Truncated multiple harmonic sums modulo prime powers, checked per prime.

For a prime p, a modulus exponent n and a window shift a, the basic value
is the exact residue of

    sum over ap < n_1 < ... < n_r < (a+1)p of 1/(n_1^k_1 ... n_r^k_r)

modulo p^n.  The window excludes multiples of p, so every summand is a
unit.  A prefix-sum dynamic program evaluates the nested sum in O(depth*p)
ring operations per prime; inverses come from one batched extended-gcd
inversion over the window.

Scans verify exact congruences over prime ranges and report per-prime
results; a failing prime lands in the counterexample list, never an
exception.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from functools import cache, partial

from .indices import Index, b_coeff, coarsenings, compositions, oplus
from .words import index_harmonic


def sieve_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i <= limit:
        if flags[i]:
            flags[i * i:: i] = b"\x00" * len(range(i * i, limit + 1, i))
        i += 1
    return [p for p in range(limit + 1) if flags[p]]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def batch_inverses(xs: list[int], modulus: int) -> list[int]:
    """Inverses of a list of units modulo ``modulus`` with one gcd inversion."""
    prefix = [1]
    for x in xs:
        prefix.append(prefix[-1] * x % modulus)
    inv_running = pow(prefix[-1], -1, modulus)
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = inv_running * prefix[i] % modulus
        inv_running = inv_running * xs[i] % modulus
    return out


@dataclass(frozen=True)
class Residue:
    """An exact residue r mod p^n."""

    p: int
    n: int
    value: int

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.p, self.n, (self.value + other.value) % self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.p, self.n, (self.value - other.value) % self.modulus)

    def __mul__(self, other) -> "Residue":
        if isinstance(other, int):
            return Residue(self.p, self.n, self.value * other % self.modulus)
        self._check(other)
        return Residue(self.p, self.n, self.value * other.value % self.modulus)

    __rmul__ = __mul__

    def inverse(self) -> "Residue":
        return Residue(self.p, self.n, pow(self.value, -1, self.modulus))

    def _check(self, other):
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("residues live in different rings")

    def __bool__(self) -> bool:
        return self.value % self.modulus != 0


def _window_inverses(p: int, n: int, a: int) -> list[int]:
    modulus = p ** n
    xs = [(a * p + j) % modulus for j in range(1, p)]
    return batch_inverses(xs, modulus)


def finite_mzv(k, p: int, n: int = 1, a: int = 0,
               _inv: list[int] | None = None) -> Residue:
    """The window harmonic sum of an index mod p^n, by the prefix-sum DP."""
    k = Index(k)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= n:
        raise ValueError(f"need p > n for unit denominators, got p={p}, n={n}")
    if n < 1 or a < 0:
        raise ValueError("need modulus exponent n >= 1 and shift a >= 0")
    modulus = p ** n
    if k.depth == 0:
        return Residue(p, n, 1 % modulus)
    inv = _inv if _inv is not None else _window_inverses(p, n, a)
    cur: list[int] | None = None
    for exponent in k:
        nxt = [0] * (p - 1)
        if cur is None:
            for j in range(p - 1):
                nxt[j] = pow(inv[j], exponent, modulus)
        else:
            prefix = 0
            for j in range(p - 1):
                nxt[j] = prefix * pow(inv[j], exponent, modulus) % modulus
                prefix = (prefix + cur[j]) % modulus
        cur = nxt
    return Residue(p, n, sum(cur) % modulus)


def finite_mzv_star(k, p: int, n: int = 1, a: int = 0) -> Residue:
    """Coarsening sum of the window harmonic sums."""
    k = Index(k)
    inv = _window_inverses(p, n, a)
    out = Residue(p, n, 0)
    for l in coarsenings(k):
        out = out + finite_mzv(l, p, n, a, _inv=inv)
    return out


def finite_mzv_bruteforce(k, p: int, n: int = 1, a: int = 0) -> Residue:
    """Independent nested-loop oracle for small primes."""
    k = Index(k)
    modulus = p ** n

    def rec(depth: int, lower: int) -> int:
        if depth == k.depth:
            return 1
        total = 0
        for m in range(lower + 1, (a + 1) * p):
            term = pow(pow(m, k[depth], modulus), -1, modulus) * rec(depth + 1, m)
            total = (total + term) % modulus
        return total

    return Residue(p, n, rec(0, a * p))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    relation: str
    params: str
    results: list[tuple[int, bool]] = field(default_factory=list)
    counterexamples: list[tuple[int, str]] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        """Some prime was checked and none failed: an empty scan certifies nothing."""
        return bool(self.results) and not self.counterexamples

    @property
    def passed(self) -> int:
        return sum(1 for _, ok in self.results if ok)

    def to_csv(self) -> str:
        lines = ["prime,relation,params,pass"]
        for p, ok in self.results:
            lines.append(f"{p},{self.relation},{self.params},{'1' if ok else '0'}")
        total = len(self.results)
        lines.append(f"total,{total},passed,{self.passed},failed,{total - self.passed}")
        return "\n".join(lines) + "\n"


@cache
def _stuffle_expansion(k: Index, l: Index) -> tuple:
    """Integer expansion of the index-level stuffle product."""
    combo = index_harmonic(k, l)
    out = []
    for idx, c in combo.terms.items():
        if c.denominator != 1:
            raise AssertionError("stuffle structure constants must be integers")
        out.append((idx, c.numerator))
    return tuple(out)


def _check_stuffle_prime(p: int, n: int, pairs: list[tuple[Index, Index]]) -> tuple[bool, str]:
    inv = _window_inverses(p, n, 0)
    values: dict[Index, Residue] = {}

    def val(idx: Index) -> Residue:
        if idx not in values:
            values[idx] = finite_mzv(idx, p, n, 0, _inv=inv)
        return values[idx]

    for k, l in pairs:
        lhs = val(k) * val(l)
        rhs = Residue(p, n, 0)
        for idx, c in _stuffle_expansion(k, l):
            rhs = rhs + val(idx) * c
        if lhs.value != rhs.value:
            return False, f"pair {k}x{l}: {lhs.value} != {rhs.value}"
    return True, ""


def _check_shift_prime(p: int, n: int, k: Index, a: int) -> tuple[bool, str]:
    modulus = p ** n
    lhs = finite_mzv(k, p, n, a)
    inv = _window_inverses(p, n, 0)
    rhs = 0
    for total in range(n):
        step = pow(-a * p, total, modulus)
        for shift in compositions(total, k.depth):
            base = finite_mzv(oplus(k, shift), p, n, 0, _inv=inv)
            rhs = (rhs + b_coeff(k, shift) * base.value * step) % modulus
    if lhs.value != rhs:
        return False, f"{lhs.value} != {rhs}"
    return True, ""


def _check_wolstenholme_prime(p: int) -> tuple[bool, str]:
    r = finite_mzv((1,), p, 2, 0)
    if r.value != 0:
        return False, f"H_(p-1) = {r.value} mod p^2"
    return True, ""


def _run_scan(report: ScanReport, primes: list[int], one, workers: int) -> ScanReport:
    if workers > 1 and len(primes) > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(one, primes, chunksize=max(1, len(primes) // (4 * workers))))
        except (OSError, RuntimeError):
            outcomes = [one(p) for p in primes]
    else:
        outcomes = [one(p) for p in primes]
    for p, (ok, detail) in zip(primes, outcomes):
        report.results.append((p, ok))
        if not ok:
            report.counterexamples.append((p, detail))
    return report


def scan_stuffle(pairs: list[tuple[Index, Index]], p_max: int, n: int = 1,
                 workers: int = 1) -> ScanReport:
    """Check finite(k)*finite(l) = finite(k stuffle l) over primes 5..p_max."""
    pairs = [(Index(k), Index(l)) for k, l in pairs]
    for k, l in pairs:
        _stuffle_expansion(k, l)
    params = " ".join(f"{k}x{l}" for k, l in pairs) or "none"
    report = ScanReport("stuffle", params)
    if not pairs:
        return report
    primes = [p for p in sieve_primes(p_max) if p >= 5 and p > n]
    return _run_scan(report, primes, partial(_check_stuffle_prime, n=n, pairs=pairs), workers)


def scan_shift_expansion(k, a: int, p_max: int, n: int = 1,
                         workers: int = 1) -> ScanReport:
    """Check the window shift against the truncated binomial expansion.

    Terms with total shift weight >= n carry p^n and vanish, so the
    expansion is cut there exactly.
    """
    k = Index(k)
    if a < 1:
        raise ValueError("the shift a must be at least 1")
    report = ScanReport("shift", f"{k} a={a}")
    primes = [p for p in sieve_primes(p_max) if p >= 5 and p > n]
    return _run_scan(report, primes, partial(_check_shift_prime, n=n, k=k, a=a), workers)


def scan_wolstenholme(p_max: int, workers: int = 1) -> ScanReport:
    """H_(p-1) vanishes mod p^2 for every prime p >= 5."""
    report = ScanReport("wolstenholme", "(1) pow=2")
    primes = [p for p in sieve_primes(p_max) if p >= 5]
    return _run_scan(report, primes, _check_wolstenholme_prime, workers)

