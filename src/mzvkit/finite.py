"""Truncated multiple harmonic sums modulo prime powers.

For a prime p, a modulus exponent n and a window shift a, the basic value
is the exact residue of

    sum over ap < n_1 < ... < n_r < (a+1)p of 1/(n_1^k_1 ... n_r^k_r)

modulo p^n, a plain int in [0, p^n).  The window excludes multiples of p,
so every summand is a unit.

``window_zero_sums`` gives the window-0 residues of a set of indices for
every prime of a scan in one pass over N = 1, 2, ...: one accumulator per
prefix of the indices, held as a trie, kept modulo the product of p^n over
the primes still ahead.  ``finite_mzv`` evaluates one index at one (p, n, a)
by a prefix-sum dynamic program in O(depth*p) ring operations; it is the
oracle of the pass and the route for the shifted windows a >= 1, whose range
moves with p.

Scans verify exact congruences over prime ranges in a single process and
report per-prime verdicts; a failing prime is a 0 in its CSV row, never an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import prod

from .indices import Index, coarsenings, shifts, stuffle


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


def _window_inverses(p: int, n: int, a: int) -> list[int]:
    """Inverses of a p + 1, ..., a p + p - 1 mod p^n.  A shifted window is
    inverted directly, never through the shift expansion a scan checks."""
    modulus = p ** n
    return batch_inverses([(a * p + j) % modulus for j in range(1, p)], modulus)


def finite_mzv(k, p: int, n: int = 1, a: int = 0) -> int:
    """The window harmonic sum of an index mod p^n, by the prefix-sum DP.

    Entry j of column i is the sum over the first i parts whose last variable
    is the j-th unit m_j of the window.  The first column is m_j^-k_1, and
    entry j of the next is the sum of the column below j, left unreduced,
    times m_j^-k_(i+1).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= n:
        raise ValueError(f"need p > n for unit denominators, got p={p}, n={n}")
    if n < 1 or a < 0:
        raise ValueError("need modulus exponent n >= 1 and shift a >= 0")
    k, modulus = tuple(Index(k)), p ** n
    if not k:
        return 1
    powers = [None, _window_inverses(p, n, a)]
    while len(powers) <= max(k):
        powers.append([x * y % modulus for x, y in zip(powers[-1], powers[1])])
    col = powers[k[0]]
    for e in k[1:]:
        col = [s * x % modulus for s, x in zip(accumulate(col, initial=0), powers[e])]
    return sum(col) % modulus


def finite_mzv_star(k, p: int, n: int = 1, a: int = 0) -> int:
    """Coarsening sum of the window harmonic sums."""
    return sum(finite_mzv(l, p, n, a) for l in coarsenings(Index(k))) % p ** n


def finite_mzv_bruteforce(k, p: int, n: int = 1, a: int = 0) -> int:
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

    return rec(0, a * p)


def window_zero_sums(indices, p_max: int, n: int = 1) -> dict[int, dict[Index, int]]:
    """prime -> {index: its window-0 residue mod p^n}, for every prime
    5 <= p <= p_max with p > n, from one pass over N = 1, ..., p_max - 1.

    With K the largest part, the prefix u = (v, k) of an index holds
    A_u(N) = S_u(N) (N!)^K, S_u(N) being its nested sum over parts up to N:
    A_u(N) = N^K A_u(N-1) + N^(K-k) A_v(N-1), each child updated before its
    parent, and the root A_()(N) = (N!)^K.  The state is kept modulo the
    product of p^n over the primes still ahead, and prime p reads
    A_u(p-1) / A_()(p-1), whose denominator ((p-1)!)^K is a unit mod p^n.
    """
    if n < 1:
        raise ValueError("need modulus exponent n >= 1")
    keys = {Index(k) for k in indices}
    primes = [p for p in sieve_primes(p_max) if p >= 5 and p > n]
    trie = sorted({()} | {k[:i] for k in keys for i in range(1, len(k) + 1)},
                  key=len, reverse=True)
    slot = {u: i for i, u in enumerate(trie)}
    top = max(map(max, filter(None, keys)), default=0)
    steps = [(i, slot[u[:-1]], top - u[-1]) for i, u in enumerate(trie[:-1])]
    root = len(trie) - 1
    state = [0] * root + [1]
    modulus = prod(p ** n for p in primes)
    out, start = {}, 1
    for p in primes:
        for m in range(start, p):
            powers = [m ** e for e in range(top + 1)]
            for i, parent, e in steps:
                state[i] = (powers[top] * state[i] + powers[e] * state[parent]) % modulus
            state[root] = powers[top] * state[root] % modulus
        start, pn = p, p ** n
        inverse = pow(state[root], -1, pn)
        out[p] = {k: state[slot[k]] * inverse % pn for k in keys}
        modulus //= pn
    return out


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    relation: str
    params: str
    results: list[tuple[int, bool]] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        """Some prime was checked and none failed: an empty scan certifies nothing."""
        return bool(self.results) and all(ok for _, ok in self.results)

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


def _stuffle_holds(val: dict[Index, int], modulus: int, pairs: list[tuple[Index, Index]]) -> bool:
    return all((val[k] * val[l] - sum(val[m] * c for m, c in stuffle(k, l))) % modulus == 0
               for k, l in pairs)


def _shift_holds(val: dict[Index, int], p: int, n: int, k: Index, a: int) -> bool:
    modulus = p ** n
    rhs = 0
    for total in range(n):
        step = pow(-a * p, total, modulus)
        for l, b in shifts(k, total):
            rhs = (rhs + b * val[l] * step) % modulus
    return finite_mzv(k, p, n, a) == rhs


def scan_stuffle(pairs: list[tuple[Index, Index]], p_max: int, n: int = 1) -> ScanReport:
    """Check finite(k)*finite(l) = finite(k stuffle l) over primes 5..p_max."""
    pairs = [(Index(k), Index(l)) for k, l in pairs]
    params = " ".join(f"{k}x{l}" for k, l in pairs) or "none"
    if not pairs:
        return ScanReport("stuffle", params)
    needed = {m for k, l in pairs for m in (k, l, *(t for t, _ in stuffle(k, l)))}
    values = window_zero_sums(needed, p_max, n)
    return ScanReport("stuffle", params,
                      [(p, _stuffle_holds(val, p ** n, pairs)) for p, val in values.items()])


def scan_shift_expansion(k, a: int, p_max: int, n: int = 1) -> ScanReport:
    """Check the window shift against the truncated binomial expansion.

    Terms with total shift weight >= n carry p^n and vanish, so the
    expansion is cut there exactly.  Its window-0 values come from one pass;
    the shifted window is evaluated per prime by ``finite_mzv``.
    """
    k = Index(k)
    if a < 1:
        raise ValueError("the shift a must be at least 1")
    values = window_zero_sums({l for total in range(n) for l, _ in shifts(k, total)}, p_max, n)
    return ScanReport("shift", f"{k} a={a}",
                      [(p, _shift_holds(val, p, n, k, a)) for p, val in values.items()])


def scan_wolstenholme(p_max: int) -> ScanReport:
    """H_(p-1) vanishes mod p^2 for every prime p >= 5."""
    values = window_zero_sums([(1,)], p_max, 2)
    return ScanReport("wolstenholme", "(1) pow=2",
                      [(p, val[(1,)] == 0) for p, val in values.items()])
