"""Truncated multiple harmonic sums modulo prime powers.

For a prime p, a modulus exponent n and a window shift a, the basic value
is the exact residue of

    sum over ap < n_1 < ... < n_r < (a+1)p of 1/(n_1^k_1 ... n_r^k_r)

modulo p^n, a plain int in [0, p^n).  The window excludes multiples of p,
so every summand is a unit.

``window_sums`` gives the residues of a set of indices at one window a for
every prime of a scan in one pass over m = 1, 2, ...: one accumulator per
prefix of the indices, held as a trie, kept modulo the product of p^n over
the primes whose window is open, each window reset as it opens and read as
it closes.  Every value a scan checks comes from it.  ``finite_mzv``
evaluates one index at one (p, n, a) by a prefix-sum dynamic program in
O(depth*p) ring operations; it is the oracle of the pass only.

Scans verify exact congruences over prime ranges in a single process and
report per-prime verdicts; a failing prime is a 0 in its CSV row, never an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, groupby
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


def window_sums(indices, p_max: int, n: int = 1, a: int = 0) -> dict[int, dict[Index, int]]:
    """prime -> {index: its window-a residue mod p^n}, for every prime
    5 <= p <= p_max with p > n, from one pass over the m of the windows.

    With K the largest part and P(m) the product of the window's integers up
    to m, the prefix u = (v, k) of an index holds A_u(m) = S_u(m) P(m)^K,
    S_u(m) being its nested sum over the window up to m:
    A_u(m) = m^K A_u(m-1) + m^(K-k) A_v(m-1), each child updated before its
    parent, and the root A_()(m) = P(m)^K.  The state is kept modulo the
    product of p^n over the primes whose window ap < m < (a+1)p is open.
    The windows that open at one m form a group q: with M the modulus so
    far and c = M (M^-1 mod q), s -> s (1 - c) mod Mq clears their component
    and keeps the others, and the root takes c.  When p's window closes it
    reads A_u / A_() mod p^n, whose denominator is a unit, and p^n leaves
    the modulus.  An m in no window is skipped; at a = 0 every window opens
    at m = 1.
    """
    if n < 1 or a < 0:
        raise ValueError("need modulus exponent n >= 1 and shift a >= 0")
    keys = {Index(k) for k in indices}
    primes = [p for p in sieve_primes(p_max) if p >= 5 and p > n]
    trie = sorted({()} | {k[:i] for k in keys for i in range(1, len(k) + 1)},
                  key=len, reverse=True)
    slot = {u: i for i, u in enumerate(trie)}
    top = max(map(max, filter(None, keys)), default=0)
    steps = [(i, slot[u[:-1]], top - u[-1]) for i, u in enumerate(trie[:-1])]
    root = len(trie) - 1
    state = [0] * len(trie)
    # (m, opens, p), acted on before the update at m: p's window opens at
    # m = ap + 1 and is read at m = (a+1)p, a read coming before an opening
    events = sorted([(a * p + 1, True, p) for p in primes]
                    + [((a + 1) * p, False, p) for p in primes])
    out, modulus, m = {}, 1, 0
    for (at, opens), group in groupby(events, key=lambda e: e[:2]):
        if modulus > 1:
            for m in range(m, at):
                powers = [m ** e for e in range(top + 1)]
                for i, parent, e in steps:
                    state[i] = (powers[top] * state[i] + powers[e] * state[parent]) % modulus
                state[root] = powers[top] * state[root] % modulus
        m, moduli = at, {p: p ** n for _, _, p in group}
        if opens:
            q = prod(moduli.values())
            c = modulus * pow(modulus, -1, q)
            modulus *= q
            state = [s * (1 - c) % modulus for s in state]
            state[root] += c
        else:
            for p, pn in moduli.items():
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


def _shift_holds(shifted: int, val: dict[Index, int], p: int, n: int, a: int,
                 terms: list[tuple[Index, int, int]]) -> bool:
    modulus = p ** n
    steps = [pow(-a * p, total, modulus) for total in range(n)]
    return shifted == sum(b * val[l] * steps[total] for l, b, total in terms) % modulus


def scan_stuffle(pairs: list[tuple[Index, Index]], p_max: int, n: int = 1) -> ScanReport:
    """Check finite(k)*finite(l) = finite(k stuffle l) over primes 5..p_max."""
    pairs = [(Index(k), Index(l)) for k, l in pairs]
    params = " ".join(f"{k}x{l}" for k, l in pairs) or "none"
    if not pairs:
        return ScanReport("stuffle", params)
    needed = {m for k, l in pairs for m in (k, l, *(t for t, _ in stuffle(k, l)))}
    values = window_sums(needed, p_max, n)
    return ScanReport("stuffle", params,
                      [(p, _stuffle_holds(val, p ** n, pairs)) for p, val in values.items()])


def scan_shift_expansion(k, a: int, p_max: int, n: int = 1) -> ScanReport:
    """Check the window shift against the truncated binomial expansion.

    Terms with total shift weight >= n carry p^n and vanish, so the
    expansion is cut there exactly.  Both sides sum over the integers of
    their windows, each from one pass: the shifted window a and the window-0
    values of the expansion.
    """
    k = Index(k)
    if a < 1:
        raise ValueError("the shift a must be at least 1")
    terms = [(l, b, total) for total in range(n) for l, b in shifts(k, total)]
    shifted = window_sums([k], p_max, n, a)
    values = window_sums({l for l, _, _ in terms}, p_max, n)
    return ScanReport("shift", f"{k} a={a}",
                      [(p, _shift_holds(shifted[p][k], val, p, n, a, terms))
                       for p, val in values.items()])


def scan_wolstenholme(p_max: int) -> ScanReport:
    """H_(p-1) vanishes mod p^2 for every prime p >= 5."""
    values = window_sums([(1,)], p_max, 2)
    return ScanReport("wolstenholme", "(1) pow=2",
                      [(p, val[(1,)] == 0) for p, val in values.items()])
