"""Correctness gate for every operation the benchmark runs.

The gate never trusts mzvkit's own verdict alone: check reports are
re-parsed and compared exactly, scan reports are compared against the
benchmark's own prime list, and table values are compared against
``mpmath.zeta`` and the sum theorem.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

import mpmath

_REPORT = re.compile(r"^check-\S+ .*residual=(?P<res>\S+) tol=(?P<tol>\S+) (?P<verdict>PASS|FAIL)$")
_TOTAL = re.compile(r"^total,(?P<total>\d+),passed,(?P<passed>\d+),failed,(?P<failed>\d+)$")

# Working precision of a check is prec + 15 guard digits; a residual below
# that resolution (or exactly 0) counts as 10^-(prec+15).
GUARD_DIGITS = 15


def tolerance_of(prec: int) -> Decimal:
    """The checkers' residual tolerance 10^-(prec-10)."""
    return Decimal(10) ** (10 - prec)


def margin_digits(residual, tol, prec: int) -> float:
    """log10(tol / residual), with the residual floored at the working precision."""
    floor = Decimal(10) ** -(prec + GUARD_DIGITS)
    return float((Decimal(tol) / max(Decimal(residual), floor)).log10())


@dataclass
class Verdict:
    reason: str | None = None        # None when the operation passed
    margins: list[float] = field(default_factory=list)


def check_report(code: int | None, text: str, prec: int) -> Verdict:
    """A check command passes when it exits 0 and every line reads PASS with
    the printed residual strictly below the printed tolerance."""
    if code != 0:
        return Verdict(f"exit code {code}")
    lines = text.strip().splitlines()
    if not lines:
        return Verdict("no report line")
    margins = []
    for line in lines:
        m = _REPORT.match(line)
        if m is None:
            return Verdict(f"unparsable line {line!r}")
        if m["verdict"] != "PASS":
            return Verdict(f"FAIL line {line!r}")
        try:
            residual, tol = Decimal(m["res"]), Decimal(m["tol"])
        except InvalidOperation:
            return Verdict(f"bad number in {line!r}")
        if not residual < tol:
            return Verdict(f"residual not below tol in {line!r}")
        margins.append(margin_digits(residual, tol, prec))
    return Verdict(None, margins)


def expected_primes(pmax: int, n: int) -> list[int]:
    """Primes p with 5 <= p <= pmax and p > n, by trial division."""
    def is_prime(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
    return [p for p in range(5, pmax + 1) if p > n and is_prime(p)]


def check_scan(code: int | None, text: str, primes: list[int]) -> Verdict:
    """A scan passes when it exits 0, its total line says ``failed,0`` and it
    checked exactly the expected primes, each with pass flag 1."""
    if code != 0:
        return Verdict(f"exit code {code}")
    lines = text.strip().splitlines()
    if len(lines) < 2 or lines[0] != "prime,relation,params,pass":
        return Verdict("missing CSV header")
    m = _TOTAL.match(lines[-1])
    if m is None:
        return Verdict(f"bad total line {lines[-1]!r}")
    if m["failed"] != "0":
        return Verdict(f"total line reports {m['failed']} failed primes")
    rows = lines[1:-1]
    checked = []
    for row in rows:
        fields = row.split(",")
        if fields[-1] != "1":
            return Verdict(f"prime row not passed: {row!r}")
        checked.append(int(fields[0]))
    if int(m["total"]) != len(primes) or checked != primes:
        return Verdict(f"checked {len(checked)} primes (total line {m['total']}), expected {len(primes)}")
    return Verdict(None)


@dataclass
class TableVerdict:
    failed_entries: set = field(default_factory=set)
    failures: list[str] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)
    doc_bound_ratio: float = 0.0


def check_table(values: dict, classes: list[tuple[int, int, int]], errors: dict) -> TableVerdict:
    """Sum theorem on each complete (weight, depth) class and depth-1 values
    against ``mpmath.zeta``, both within the checkers' tolerance.

    ``doc_bound_ratio`` is max |mzv(n) - zeta(n)| / 10^-prec over the
    depth-1 entries: the documented error bound of ``mzv`` is met exactly
    when it is at most 1.  It is reported, not gated.
    """
    out = TableVerdict()
    for key, reason in errors.items():
        out.failed_entries.add(key)
        out.failures.append(f"mzv{key}: {reason}")
    for weight, depth, prec in classes:
        members = [key for key in values if key[1] == prec and sum(key[0]) == weight
                   and len(key[0]) == depth]
        tol = tolerance_of(prec)
        with mpmath.mp.workdps(prec + GUARD_DIGITS + 10):
            zeta = mpmath.zeta(weight)
            residual = abs(mpmath.fsum(values[key] for key in members) - zeta)
            res_dec = Decimal(mpmath.nstr(residual, 20))
            if depth == 1 and members:
                error = abs(values[members[0]] - zeta)
                ratio = float(error * mpmath.mpf(10) ** prec)
                out.doc_bound_ratio = max(out.doc_bound_ratio, ratio)
        expected = math.comb(weight - 2, depth - 1)
        if len(members) != expected:
            out.failures.append(f"class ({weight},{depth})@{prec} has {len(members)} of {expected} values")
            out.failed_entries.update(members)
        elif not res_dec < tol:
            out.failures.append(f"sum theorem ({weight},{depth})@{prec}: residual {res_dec} >= {tol}")
            out.failed_entries.update(members)
        else:
            out.margins.append(margin_digits(res_dec, tol, prec))
    return out


def check_reload(stored: dict, reloaded: dict) -> str | None:
    """Every record read back from the saved store equals the stored string."""
    if stored != reloaded:
        diff = sum(1 for k in stored.keys() | reloaded.keys() if stored.get(k) != reloaded.get(k))
        return f"{diff} records differ after save and load"
    return None
