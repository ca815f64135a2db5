"""Seeded workload generators and the code that runs one repetition of each.

A workload is generated from its seed alone; mzvkit only ever sees the
generated indices and options.  Each generator keeps the *shape* of the
work fixed (which targets, which weights, depths, orders and degrees) and
lets the seed choose among inputs of that shape, so different seeds cost
about the same and a change in run time means a change in the program.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field

import gate

PREC = 40
# Every value a certification session needs has weight <= STORE_WEIGHT at
# prec 40, so the warm value store holds all admissible indices up to it.
STORE_WEIGHT = 10

WORKLOADS = ("mzv_table", "certify_stadic", "certify_assoc", "finite_scans")


# ---------------------------------------------------------------------------
# index helpers (independent of mzvkit.indices)
# ---------------------------------------------------------------------------

def compositions_of(weight: int) -> list[tuple[int, ...]]:
    """All compositions of ``weight``, in lexicographic order."""
    if weight == 0:
        return [()]
    out = []
    for first in range(1, weight + 1):
        out.extend((first,) + rest for rest in compositions_of(weight - first))
    return out


def admissible(weight: int, depth: int | None = None) -> list[tuple[int, ...]]:
    """Admissible indices (last entry >= 2) of a weight, optionally one depth."""
    return [k for k in compositions_of(weight)
            if k and k[-1] >= 2 and (depth is None or len(k) == depth)]


def index_literal(k: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, k)) + ")"


# ---------------------------------------------------------------------------
# workload specifications
# ---------------------------------------------------------------------------

@dataclass
class TableSpec:
    """Cold MZV table: entries are (index, prec); classes are complete."""

    entries: list[tuple[tuple[int, ...], int]]
    classes: list[tuple[int, int, int]]          # (weight, depth, prec)


@dataclass
class SessionSpec:
    """A CLI session: each command is one operation."""

    commands: list[list[str]]
    scan_primes: dict[int, list[int]] = field(default_factory=dict)  # command no. -> primes


def table_spec(seed: int) -> TableSpec:
    """Every admissible index of weight <= 8 at prec 40, zeta(9) and zeta(10),
    one seed-chosen complete class at weight 9 (35 indices, depth 4 or 5)
    and at weight 10 (8 indices, depth 2 or 8), and every admissible index
    of weight <= 5 at prec 100."""
    rng = random.Random(seed)
    classes = [(w, d, PREC) for w in range(2, 9) for d in range(1, w)]
    # C(w-2, d-1) = C(w-2, w-1-d): the two depths of a pair have equal size.
    classes += [(9, 1, PREC), (9, rng.choice((4, 5)), PREC),
                (10, 1, PREC), (10, rng.choice((2, 8)), PREC)]
    classes += [(w, d, 100) for w in range(2, 6) for d in range(1, w)]
    entries = [(k, prec) for w, d, prec in classes for k in admissible(w, d)]
    entries.sort(key=lambda e: (e[1], sum(e[0]), e[0]))
    return TableSpec(entries, classes)


# Each slot is (target, alternatives, orders): the seed picks one of the
# alternatives, which are inputs of the same shape whose check costs about
# the same (within ~15% when measured one by one), so that the latency of
# every slot, and with it the median and tail, does not move with the seed.
# Indices have weight 2..4, orders are (2,2) or (3,3).
_STADIC_SLOTS = [
    ("harmonic", [("(1,2)", "(2,1)"), ("(2,1)", "(1,2)")], "2,2"),
    ("harmonic", [("(2)", "(1,1,2)"), ("(2)", "(2,1,1)")], "2,2"),
    ("harmonic", [("(1,2)", "(2,1)"), ("(2,1)", "(1,2)")], "3,3"),
    ("harmonic", [("(3)", "(1,3)"), ("(3)", "(3,1)")], "2,2"),
    ("harmonic", [("(2)", "(1,2)"), ("(2)", "(2,1)")], "2,2"),
    ("shifted-harmonic", [("(1,2)", "(2,1)"), ("(2,1)", "(1,2)"), ("(2,1)", "(2,1)")], "3,3"),
    ("shifted-harmonic", [("(1,2)", "(3,1)"), ("(2,1)", "(1,3)")], "2,2"),
    ("shifted-harmonic", [("(1,2)", "(1,3)"), ("(2,1)", "(2,2)")], "2,2"),
    ("shuffle", [("(1,2)", "(1,2)"), ("(1,2)", "(2,1)"), ("(2,1)", "(1,2)"), ("(2,1)", "(2,1)")], "2,2"),
    ("shuffle", [("(2)", "(1,3)"), ("(2)", "(3,1)")], "2,2"),
    ("shuffle", [("(2)", "(1,2)"), ("(2)", "(2,1)")], "2,2"),
    ("shuffle", [("(2)", "(2)")], "3,3"),
    ("antipode", [("(1,1,2)",), ("(1,2,1)",), ("(2,1,1)",)], "3,3"),
    ("antipode", [("(1,2)",), ("(2,1)",)], "2,2"),
    ("antipode", [("(1,3)",), ("(2,2)",), ("(3,1)",)], "2,2"),
    ("reg", [("(1,1,2)",), ("(1,2,1)",), ("(2,1,1)",)], "2,2"),
    ("reg", [("(1,2)",), ("(2,1)",)], "3,3"),
    ("reg", [("(1,3)",), ("(2,2)",), ("(3,1)",)], "2,2"),
    ("explicit-reg", [("(1,2,1)",), ("(2,1,1)",)], "2,2"),
    ("explicit-reg", [("(1,3)",), ("(2,2)",)], "3,3"),
    ("explicit-reg", [("(1,2)",), ("(2,1)",)], "2,2"),
    ("t-translation", [("(1,1,2)",), ("(2,1,1)",)], "2,2"),
    ("t-translation", [("(1,2)",), ("(2,1)",)], "3,3"),
    ("t-translation", [("(1,3)",), ("(2,2)",)], "2,2"),
    ("csf", [("(1,1,2)",), ("(1,2,1)",), ("(2,1,1)",)], "2,2"),
    ("csf", [("(1,2)",), ("(2,1)",)], "3,3"),
    ("csf", [("(1,3)",), ("(2,2)",), ("(3,1)",)], "2,2"),
    ("csf-shifted", [("(1,1,2)",), ("(1,2,1)",), ("(2,1,1)",)], "2,2"),
    ("csf-shifted", [("(1,2)",), ("(2,1)",)], "3,3"),
    ("csf-shifted", [("(1,3)",), ("(3,1)",)], "2,2"),
    ("csf-star", [("(1,2)",), ("(2,1)",)], "2,2"),
    ("csf-star", [("(1,3)",), ("(3,1)",)], "2,2"),
    ("csf-star", [("(4)",)], "3,3"),
    ("csf-nonstar", [("(1,2)",), ("(2,1)",)], "3,3"),
    ("csf-nonstar", [("(1,3)",), ("(3,1)",)], "2,2"),
    ("csf-nonstar", [("(1,1,2)",), ("(1,2,1)",), ("(2,1,1)",)], "2,2"),
    ("csf-tau", [("(1,2)",), ("(2,1)",)], "2,2"),
    ("csf-tau", [("(1,3)",), ("(3,1)",)], "2,2"),
    ("csf-tau", [("(1,2)",), ("(2,1)",)], "3,3"),
    ("csf-tau", [("(4)",)], "3,3"),
]
_TAUS = ("0", "1/3", "1/2", "1")


def stadic_spec(seed: int) -> SessionSpec:
    rng = random.Random(seed)
    commands = []
    for target, alternatives, orders in _STADIC_SLOTS:
        cmd = ["check", target, *rng.choice(alternatives)]
        if target == "csf-tau":
            cmd += ["--tau", rng.choice(_TAUS)]
        commands.append(cmd + ["--orders", orders])
    rng.shuffle(commands)
    return SessionSpec(commands)


# Series products and substitutions (three-cycle, duality-assoc) carry the
# associator layer's work, so they run over a range of degrees; the checks
# that mostly build phi (numeric + rings) run at low degree, so that building
# does not outweigh the associator layer.
_ASSOC_FIXED = [
    ["check", "three-cycle", "--deg", "8"], ["check", "three-cycle", "--deg", "7"],
    ["check", "three-cycle", "--deg", "6"], ["check", "three-cycle", "--deg", "5"],
    ["check", "duality-assoc", "--deg", "7"], ["check", "duality-assoc", "--deg", "6"],
    ["check", "duality-assoc", "--deg", "5"], ["check", "two-cycle", "--deg", "7"],
    ["check", "two-cycle", "--deg", "6"], ["check", "t-part", "--deg", "5"],
    ["check", "gamma-factor", "--deg", "5"], ["check", "independence", "--deg", "5"],
]
_ASSOC_POOL = {3: admissible(3), 4: admissible(4)}
# (target, index weight, orders); the seed draws an admissible index of that
# weight.  Orders stay at most (1,0)/(0,1) so that each command is short and
# a repetition holds 40 operations.
_ASSOC_SLOTS = (
    [("duality", 3, "0,1"), ("duality", 3, "1,0")] + [("duality", 4, "0,0")] * 4
    + [("rsmzv-routes", 3, "0,1")] * 4 + [("rsmzv-routes", 3, "1,0")] * 4
    + [("rsmzv-routes", 4, "0,0")] * 6
    + [("smzv-assoc", 3, "0,1")] * 2 + [("smzv-assoc", 3, "1,0")] * 2
    + [("smzv-assoc", 4, "0,0")] * 4
)


def assoc_spec(seed: int) -> SessionSpec:
    rng = random.Random(seed)
    commands = [list(c) for c in _ASSOC_FIXED]
    for target, w, orders in _ASSOC_SLOTS:
        commands.append(["check", target, index_literal(rng.choice(_ASSOC_POOL[w])),
                         "--orders", orders])
    rng.shuffle(commands)
    return SessionSpec(commands)


STUFFLE_PMAX = 400
SHIFT_PMAX = 450
WOLSTENHOLME_PMAX = (1500, 2000, 2500, 3000)


def scans_spec(seed: int) -> SessionSpec:
    """Eighteen stuffle scans (a depth-2 index against a depth-1 index, pow 2),
    eighteen shift scans (a depth-2 index, shift 1..3, pow 2) and four
    Wolstenholme scans; the seed draws the index entries and the shifts."""
    rng = random.Random(seed)
    commands = []
    primes = {}

    def entries(n):
        return tuple(rng.randint(1, 3) for _ in range(n))

    for _ in range(18):
        commands.append(["scan", "stuffle", index_literal(entries(2)), index_literal(entries(1)),
                         "--pmax", str(STUFFLE_PMAX), "--pow", "2"])
        primes[len(commands) - 1] = gate.expected_primes(STUFFLE_PMAX, 2)
    for _ in range(18):
        commands.append(["scan", "shift", index_literal(entries(2)), "--shift",
                         str(rng.randint(1, 3)), "--pmax", str(SHIFT_PMAX), "--pow", "2"])
        primes[len(commands) - 1] = gate.expected_primes(SHIFT_PMAX, 2)
    for pmax in WOLSTENHOLME_PMAX:
        commands.append(["scan", "wolstenholme", "--pmax", str(pmax)])
        primes[len(commands) - 1] = gate.expected_primes(pmax, 2)
    order = list(range(len(commands)))
    rng.shuffle(order)
    return SessionSpec([commands[i] for i in order], {j: primes[i] for j, i in enumerate(order)})


def make_spec(workload: str, seed: int):
    return {"mzv_table": table_spec, "certify_stadic": stadic_spec,
            "certify_assoc": assoc_spec, "finite_scans": scans_spec}[workload](seed)


def describe(spec) -> list[str]:
    """Canonical text of a spec, for the input digest."""
    if isinstance(spec, TableSpec):
        return [f"{index_literal(k)}@{prec}" for k, prec in spec.entries]
    return [" ".join(c) for c in spec.commands]


# ---------------------------------------------------------------------------
# running one repetition
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """Outcome of one repetition of a workload's operation set."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    margins: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    doc_bound_ratio: float = 0.0
    primes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_session(spec: SessionSpec, config_path: str, env, clock, after_op=None) -> Rep:
    """Run every command in-process through ``cli.main``, with cold caches.

    ``env.reset()`` empties every symbolic and value cache before each
    command, as a fresh CLI process would start; the value store file is
    then read again by ``cli.main`` itself.
    """
    rep = Rep()
    for i, argv in enumerate(spec.commands):
        env.reset()
        out = io.StringIO()
        code, error = None, None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out):
                code = env.cli.main(argv + ["--config", config_path])
        except Exception as exc:  # noqa: BLE001 - one failed command must not stop the run
            error = f"{type(exc).__name__}: {exc}"
        rep.latencies.append(clock() - t0)
        if after_op is not None:
            after_op()
        if error is None:
            if i in spec.scan_primes:
                verdict = gate.check_scan(code, out.getvalue(), spec.scan_primes[i])
                rep.primes += len(spec.scan_primes[i])
            else:
                verdict = gate.check_report(code, out.getvalue(), PREC)
                rep.margins.extend(verdict.margins)
            error = verdict.reason
        if error is not None:
            rep.failed += 1
            rep.failures.append(f"{' '.join(argv)}: {error}")
    if spec.scan_primes:
        # exact congruences have no rounding residual
        rep.margins.append(gate.margin_digits(0, gate.tolerance_of(PREC), PREC))
    return rep


def run_spec(spec, config_path: str, store_path: str, env, clock, after_op=None) -> Rep:
    """One repetition of any workload."""
    if isinstance(spec, TableSpec):
        return run_table(spec, store_path, env, clock, after_op)
    return run_session(spec, config_path, env, clock, after_op)


def run_table(spec: TableSpec, store_path: str, env, clock, after_op=None) -> Rep:
    """Evaluate the table cold, save the store, reload it, serve it again.

    Operations: one per ``mzv`` call, then the save, the load into an
    empty store, and the pass that serves every value from that store.
    """
    numeric = env.numeric
    rep = Rep()
    env.reset()
    values = {}
    errors = {}
    for k, prec in spec.entries:
        t0 = clock()
        try:
            values[(k, prec)] = numeric.mzv(k, prec)
        except Exception as exc:  # noqa: BLE001
            errors[(k, prec)] = f"{type(exc).__name__}: {exc}"
        rep.latencies.append(clock() - t0)
        if after_op is not None:
            after_op()
    stored = dict(numeric.CACHE.records)

    def timed(fn):
        t0 = clock()
        try:
            result = fn(), None
        except Exception as exc:  # noqa: BLE001
            result = None, f"{type(exc).__name__}: {exc}"
        rep.latencies.append(clock() - t0)
        if after_op is not None:
            after_op()
        return result

    _, save_error = timed(lambda: numeric.CACHE.save(store_path))
    numeric.CACHE.clear()
    _, load_error = timed(lambda: numeric.CACHE.load(store_path))
    reloaded = dict(numeric.CACHE.records)
    served, serve_error = timed(lambda: {(k, prec): numeric.mzv(k, prec) for k, prec in spec.entries})

    verdict = gate.check_table(values, spec.classes, errors)
    rep.margins = verdict.margins
    rep.doc_bound_ratio = verdict.doc_bound_ratio
    rep.failures = list(verdict.failures)
    rep.failed = len(verdict.failed_entries)
    io_failures = [
        ("save", save_error),
        ("load", load_error or gate.check_reload(stored, reloaded)),
        ("serve", serve_error or (None if served == values else "served values differ")),
    ]
    for name, reason in io_failures:
        if reason is not None:
            rep.failed += 1
            rep.failures.append(f"{name}: {reason}")
    return rep
