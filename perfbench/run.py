"""mzvkit benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mzv_table --seed 1 --seconds 28 --trace 0

The run repeats the workload's fixed operation set for ``--seconds``, checks
every operation, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it start with ``#``: the environment stamp (``# env {...}``) and
notes.  Everything a run writes goes to ``perfbench/.work``; see
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_SAMPLES = 7
# Times are reported in reference seconds: each measured time is scaled by
# REFERENCE_PROBE_S over the calibration probe's time measured right before
# and right after it (see ``calibrated``).  A sample whose two probes differ
# by more than PROBE_AGREEMENT saw the host change speed and is left out.
REFERENCE_PROBE_S = 0.0005
PROBE_AGREEMENT = 1.15

END_TO_END_UNITS = {
    "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "pass_ratio": "ratio", "min_margin_digits": "digits",
    "peak_rss_mb": "MB",
}

# Interpreter start, import, config and store load, in a fresh process; the
# child prints the clock when it is ready for its first operation.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import mzvkit
from mzvkit import cli, numeric
cfg = cli.load_config(sys.argv[2])
if cfg.cache_path:
    numeric.CACHE.load(cfg.cache_path)
print(repr(time.perf_counter()))
"""

_STORE_CHILD = """
import os, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from mzvkit import numeric
from workloads import PREC, admissible
weight, path = int(sys.argv[3]), sys.argv[4]
for w in range(2, weight + 1):
    for k in admissible(w):
        numeric.mzv(k, PREC)
tmp = f"{path}.{os.getpid()}.tmp"
numeric.CACHE.save(tmp)
os.replace(tmp, path)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mzvkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ensure_store(weight: int) -> Path:
    """The warm value store: every admissible index of weight <= ``weight``
    at prec 40, computed and saved by the code under test, once per checkout."""
    path = WORK / f"store-p40-w{weight}.txt"
    if not path.exists():
        subprocess.run([sys.executable, "-c", _STORE_CHILD, str(SRC), str(BENCH_DIR),
                        str(weight), str(path)], check=True, timeout=900)
    return path


def measure_setup(config_path: Path, count: int, clock) -> list[tuple[float, float, float]]:
    """Set-up samples in fresh processes, each as (seconds, probe before, probe after)."""
    samples = []
    for _ in range(count):
        before = calibration_probe(clock)
        t0 = clock()
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path)],
                             capture_output=True, text=True, timeout=120, check=True)
        ready = float(out.stdout.strip().splitlines()[-1])
        samples.append((ready - t0, before, calibration_probe(clock)))
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


@dataclass
class TracedRep:
    rep: object
    elapsed: float                  # the whole repetition, benchmark code included
    metrics: dict
    layer_self: dict
    root_s: float                   # time inside root spans
    escapes: dict


_PROBE_X = (1 << 200) // 3 + 1


def _probe_work(count: int) -> None:
    """A fixed mix of what mzvkit spends its time on: arithmetic on ints of
    a few hundred bits (mpmath's mantissas), Fraction sums (ring
    coefficients) and dicts keyed by small tuples (indices and words)."""
    for _ in range(count):
        acc = 1
        for i in range(400):
            acc = (acc * _PROBE_X + i) >> 200
        f = Fraction(0)
        for i in range(1, 60):
            f += Fraction((-1) ** i, i * (i + 1))
        d = {}
        for i in range(1500):
            key = (i % 7, i % 11, i % 13)
            d[key] = d.get(key, 0) + i


def calibration_probe(clock) -> float:
    """Time of one round of the probe work (about 0.5 ms at full speed)."""
    t0 = clock()
    _probe_work(1)
    return clock() - t0


def calibrated(samples: list[tuple[float, float, float]]) -> float:
    """Median over samples (seconds, probe before, probe after) of the
    seconds scaled to the reference probe time.

    The shared host runs each virtual CPU at one of two speeds, about 1.75x
    apart, for seconds to minutes at a time; the probe, pinned to the same
    CPU right around the measured work, says which speed the work ran at.
    Samples whose probes disagree are left out unless none agree.
    """
    steady = [s for s in samples if max(s[1], s[2]) <= PROBE_AGREEMENT * min(s[1], s[2])]
    return statistics.median(t * 2 * REFERENCE_PROBE_S / (a + b) for t, a, b in steady or samples)


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on, before any pinning."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:          # platforms without affinity control
        return []


def pin_fastest_cpu(cpus: list[int]) -> None:
    """Pin this process (and the set-up children it starts) to the CPU of
    ``cpus`` that runs the probe work fastest right now, so that an
    operation and the calibration probes around it run on the same CPU,
    and on the currently faster one."""
    if len(cpus) < 2:
        return
    try:
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(calibration_probe(time.perf_counter) for _ in range(5))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
    except OSError:                 # affinity refused: measure unpinned
        pass


def time_for_another(spent: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, as long as the average so far, still ends
    within ``seconds``: a run does not overshoot its time by a repetition."""
    return spent + spent / done <= seconds


def measure(spec, seconds, config, store, env, clock, cpus):
    """Untraced run: repetitions for ``seconds``, with the set-up samples
    spread over the run so their median sees the same host phases as the
    repetitions.  A calibration probe runs before a repetition and after
    each of its operations: ``probes[r][i]`` and ``probes[r][i + 1]``
    bracket operation ``i`` of repetition ``r``."""
    import workloads
    reps, probes = [], []

    def after_op():
        probes[-1].append(calibration_probe(clock))

    pin_fastest_cpu(cpus)
    setup = measure_setup(config, 2, clock)
    t_start = clock()
    while True:
        pin_fastest_cpu(cpus)
        probes.append([calibration_probe(clock)])
        reps.append(workloads.run_spec(spec, config, store, env, clock, after_op))
        pin_fastest_cpu(cpus)
        setup += measure_setup(config, 1, clock)
        if not time_for_another(clock() - t_start, len(reps), seconds):
            break
    setup += measure_setup(config, max(0, SETUP_SAMPLES - len(setup)), clock)
    return reps, setup, probes


def measure_traced(spec, seconds, config, store, env, clock, cpus):
    """One untraced repetition, then traced ones, for ``seconds`` in all."""
    import workloads
    from tracing import Tracer
    t_start = clock()
    pin_fastest_cpu(cpus)
    e0 = clock()
    untraced = workloads.run_spec(spec, config, store, env, clock)
    untraced_elapsed = clock() - e0
    tracer = Tracer(env)
    traced = []
    tracer.install()
    try:
        while True:
            tracer.clear()
            tracer.keep = not traced
            pin_fastest_cpu(cpus)
            e0 = clock()
            rep = workloads.run_spec(spec, config, store, env, clock, tracer.harvest)
            elapsed = clock() - e0
            traced.append(TracedRep(rep, elapsed, tracer.metrics(), tracer.layer_self(),
                                    tracer.top_s, tracer.escapes()))
            if not time_for_another(clock() - t_start, len(traced) + 1, seconds):
                break
    finally:
        tracer.keep = False
        tracer.uninstall()
    return untraced, untraced_elapsed, traced, tracer.spans


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "mzvkit" / "__init__.py").is_file():
        print(f"error: no mzvkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import mpmath
    import mzvkit
    import workloads
    from tracing import LAYER_METRICS, Env

    if Path(mzvkit.__file__).resolve().parent != SRC / "mzvkit":
        print(f"error: imported mzvkit from {mzvkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    load_start = loadavg()
    spec = workloads.make_spec(args.workload, args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    config = WORK / f"config-{tag}-p{os.getpid()}.txt"
    store = WORK / f"store-{tag}-p{os.getpid()}.txt"
    try:
        if args.workload in ("certify_stadic", "certify_assoc"):
            shutil.copyfile(ensure_store(workloads.STORE_WEIGHT), store)
            store_line = f"cache_path={store}"
        else:
            store_line = "cache_path="
        config.write_text(f"prec={workloads.PREC}\norders=2,2\nworkers=1\n{store_line}\n",
                          encoding="utf-8")
        env = Env()
        cpus = allowed_cpus()
        if args.trace:
            untraced, untraced_elapsed, traced, spans = measure_traced(
                spec, args.seconds, str(config), str(store), env, time.perf_counter, cpus)
            reps = [untraced] + [t.rep for t in traced]
        else:
            reps, setup, probes = measure(spec, args.seconds, str(config), str(store), env,
                                          time.perf_counter, cpus)
    finally:
        for path in (config, store):
            path.unlink(missing_ok=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_digest": source_digest(),
        "input_digest": hashlib.sha256("\n".join(workloads.describe(spec)).encode()).hexdigest()[:16],
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
    }
    details = {"env": stamp, "reps": len(reps), "rep_wall_s": [r.wall for r in reps],
               "failures": [f for r in reps for f in r.failures][:50]}

    if args.trace:
        metrics = per_layer(traced, untraced_elapsed)
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        details["layer_self_s"] = [t.layer_self for t in traced]
        details["consistency"] = [consistency(t) for t in traced]
        details["escapes"] = [t.escapes for t in traced]
        details["spans_file"] = write_spans(spans, tag)
    else:
        ops = [calibrated([(r.latencies[i], p[i], p[i + 1]) for r, p in zip(reps, probes)])
               for i in range(len(reps[0].latencies))]
        metrics = timing_metrics(ops, calibrated(setup))
        margins = [m for r in reps for m in r.margins]
        metrics.update({
            "pass_ratio": (attempted - failed) / attempted,
            "min_margin_digits": min(margins) if margins else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        # the same metrics in plain seconds: each operation's best time
        details["uncalibrated"] = timing_metrics(
            [min(times) for times in zip(*(r.latencies for r in reps))],
            statistics.median(t for t, _, _ in setup))
        all_probes = [x for p in probes for x in p]
        details["probe_s"] = {"min": min(all_probes), "median": statistics.median(all_probes),
                              "max": max(all_probes)}
        units = END_TO_END_UNITS
        details["op_tail"] = {"percentile": tail(ops)[1], "samples": len(ops)}
        details["setup_samples_s"] = setup
        details["doc_bound_ratio"] = max(r.doc_bound_ratio for r in reps)

    details["metrics"] = metrics
    (WORK / f"result-{tag}.json").write_text(json.dumps(details, indent=1, default=str),
                                             encoding="utf-8")
    print("# env " + json.dumps(stamp))
    if "op_tail" in details:
        print(f"# op_tail_ms is p{details['op_tail']['percentile']:.1f} of "
              f"{details['op_tail']['samples']} operations; {len(reps)} repetitions")
    for failure in details["failures"][:10]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def timing_metrics(ops: list[float], setup_s: float) -> dict:
    """The timing metrics from one time per operation and the set-up time."""
    return {
        "wall_s": sum(ops),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_tail_ms": 1000 * tail(ops)[0],
        "setup_s": setup_s,
    }


def per_layer(traced: list[TracedRep], untraced_elapsed: float) -> dict:
    """Mean of each per-layer metric over the traced repetitions."""
    from tracing import LAYER_METRICS
    n = len(traced)
    out = {name: sum(t.metrics.get(name, 0.0) for t in traced) / n for name in LAYER_METRICS}
    out["numeric.doc_bound_ratio"] = max(t.rep.doc_bound_ratio for t in traced)
    primes = sum(t.rep.primes for t in traced) / n
    wall = sum(t.rep.wall for t in traced) / n
    out["finite.primes"] = primes
    out["finite.primes_per_s"] = primes / wall
    out["trace.overhead_s"] = sum(t.elapsed for t in traced) / n - untraced_elapsed
    return out


def consistency(t: TracedRep) -> dict:
    """The traced wall time split into layer self time and the benchmark's own
    time (outside every root span); the tests recompute both from the spans."""
    return {"wall_s": t.elapsed, "layers_s": sum(t.layer_self.values()),
            "bench_s": t.elapsed - t.root_s}


def write_spans(spans, tag) -> str:
    path = WORK / f"spans-{tag}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sid,parent,name,start,end,op\n")
        for sid, parent, name, t0, t1, op in spans:
            fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f},{op}\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
