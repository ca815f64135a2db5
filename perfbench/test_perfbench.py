"""Tests of the benchmark itself: the gate rejects wrong output, failures are
counted without stopping a run, the traced run accounts for its wall time,
and BENCHMARK.json matches the metrics the code reports.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import mpmath
import pytest

import gate
import workloads
from tracing import LAYER_METRICS, MODULES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PREC = workloads.PREC


# -- negative controls --------------------------------------------------------

PASS_LINE = "check-harmonic (1,2) (3) orders=2,2 residual=2.60415e-39 tol=1.0e-30 PASS"


def test_report_gate_accepts_a_passing_report():
    verdict = gate.check_report(0, PASS_LINE + "\n", PREC)
    assert verdict.reason is None
    assert verdict.margins == [pytest.approx(math.log10(1e-30 / 2.60415e-39))]


def test_report_gate_rejects_a_fail_line():
    text = PASS_LINE + "\n" + PASS_LINE.replace("PASS", "FAIL")
    assert gate.check_report(0, text, PREC).reason is not None


def test_report_gate_rejects_a_residual_one_ulp_above_tol():
    above = repr(math.nextafter(1e-30, 1.0))
    line = f"check-reg (1,1,2) residual={above} tol=1e-30 PASS"
    assert gate.check_report(0, line, PREC).reason is not None


def test_report_gate_rejects_nonzero_exit_and_empty_output():
    assert gate.check_report(1, PASS_LINE, PREC).reason is not None
    assert gate.check_report(0, "", PREC).reason is not None


def _scan_csv(primes, failed=0):
    rows = ["prime,relation,params,pass"]
    rows += [f"{p},stuffle,(1,2)x(3),1" for p in primes]
    rows.append(f"total,{len(primes)},passed,{len(primes) - failed},failed,{failed}")
    return "\n".join(rows)


def test_scan_gate_accepts_the_expected_primes():
    primes = gate.expected_primes(200, 2)
    assert primes[:3] == [5, 7, 11] and primes[-1] == 199
    assert gate.check_scan(0, _scan_csv(primes), primes).reason is None


def test_scan_gate_rejects_a_report_missing_one_prime():
    primes = gate.expected_primes(200, 2)
    short = primes[:17] + primes[18:]
    assert gate.check_scan(0, _scan_csv(short), primes).reason is not None


def test_scan_gate_rejects_a_failed_total():
    primes = gate.expected_primes(100, 1)
    assert gate.check_scan(0, _scan_csv(primes, failed=1), primes).reason is not None


def _table_values(classes):
    from mzvkit import numeric
    spec_entries = [(k, prec) for w, d, prec in classes for k in workloads.admissible(w, d)]
    return {key: numeric.mzv(*key) for key in spec_entries}


def test_table_gate_accepts_exact_classes_and_reports_the_doc_bound():
    classes = [(6, d, PREC) for d in range(1, 6)]
    verdict = gate.check_table(_table_values(classes), classes, {})
    assert verdict.failures == []
    assert len(verdict.margins) == len(classes)
    assert verdict.doc_bound_ratio > 0


def test_table_gate_rejects_a_class_with_one_perturbed_value():
    classes = [(6, d, PREC) for d in range(1, 6)]
    values = _table_values(classes)
    key = ((1, 2, 3), PREC)
    with mpmath.mp.workdps(PREC + 15):
        values[key] = values[key] + mpmath.mpf(10) ** (12 - PREC)
    verdict = gate.check_table(values, classes, {})
    assert set(verdict.failed_entries) == {k for k in values if len(k[0]) == 3}


def test_reload_gate_rejects_a_changed_record():
    stored = {((2,), 40): "1.644934066848226436472415166646025189219"}
    assert gate.check_reload(stored, dict(stored)) is None
    assert gate.check_reload(stored, {((2,), 40): "1.6449340668482264364724151666460251892"}) is not None


class _FakeCli:
    """Stands in for mzvkit.cli: one command prints FAIL, one raises, one
    prints a residual one ulp above tol."""

    def main(self, argv):
        if argv[1] == "antipode":
            print(PASS_LINE.replace("PASS", "FAIL"))
            return 1
        if argv[1] == "reg":
            raise RuntimeError("boom")
        if argv[1] == "shuffle":
            print(f"check-shuffle (2) (2) residual={math.nextafter(1e-30, 1.0)!r} tol=1e-30 PASS")
            return 0
        print(PASS_LINE)
        return 0


class _FakeEnv:
    cli = _FakeCli()

    def reset(self):
        pass


def test_session_counts_failures_and_keeps_going():
    spec = workloads.SessionSpec([["check", "harmonic"], ["check", "antipode"],
                                  ["check", "reg"], ["check", "shuffle"], ["check", "harmonic"]])
    ticks = iter(range(100))
    rep = workloads.run_session(spec, "unused.cfg", _FakeEnv(), lambda: next(ticks))
    assert rep.attempted == 5
    assert rep.failed == 3
    assert len(rep.failures) == 3


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_spec_is_a_function_of_the_seed_with_a_fixed_shape(name):
    a, b, c = (workloads.make_spec(name, s) for s in (1, 1, 2))
    assert workloads.describe(a) == workloads.describe(b)
    assert len(workloads.describe(a)) == len(workloads.describe(c))


def test_table_classes_are_complete():
    spec = workloads.make_spec("mzv_table", 3)
    for w, d, prec in spec.classes:
        members = [k for k, p in spec.entries if p == prec and sum(k) == w and len(k) == d]
        assert len(members) == math.comb(w - 2, d - 1)


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    import run
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == {name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()}
    e2e = set(run.END_TO_END_UNITS)
    for name, (_, _, moves) in LAYER_METRICS.items():
        assert moves, f"{name} names no end-to-end metric"
        for metric, workload in moves:
            assert metric in e2e and workload in workloads.WORKLOADS


# -- calibration ----------------------------------------------------------------

def test_calibration_scales_to_the_reference_probe_and_drops_speed_changes():
    import run
    ref = run.REFERENCE_PROBE_S
    # the same work at full speed and at half speed reads the same
    assert run.calibrated([(0.010, ref, ref), (0.020, 2 * ref, 2 * ref)]) == pytest.approx(0.010)
    # a sample whose probes disagree (the host changed speed) is left out ...
    assert run.calibrated([(0.010, ref, ref), (0.010, ref, ref),
                           (0.030, ref, 3 * ref)]) == pytest.approx(0.010)
    # ... unless every sample's probes disagree
    assert run.calibrated([(0.030, ref, 2 * ref)]) == pytest.approx(0.020)


# -- traced runs ---------------------------------------------------------------

BUILT_FOR = {
    "mzv_table": ("numeric",),
    "certify_stadic": ("rings", "stadic"),
    "certify_assoc": ("associator", "regularization"),
    "finite_scans": ("finite",),
}


def _run(workload, trace, cwd=ROOT, seed=1, seconds=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _self_times_from_spans(path):
    spans = {}
    children = defaultdict(float)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t0, t1 = float(row["start"]), float(row["end"])
            spans[row["sid"]] = (row["parent"], row["name"], t0, t1)
            children[row["parent"]] += t1 - t0
    layer = defaultdict(float)
    for sid, (parent, name, t0, t1) in spans.items():
        if parent != "0":
            p0, p1 = spans[parent][2:]
            assert p0 <= t0 and t1 <= p1, f"span {sid} escapes its parent"
        layer[name.split(".", 1)[0]] += (t1 - t0) - children[sid]
    return layer, children["0"]


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in workloads.WORKLOADS:
        proc = _run(name, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details = json.loads((BENCH_DIR / ".work" / f"result-{name}-s1-t1.json").read_text())
        out[name] = (result, details)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_passes_the_gate_and_reports_every_layer_metric(traced, name):
    result, details = traced[name]
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert set(result["metrics"]) == set(LAYER_METRICS)
    assert details["escapes"] == [{}] * len(details["escapes"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_plus_benchmark_time_equal_the_traced_wall(traced, name):
    _, details = traced[name]
    layer, root_s = _self_times_from_spans(ROOT / details["spans_file"])
    wall = details["consistency"][0]["wall_s"]
    bench = wall - root_s
    assert 0 <= bench < 0.05 * wall
    assert sum(layer.values()) + bench == pytest.approx(wall, rel=0.03)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_the_layer_a_workload_was_built_for_has_the_largest_self_time(traced, name):
    _, details = traced[name]
    layer = details["layer_self_s"][0]
    built = sum(layer[m] for m in BUILT_FOR[name])
    others = [v for m, v in layer.items() if m not in BUILT_FOR[name]]
    assert built > max(others), layer


def test_every_module_has_a_nonzero_layer_metric(traced):
    seen = set()
    for result, _ in traced.values():
        seen.update(k.split(".", 1)[0] for k, v in result["metrics"].items() if v["value"])
    assert set(MODULES) <= seen


def test_certification_sessions_only_read_the_warm_store(traced):
    for name in ("certify_stadic", "certify_assoc"):
        metrics = traced[name][0]["metrics"]
        assert metrics["numeric.li_half.misses"]["value"] == 0
        assert metrics["numeric.store_hit_ratio"]["value"] == 1.0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    proc = _run("mzv_table", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
