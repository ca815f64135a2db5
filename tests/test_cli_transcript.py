"""CLI transcript gate: every eval, check and scan target once, at small sizes.

Each command runs in-process through ``cli.main``; its printed lines and exit
code are compared with ``tests/data/cli_transcript.txt`` line by line.  Only
the residual may differ, and only within its order of magnitude: the
mantissa is free, the decimal exponent may move by at most one, and a zero
residual may rise to at most 1e-45.  Everything else must match exactly.

Re-record the golden file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest

from mzvkit import associator, cli, finite, numeric, regularization, stadic
from mzvkit.rings import BiSeries
from mzvkit.words import NcPoly

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_transcript.txt"

COMMANDS = [
    "eval mzv (1,2)",
    "eval mzv-star (1,2)",
    "eval stadic (1,2) --orders 1,1",
    "check harmonic (1) (2) --orders 2,2",
    "check shifted-harmonic (1) (2) --orders 1,2",
    "check shuffle (1) (2) --orders 2,2",
    "check antipode (1,2) --orders 1,2",
    "check reg (1,1,2)",
    "check explicit-reg (1,1,2) --orders 1,2",
    "check t-translation (1,2) --orders 2,2",
    "check csf (2,1)",
    "check csf-shifted (2,1) --orders 1,2",
    "check csf-star (2,1) --orders 2,2",
    "check csf-nonstar (2,1) --orders 2,2",
    "check csf-tau (2,1) --tau 1/2 --orders 2,2",
    "check csf-tau (2,1) --tau 0 --orders 2,2",
    "check csf-tau (2,1) --tau 1 --orders 2,2",
    "check duality (2) --orders 1,1",
    "check two-cycle --deg 5",
    "check three-cycle --deg 4",
    "check t-part --deg 4",
    "check gamma-factor --deg 5",
    "check independence --deg 5",
    "check duality-assoc --deg 4",
    "check smzv-assoc (2) --orders 1,1",
    "check rsmzv-routes (2) --orders 1,1",
    "scan stuffle --pmax 60",
    "scan stuffle (1) (2) --pmax 40 --pow 2",
    "scan shift (2) --shift 1 --pmax 60 --pow 2",
    "scan wolstenholme --pmax 60",
]

_RESIDUAL = re.compile(r"residual=(\S+)")


def transcript() -> list[str]:
    """Run every command with no value store and one worker; return the lines."""
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.txt")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("cache_path=\nworkers=1\n")
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(command.split() + ["--config", config])
            lines.append(f"$ {command}")
            lines.extend(out.getvalue().splitlines())
            lines.append(f"exit={code}")
    return lines


def residual_close(old: str, new: str) -> bool:
    """Same order of magnitude: exponents within one, a zero stays below 1e-45."""
    a, b = Decimal(old), Decimal(new)
    if a == 0:
        return b <= Decimal("1e-45")
    return b != 0 and abs(a.adjusted() - b.adjusted()) <= 1


def test_residual_close_rule():
    assert residual_close("7.68741e-39", "1.2e-38")
    assert residual_close("7.68741e-39", "9.9e-40")
    assert not residual_close("7.68741e-39", "9.9e-41")
    assert not residual_close("7.68741e-39", "0.0")
    assert residual_close("0.0", "0.0") and residual_close("0.0", "1.0e-45")
    assert not residual_close("0.0", "1.0e-44")


def test_cli_transcript_matches_golden():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = transcript()
    assert len(got) == len(golden), "transcript length changed"
    for n, (old, new) in enumerate(zip(golden, got), start=1):
        m_old, m_new = _RESIDUAL.search(old), _RESIDUAL.search(new)
        if m_old and m_new:
            assert _RESIDUAL.sub("", old) == _RESIDUAL.sub("", new), f"line {n}: {new}"
            assert residual_close(m_old.group(1), m_new.group(1)), f"line {n}: {old} -> {new}"
        else:
            assert old == new, f"line {n}"


def test_every_check_returns_the_value_of_numeric_residual(monkeypatch):
    # every reported residual must come from the one measure, numeric.residual
    produced = []

    def recorder(*args, **kwargs):
        produced.append(numeric.residual(*args, **kwargs))
        return produced[-1]

    for module in (stadic, associator, regularization):
        monkeypatch.setattr(module, "residual", recorder)
    reported = []
    report_line = cli._report_line

    def record_report(name, params, residual, tol):
        reported.append((name, residual))
        return report_line(name, params, residual, tol)

    monkeypatch.setattr(cli, "_report_line", record_report)
    checks = [c for c in COMMANDS if c.startswith("check ")]
    assert {c.split()[1] for c in checks} == set(cli.CHECKS)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.txt")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("cache_path=\nworkers=1\n")
        for command in checks:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(command.split() + ["--config", config]) == 0, command
    assert len(reported) == len(checks) + 1     # t-part reports two lines
    for name, value in reported:
        assert any(value is r for r in produced), name


def _check_verdicts() -> dict[str, set[str]]:
    """Each check target of the transcript -> the set of its PASS/FAIL words."""
    verdicts: dict[str, set[str]] = {}
    target = None
    for line in transcript():
        if line.startswith("$ "):
            words = line.split()
            target = words[2] if words[1] == "check" else None
        elif target and not line.startswith("exit="):
            verdicts.setdefault(target, set()).add(line.split()[-1])
    return verdicts


_subst = NcPoly.subst
_flanked_pairing = associator._flanked_pairing


def _subst_unit_coefficients(self, images):
    return _subst(self, {a: tuple((b, 1) for b, _ in img) for a, img in images.items()})


def _flanked_pairing_unsigned(series, k, orders):
    grid = _flanked_pairing(series, k, orders)
    return BiSeries(grid.ms, grid.mt, [[(-1) ** (i + j) * a for j, a in enumerate(row)]
                                       for i, row in enumerate(grid.grid)])


# planted fault -> the transcript checks that must FAIL under it; every other
# check of the transcript must still PASS.
MUTATIONS = {
    "eps-without-sign": ((NcPoly, "eps", NcPoly.reverse), {"independence", "smzv-assoc"}),
    "subst-unit-coefficients": ((NcPoly, "subst", _subst_unit_coefficients),
                                {"three-cycle", "duality-assoc"}),
    "subst-identity": ((NcPoly, "subst", lambda self, images: self),
                       {"two-cycle", "three-cycle", "duality-assoc", "rsmzv-routes", "duality"}),
    "flank-without-sign": ((associator, "_flanked_pairing", _flanked_pairing_unsigned),
                           {"smzv-assoc", "rsmzv-routes", "duality"}),
}


def _clear_series_caches():
    associator._PHI_CACHE.clear()
    associator._PHI_RS_CACHE.clear()


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_planted_faults_fail_exactly_the_checks_that_see_them(monkeypatch, mutation):
    (owner, name, fault), failing = MUTATIONS[mutation]
    _clear_series_caches()
    monkeypatch.setattr(owner, name, fault)
    try:
        verdicts = _check_verdicts()
    finally:
        monkeypatch.undo()
        _clear_series_caches()
    assert set(verdicts) == set(cli.CHECKS)
    for target, seen in verdicts.items():
        assert seen == ({"FAIL"} if target in failing else {"PASS"}), (mutation, target, seen)


def _scan_verdicts() -> dict[str, str]:
    """Each scan command of the transcript -> PASS or FAIL, from its exit code."""
    verdicts: dict[str, str] = {}
    command = None
    for line in transcript():
        if line.startswith("$ "):
            command = line[2:] if line.startswith("$ scan ") else None
        elif command and line.startswith("exit="):
            verdicts[command] = "PASS" if line == "exit=0" else "FAIL"
    return verdicts


def _step_including_the_current_term(self, prev, power):
    m = self.modulus
    return [s * x % m for s, x in zip(itertools.accumulate(prev), power)]


def _column_keyed_without_the_last_entry(self, k):
    col = self._columns.get(k[:-1])
    if col is None:
        power = self._power(k[-1])
        col = power if len(k) == 1 else self._step(self._column(k[:-1]), power)
        self._columns[k[:-1]] = col
    return col


_window_inverses = finite._window_inverses


def _window_inverses_wrong_sign(p, n, a):
    if a:
        return _window_inverses(p, n, a)
    m, inv = p ** n, [0, 1]
    for i in range(2, p):
        inv.append((m // i) * inv[m % i] % m)
    return inv[1:]


_SCANS = [c for c in COMMANDS if c.startswith("scan ")]
_STUFFLE, _SHIFT, _WOLSTENHOLME = ({c for c in _SCANS if c.split()[1] == t}
                                   for t in ("stuffle", "shift", "wolstenholme"))
# planted DP fault -> the transcript scans that must FAIL under it; every
# other scan must still PASS.  The transcript's shift and Wolstenholme scans
# ask for depth-1 indices, whose sums have no prefix; the shift scan's second
# term is p times a sum that vanishes mod p, so it cannot tell the sum of (2)
# from that of (3); and stuffle holds for power sums of any values, not only
# of inverses.
SCAN_MUTATIONS = {
    "prefix-includes-current-term": ((finite.WindowSums, "_step",
                                      _step_including_the_current_term), _STUFFLE),
    "memo-keyed-without-last-entry": ((finite.WindowSums, "_column",
                                       _column_keyed_without_the_last_entry), _STUFFLE),
    "window-0-inverse-wrong-sign": ((finite, "_window_inverses", _window_inverses_wrong_sign),
                                    _SHIFT | _WOLSTENHOLME),
}


@pytest.mark.parametrize("mutation", sorted(SCAN_MUTATIONS))
def test_planted_dp_faults_fail_exactly_the_scans_that_see_them(monkeypatch, mutation):
    (owner, name, fault), failing = SCAN_MUTATIONS[mutation]
    monkeypatch.setattr(owner, name, fault)
    verdicts = _scan_verdicts()
    assert set(verdicts) == set(_SCANS)
    for command, seen in verdicts.items():
        assert seen == ("FAIL" if command in failing else "PASS"), (mutation, command, seen)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(transcript()) + "\n", encoding="utf-8")
    sys.exit(0)
