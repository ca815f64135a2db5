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
import os
import re
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

from mzvkit import cli

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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(transcript()) + "\n", encoding="utf-8")
    sys.exit(0)
