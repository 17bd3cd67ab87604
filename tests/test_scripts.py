"""Smoke tests of the experiment scripts: each runs end to end as a
subprocess and its measured growth matches the leading-order prediction
on the unstable rows."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _assert_unstable_rows_match(rows):
    unstable = [r for r in rows if float(r["predicted"]) > 0]
    assert unstable
    for r in unstable:
        assert float(r["growth"]) == pytest.approx(float(r["predicted"]), rel=0.01)


def test_threshold_scan():
    out = _run_script("threshold_scan.py", "--num", "2", "--N", "8",
                      "--k-lo", "1.2", "--k-hi", "1.6")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["k"] for r in rows] == ["1.200000", "1.600000"]
    _assert_unstable_rows_match(rows)


def test_growth_vs_amplitude(tmp_path):
    out = tmp_path / "growth.csv"
    _run_script("growth_vs_amplitude.py", "--num", "2", "--N", "8",
                "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    _assert_unstable_rows_match(rows)
