"""Smoke tests: the scripts under scripts/ run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_displacement_scan(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_script(
        "run_displacement_scan.py",
        "--orders", "1,3", "--samples", "2000", "--bins", "11", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "order_m,bin_center,empirical_density,analytic_density"
    assert len(lines) == 1 + 2 * 11


def test_larmor_demo():
    proc = run_script("run_larmor_demo.py", "--steps", "20", "--report-every", "10")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "expected relative-phase rate: 1.000000"
    assert lines[1] == "t, relative_phase, norm_drift, population_up"
    assert len(lines) == 2 + 2
