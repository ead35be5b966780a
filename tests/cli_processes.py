"""CLI runs in fresh processes: byte-identical reruns and peak RSS.

Each row of RUNS runs twice, each time in a fresh
``python -W error::RuntimeWarning -m spinmodel.cli`` child.  Both runs must
exit 0 and write the same result files byte for byte (criterion 11); only
manifest.json, which records the run's duration, may differ.  A numpy
RuntimeWarning fails its row, and a row with a bound fails where either
child's peak RSS, its ru_maxrss from os.wait4, passes it.

Tier-1 does not collect this file, since its name does not match test_*.py.
Run it by path:

    python -m pytest -q tests/cli_processes.py
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBCOMMANDS = ["variational", "stern-gerlach", "bell-test", "bell-delay",
               "pauli", "fluctuations", "oracle-check"]
LARGEST_M = ["--m", "4503599627370495"]  # 2**52 - 1
# the largest admitted sample count, 2**53
MAX_SAMPLES = ["--samples", "9007199254740992"]
# stern-gerlach draws its up count as one binomial and its histogram as one
# multinomial, and fluctuations each row as one Gamma variate, so neither
# run's work or memory grows with samples: ~36 MiB, as at the defaults
# (~40 MiB at 2**14 bins)
BOUND_MIB = 64
# the grid runs hold an array only until its last use: pauli at 2**18 nodes
# peaks at ~73 MiB (~86 MiB while the packet, the initial spinor and both
# phases stayed alive), and variational at 10**6 nodes at ~69 MiB (~92 MiB
# while each order was solved twice and kept to the next order's solve)
GRID_BOUND_MIB = 80

# (argv, peak RSS bound in MiB or None)
RUNS = [
    *(
        pytest.param([sub, "--format", fmt], None, id=f"{sub}-{fmt}")
        for sub in SUBCOMMANDS
        for fmt in ("csv", "json")
    ),
    # admitted extremes
    pytest.param(["stern-gerlach", *LARGEST_M], None, id="stern-gerlach-largest-m"),
    # a packet narrower than a node, whose width squared underflows
    pytest.param(["pauli", "--packet-width", "1e-300"], None, id="pauli-narrow-packet"),
    # the two ends of the KL rows' admitted dt, [2e-13, 8]
    pytest.param(["fluctuations", "--dt-sequence", "2e-13,8"], None,
                 id="fluctuations-dt-band"),
    # the uniform field takes the 1000 steps as one
    pytest.param(["pauli", "--nodes", "262144", "--steps", "1000"], GRID_BOUND_MIB,
                 id="pauli-large-grid"),
    pytest.param(["variational", "--nodes", "1000000"], GRID_BOUND_MIB,
                 id="variational-large-grid"),
    pytest.param(["fluctuations", "--samples", "1"], None, id="fluctuations-one-sample"),
    pytest.param(["bell-delay", "--mode", "monte_carlo", "--degrade-y"], None,
                 id="bell-delay-monte-carlo-degraded"),
    # bins ~6e305 wide; TestAdmittedExtremes checks that the density's mass is 1
    pytest.param(["stern-gerlach", "--eta", "1.7e308"], None, id="stern-gerlach-largest-eta"),
    # the bin law's edge cases: one bin, a central bin across 0, 2**14 bins at m = 0
    pytest.param(["stern-gerlach", "--bins", "1"], None, id="stern-gerlach-one-bin"),
    pytest.param(["stern-gerlach", "--bins", "201"], None, id="stern-gerlach-central-bin"),
    pytest.param(["stern-gerlach", "--bins", "16384", "--m", "0"], None,
                 id="stern-gerlach-most-bins-m0"),
    # the samples bound
    pytest.param(["stern-gerlach", *MAX_SAMPLES], BOUND_MIB, id="stern-gerlach-max-samples"),
    pytest.param(["fluctuations", *MAX_SAMPLES], BOUND_MIB, id="fluctuations-max-samples"),
    pytest.param(["stern-gerlach", "--bins", "16384", *MAX_SAMPLES], BOUND_MIB,
                 id="stern-gerlach-most-bins-max-samples"),
    pytest.param(["stern-gerlach", *LARGEST_M, *MAX_SAMPLES], BOUND_MIB,
                 id="stern-gerlach-largest-m-max-samples"),
]


def _run(argv, out: Path) -> float:
    """Run the CLI on argv into out in a fresh process, assert that it exits 0,
    and return its peak RSS in MiB."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "spinmodel.cli",
               *argv, "--out", str(out)]
    err = out.with_suffix(".err")
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=stderr, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err.read_text()
    return usage.ru_maxrss / 1024  # KiB on Linux


@pytest.mark.parametrize("argv, bound_mib", RUNS)
def test_two_fresh_runs_write_the_same_bytes(tmp_path, argv, bound_mib):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        peak = _run(argv, out)
        if bound_mib is not None:
            assert peak <= bound_mib, f"peak RSS {peak:.1f} MiB over {bound_mib} MiB"
    names = [sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
             for out in outs]
    assert names[0] and names[0] == names[1]
    for name in names[0]:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), f"{name} differs"
