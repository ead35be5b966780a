"""README's claims ledger names only tests that pytest collects.

The ledger has one row per claim of the paper's abstract; its "Checked by"
column names test ids, which a renamed or deleted test would leave stale.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATUSES = {"derived", "computed", "predicted", "stated", "contradicted"}
CLAIMS = 5  # the abstract's: quantization, rotated apparatus, Pauli, CHSH, delay


def _ledger_rows():
    """The body rows of the table under README's "## Claims ledger", as lists
    of cells."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Claims ledger\n")[1].split("\n## ")[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    assert header == ["Claim", "Shown by", "Checked by", "Status"]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def _collected(files):
    """The node ids pytest collects from files, without their parameters."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *sorted(files)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {line.split("[")[0] for line in proc.stdout.splitlines() if "::" in line}


def test_every_named_test_is_collected():
    rows = _ledger_rows()
    assert len(rows) == CLAIMS
    named = []
    for claim, shown_by, checked_by, status in rows:
        assert status in STATUSES, claim
        assert re.search(r"`[a-z-]+`: ", shown_by), claim  # a subcommand and its fields
        ids = re.findall(r"`(tests/[^`]+)`", checked_by)
        assert ids, claim
        named += ids
    missing = set(named) - _collected({i.split("::")[0] for i in named})
    assert not missing
