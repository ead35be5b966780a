"""README's claims ledger names only tests that pytest collects.

The ledger has one row per claim of the paper's abstract; its "Checked by"
column names test ids, which a renamed or deleted test would leave stale.
Each id is resolved in this process by pytest's default collection rules,
which pyproject.toml does not change: a test_*.py module, then Test*
classes, then a test* function.
"""

import importlib
import inspect
import re
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


def _collected(test_id):
    """Whether pytest collects test_id, a path::Class::name id without
    parameters.  The tests directory is on sys.path under pytest's default
    import mode, so a module imports by its file's stem."""
    path, *names = test_id.split("::")
    if not (re.fullmatch(r"tests/test_\w+\.py", path) and (ROOT / path).is_file()
            and names):
        return False
    node = importlib.import_module(Path(path).stem)
    *classes, function = names
    for name in classes:
        node = getattr(node, name, None)
        if not (name.startswith("Test") and inspect.isclass(node)):
            return False
    return function.startswith("test") and callable(getattr(node, function, None))


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
    missing = [i for i in named if not _collected(i)]
    assert not missing
