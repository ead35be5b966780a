"""Each file imports only what its install provides.

numpy is the package's one runtime dependency (pyproject.toml), so `src/`
imports the standard library and numpy alone.  The tests and the scripts
may also import the package, each other, and what the `test` extra
installs: pytest, hypothesis and scipy.  A module installed on one host but
not by the extra, such as mpmath, is imported by none of them.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNTIME = set(sys.stdlib_module_names) | {"numpy"}
TEST_EXTRA = {"pytest", "hypothesis", "scipy", "spinmodel"}
FILES = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
]


def top_level_imports(tree):
    """(line, top-level module name) of each absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_only_what_its_install_provides(path):
    allowed = RUNTIME
    if (ROOT / "src") not in path.parents:
        allowed = allowed | TEST_EXTRA | {p.stem for p in path.parent.glob("*.py")}
    tree = ast.parse(path.read_text(), filename=str(path))
    extra = [(line, name) for line, name in top_level_imports(tree) if name not in allowed]
    assert extra == [], f"{path.relative_to(ROOT)}: {extra}"


@pytest.mark.parametrize("code, name", [
    ("import mpmath", "mpmath"),
    ("from mpmath import mp", "mpmath"),
    ("import scipy.special as sc", "scipy"),
    ("def f():\n    import mpmath.libmp", "mpmath"),
])
def test_reader_sees_each_form(code, name):
    assert [n for _, n in top_level_imports(ast.parse(code))] == [name]


def test_relative_imports_are_the_package_own():
    code = "from . import pauli\nfrom .streams import stream"
    assert list(top_level_imports(ast.parse(code))) == []
