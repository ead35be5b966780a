"""Each argument rule of the package is stated once, in `streams`.

`streams._require_count` takes a whole-valued count, `_require_int` an int
kept as given and `_require_normal` a positive normal float.  A module that
reads `sys.float_info`, imports `numbers` or tests `% 1 == 0` writes its own
copy of one of them.  `cli` keeps its own config-layer checks, which name
config keys and raise `ConfigError`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spinmodel"
RULES = {"_require_count", "_require_int", "_require_normal"}


def rule_copies(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "float_info":
            yield node.lineno, "float_info"
        elif isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            yield node.lineno, "import numbers"
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "numbers"
            or node.module == "sys" and any(a.name == "float_info" for a in node.names)
        ):
            yield node.lineno, f"from {node.module} import"
        elif isinstance(node, ast.Compare) and any(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mod)
            and isinstance(side.right, ast.Constant) and side.right.value == 1
            for side in (node.left, *node.comparators)
        ):
            yield node.lineno, "% 1 =="


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.stem not in ("streams", "cli")),
    ids=lambda p: p.name,
)
def test_module_keeps_no_copy_of_an_argument_rule(path):
    copies = list(rule_copies(ast.parse(path.read_text(), filename=str(path))))
    assert copies == [], f"{path.name}: {copies}"


def test_each_rule_is_defined_once_in_streams():
    defined = [
        (path.stem, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in RULES
    ]
    assert sorted(defined) == [("streams", name) for name in sorted(RULES)]


@pytest.mark.parametrize("code", [
    "import sys\nsys.float_info.max",
    "from sys import float_info",
    "import numbers",
    "from numbers import Integral",
    "ok = n % 1 == 0",
    "bad = 0 != n % 1",
])
def test_detector_sees_each_form(code):
    assert list(rule_copies(ast.parse(code)))
