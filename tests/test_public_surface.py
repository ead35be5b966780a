"""Every public function, class and method of spinmodel has a consumer.

A consumer is a reference outside the name's own definition, in
src/spinmodel, scripts/ or bench/: a name, an attribute, an imported name,
or a string that spells a dotted name, such as the entries of the bench's
TRACED table.  Tests are not consumers, and neither are ``__all__`` entries.
bench/ is only parsed, never imported or written.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinmodel"
CONSUMERS = (PACKAGE, ROOT / "scripts", ROOT / "bench")
# the independent reference values are kept whole
EXEMPT_MODULES = {"qm_oracle"}
# public names kept with no consumer yet, each for the ROADMAP item that
# gives it one
KEEP = {
    "entanglement.joint_density",  # item 8: the outcome table's corner weights
    "telegraph.TelegraphTrajectory.trend_at",  # item 8: event-level delay check
    "orientation.total_action",  # item 10: the stationarity residual
    "stern_gerlach.conditional_density",  # item 10: the derived field-to-order map
    "orientation.limit_density",  # item 10: the derived field-to-order map
}
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _assigns_all(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _references(node):
    """Counter of the identifiers a syntax tree refers to, outside __all__."""
    refs = Counter()
    stack = [node]
    while stack:
        sub = stack.pop()
        if _assigns_all(sub):
            continue
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.match(sub.value):
                refs.update(sub.value.split("."))
        stack.extend(ast.iter_child_nodes(sub))
    return refs


def _public_definitions():
    """(qualified name, bare name, definition node) of the package's API."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT_MODULES:
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name[0] != "_":
                        qualified = f"{path.stem}.{node.name}.{method.name}"
                        yield qualified, method.name, method


def _unconsumed():
    everywhere = Counter()
    for tree in CONSUMERS:
        for path in sorted(tree.rglob("*.py")):
            everywhere += _references(ast.parse(path.read_text()))
    return {
        qualified
        for qualified, name, node in _public_definitions()
        if everywhere[name] - _references(node)[name] <= 0
    }


def test_every_public_name_has_a_consumer():
    assert sorted(_unconsumed() - KEEP) == []


def test_kept_names_still_lack_a_consumer():
    # a kept name that has gained a consumer leaves KEEP
    assert sorted(KEEP - _unconsumed()) == []
