"""Every public function, class and method of spinmodel has a consumer,
and every settable value of them a caller that sets it.

A consumer is a reference outside the name's own definition, in
src/spinmodel, scripts/ or bench/: a name, an attribute, an imported name,
or a string that spells a dotted name, such as the entries of the bench's
TRACED table.  A method is consumed only through an attribute or a string
with a dot in it: a bare name, such as a local variable or a dict key,
cannot call it.  Tests are not consumers, and neither are ``__all__``
entries.
A settable value is a defaulted parameter of a public function or method,
or a defaulted field of a public dataclass; a call in the same trees that
names the callee passes it by keyword or by position.  Every settable value
also has a call that leaves it out, so that its default is used.  In an
entry ``"module.name": lambda f: f(...)`` of a dict, such as the bench
selftest's sample_calls, a call of the lambda's parameter is a call of name.
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
    "telegraph.TelegraphTrajectory.trend_at",  # item 8: read only by a test reference
    "orientation.total_action",  # item 10: the stationarity residual
    "stern_gerlach.conditional_density",  # item 10: the derived field-to-order map
    "orientation.limit_density",  # item 10: the derived field-to-order map
}
# the CLI's own options are its config schema, not a library API
KNOB_EXEMPT_MODULES = EXEMPT_MODULES | {"cli"}
# settable values that no caller sets yet, each with what keeps it
KEEP_KNOBS = {
    "ActionSpec:g_s",  # item 10: the coupling of the stationarity relation
    "ActionSpec:L_s",  # item 10: the coupling of the stationarity relation
    "ActionSpec:delta_phi",  # item 10: the coupling of the stationarity relation
    "FieldConfig:scalar_potential",  # a term of the paper's Pauli equation; item 11
    "continuity_residual:component",  # the minus component has its own potential
    "hj_residual:component",  # the minus component has its own potential
    "gaussian_packet:momentum",  # the moving packets of the Pauli tests
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


def _references(node, bare=True):
    """Counter of the identifiers a syntax tree refers to, outside __all__;
    bare names, imported names and undotted strings only if `bare`."""
    refs = Counter()
    stack = [node]
    while stack:
        sub = stack.pop()
        if _assigns_all(sub):
            continue
        if isinstance(sub, ast.Name) and bare:
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias) and bare:
            refs.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.match(sub.value) and (bare or "." in sub.value):
                refs.update(sub.value.split("."))
        stack.extend(ast.iter_child_nodes(sub))
    return refs


def _public_definitions():
    """(qualified name, bare name, definition node, is a method) of the
    package's API."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in EXEMPT_MODULES:
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name[0] != "_":
                        qualified = f"{path.stem}.{node.name}.{method.name}"
                        yield qualified, method.name, method, True


def _unconsumed():
    trees = [
        ast.parse(path.read_text())
        for tree in CONSUMERS
        for path in sorted(tree.rglob("*.py"))
    ]
    everywhere = {
        bare: sum((_references(t, bare) for t in trees), Counter())
        for bare in (True, False)
    }
    return {
        qualified
        for qualified, name, node, is_method in _public_definitions()
        if everywhere[not is_method][name] - _references(node, not is_method)[name] <= 0
    }


def test_every_public_name_has_a_consumer():
    assert sorted(_unconsumed() - KEEP) == []


def test_kept_names_still_lack_a_consumer():
    # a kept name that has gained a consumer leaves KEEP
    assert sorted(KEEP - _unconsumed()) == []


def _defaulted_parameters(function, is_method):
    """(name, position or None) of each parameter that has a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )
    if is_method and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i) for i, a in enumerate(positional) if i >= first)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _knobs():
    """(callee, parameter or field, position or None) of the settable values."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in KNOB_EXEMPT_MODULES:
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                for param, pos in _defaulted_parameters(node, False):
                    yield node.name, param, pos
            if not isinstance(node, ast.ClassDef) or node.name[0] == "_":
                continue
            if _is_dataclass(node):
                fields = [
                    f for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                ]
                for pos, field in enumerate(fields):
                    if field.value is not None:
                        yield node.name, field.target.id, pos
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name[0] != "_":
                    for param, pos in _defaulted_parameters(method, True):
                        yield method.name, param, pos


def _lambda_callees(tree):
    """{call node: name} for the calls of f in {"module.name": lambda f: ...}."""
    callees = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(value, ast.Lambda) and len(value.args.args) == 1
            ):
                continue
            f = value.args.args[0].arg
            for call in ast.walk(value.body):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == f:
                    callees[call] = key.value.rsplit(".", 1)[-1]
    return callees


def _knob_uses():
    """(callee:parameter, whether the call passes it) for each call of a
    settable value's callee in the consumer trees.  A call with *args or
    **kwargs that does not name the value may or may not pass it, so it
    counts for neither."""
    knobs = list(_knobs())
    for tree in CONSUMERS:
        for path in sorted(tree.rglob("*.py")):
            syntax = ast.parse(path.read_text())
            callees = _lambda_callees(syntax)
            for call in ast.walk(syntax):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                name = callees.get(call, name)
                keywords = {k.arg for k in call.keywords}
                unpacked = None in keywords or any(
                    isinstance(a, ast.Starred) for a in call.args
                )
                for callee, param, pos in knobs:
                    if callee != name:
                        continue
                    if param in keywords or (pos is not None and pos < len(call.args)):
                        yield f"{callee}:{param}", True
                    elif not unpacked:
                        yield f"{callee}:{param}", False


def _knobs_never(passed):
    """The settable values that no call passes (passed=True) or that no call
    leaves out (passed=False)."""
    knobs = {f"{callee}:{param}" for callee, param, _ in _knobs()}
    return knobs - {knob for knob, p in _knob_uses() if p == passed}


def test_every_settable_value_has_a_caller():
    assert sorted(_knobs_never(passed=True) - KEEP_KNOBS) == []


def test_kept_settable_values_still_lack_a_caller():
    # a kept value that has gained a caller leaves KEEP_KNOBS
    assert sorted(KEEP_KNOBS - _knobs_never(passed=True)) == []


def test_every_default_is_used():
    # a default that every caller overrides is a second statement of a value
    # the callers already give, so the parameter is required instead; no
    # default is kept
    assert sorted(_knobs_never(passed=False)) == []
