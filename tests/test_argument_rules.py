"""Each argument rule of the package is stated once, in `streams`.

`streams` holds five rules, each refusing a value with a `ValueError` that
names the field and the value: `_require_count` takes a whole-valued count,
`_require_int` an int kept as given, `_require_normal` a positive normal
float, `_require_real` a finite real in a range and `_require_real_array`
an integer or float array of finite values.  None takes a bool as a
number.  A module that reads `sys.float_info`, imports `numbers`, tests
`% 1 == 0` or compares a parameter with an infinity writes its own copy of
one of them.  The CLI uses the same rules, so `cli` is scanned too: each
numeric parser of its ``SCHEMA`` is the count or the real rule, and
`merge_config` raises the rule's message as a `ConfigError`.
"""

import ast
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from spinmodel import cli
from spinmodel import entanglement as ent
from spinmodel import fluctuations as fl
from spinmodel import orientation as om
from spinmodel import pauli
from spinmodel import stern_gerlach as sg
from spinmodel import streams
from spinmodel import telegraph as tg
from spinmodel.streams import stream

SRC = Path(__file__).resolve().parents[1] / "src" / "spinmodel"
RULES = {
    "_require_count", "_require_int", "_require_normal", "_require_real",
    "_require_real_array",
}


def _is_infinity(node):
    return isinstance(node, ast.Attribute) and node.attr == "inf"


def _is_parameter(node, params):
    """Whether node is a parameter of its function, bare or in abs(), or a
    field of self."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs":
        node = node.args[0]
    return (isinstance(node, ast.Name) and node.id in params) or (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    )


def _range_checks(function):
    """A comparison of one of function's parameters with an infinity, or
    math.isfinite of one: an inline copy of the real rule."""
    params = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)} - {"self"}
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(_is_infinity, sides)) and any(_is_parameter(s, params) for s in sides):
                yield node.lineno, "compared with inf"
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "isfinite" and node.args
            and _is_parameter(node.args[0], params)
        ):
            yield node.lineno, "isfinite"


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
        elif isinstance(node, ast.FunctionDef):
            yield from _range_checks(node)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.stem != "streams"),
    ids=lambda p: p.name,
)
def test_module_keeps_no_copy_of_an_argument_rule(path):
    # a nested function is walked with its outer one, so a copy may show twice
    copies = sorted(set(rule_copies(ast.parse(path.read_text(), filename=str(path)))))
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
    "def f(dt):\n    return 0 < dt < math.inf",
    "def f(t):\n    return abs(t) < math.inf",
    "class C:\n    def f(self):\n        return 0 < self.tau < np.inf",
    "def f(g):\n    return math.isfinite(g)",
])
def test_detector_sees_each_form(code):
    assert list(rule_copies(ast.parse(code)))


def test_detector_passes_a_derived_value():
    # an overflow check of a value the function computed is no argument rule
    code = "def f(eta):\n    k = eta / 4.0\n    return k == math.inf or math.isfinite(k * k)"
    assert not list(rule_copies(ast.parse(code)))


@pytest.mark.parametrize("name", [
    f"{sub}.{key}" for sub, keys in cli.SCHEMA.items()
    for key, (_, default) in keys.items()
    if isinstance(default, (int, float)) and not isinstance(default, bool)
])
def test_numeric_config_key_is_parsed_by_a_rule(name):
    sub, key = name.split(".")
    parse, _ = cli.SCHEMA[sub][key]
    rule = parse.func if isinstance(parse, partial) else parse
    assert rule in (streams._require_count, streams._require_real)


# each public scalar the real rule checks: (call taking the value, its
# parameter's name, a finite value out of its range or None if it has none)
_PACKET_GRID = pauli.SpatialGrid(1, 16, 20.0)
_PACKET = pauli.gaussian_packet(_PACKET_GRID, width=1.0)
_FIELD = pauli.SpinorField.normalized(_PACKET_GRID, _PACKET, _PACKET)
REAL_PARAMETERS = {
    "MeasurementPlan.delay": (lambda v: ent.MeasurementPlan(delay=v), "delay", -1.0),
    "MeasurementPlan.alice_angles": (
        lambda v: ent.MeasurementPlan(alice_angles=(v, 0.0)), "alice_angles", None
    ),
    "MeasurementPlan.bob_angles": (
        lambda v: ent.MeasurementPlan(bob_angles=(0.0, v)), "bob_angles", None
    ),
    "TranslationParams.mass": (lambda v: fl.TranslationParams(mass=v), "mass", 0.0),
    "TranslationParams.dt": (lambda v: fl.TranslationParams(dt=v), "dt", -1.0),
    "RotationParams.mass": (lambda v: fl.RotationParams(mass=v), "mass", -1.0),
    "RotationParams.omega": (lambda v: fl.RotationParams(omega=v), "omega", 0.0),
    "ActionSpec.g_s": (lambda v: om.ActionSpec(g_s=v), "g_s", None),
    "ActionSpec.delta_phi": (lambda v: om.ActionSpec(delta_phi=v), "delta_phi", 0.0),
    "ActionSpec.L_s": (lambda v: om.ActionSpec(L_s=v), "L_s", -0.5),
    "SpatialGrid.extent": (lambda v: pauli.SpatialGrid(1, 256, v), "extent", 0.0),
    "evolve.dt": (lambda v: pauli.evolve(_FIELD, pauli.FieldConfig(), v, 1), "dt", 0.0),
    "ApparatusConfig.gradient": (
        lambda v: sg.ApparatusConfig(gradient=v), "gradient", -1.0
    ),
    "displacement.eta": (lambda v: sg.displacement(0.0, 1, v), "eta", 0.0),
    "DwellModel.tau_plus": (lambda v: tg.DwellModel(tau_plus=v), "tau_plus", 0.0),
    "DwellModel.tau_minus": (lambda v: tg.DwellModel(tau_minus=v), "tau_minus", -1.0),
    "TelegraphTrajectory.total_duration": (
        lambda v: tg.TelegraphTrajectory((0.0,), (1,), v), "total_duration", -1.0
    ),
    "simulate.duration": (
        lambda v: tg.simulate(tg.DwellModel(), v, 1, stream(3, "rules")), "duration", 0.0
    ),
    "odd_flip_probability.delay": (
        lambda v: tg.odd_flip_probability(tg.DwellModel(), v), "delay", -0.1
    ),
    "FieldConfig.b_z": (lambda v: pauli.FieldConfig(b_z=v), "b_z", None),
    "FieldConfig.scalar_potential": (
        lambda v: pauli.FieldConfig(scalar_potential=v), "scalar_potential", None
    ),
    "correlation.a": (lambda v: ent.correlation(ent.PSI_MINUS, v, 0.0), "a", None),
    "correlation.b": (lambda v: ent.correlation(ent.PSI_MINUS, 0.0, v), "b", None),
    "delayed_correlation.a": (
        lambda v: ent.delayed_correlation(ent.PSI_MINUS, v, 0.0, 0.5, tg.DwellModel()),
        "a", None,
    ),
    "delayed_correlation.b": (
        lambda v: ent.delayed_correlation(ent.PSI_MINUS, 0.0, v, 0.5, tg.DwellModel()),
        "b", None,
    ),
    "TelegraphTrajectory.trend_at": (
        lambda v: tg.TelegraphTrajectory((0.0,), (1,), 1.0).trend_at(v), "t", 1.5
    ),
}
# numpy orders complex scalars, and an array of two elements has no truth value
NON_REALS = {"True": True, "str": "1", "None": None, "nan": math.nan,
             "inf": math.inf, "-inf": -math.inf, "complex": np.complex128(1.0),
             "array": np.array([1.0, 2.0])}
# the fields that take an array, by the real-array rule
ARRAY_FIELDS = {"FieldConfig.b_z", "FieldConfig.scalar_potential"}


@pytest.mark.parametrize("name, label, value", [
    pytest.param(name, label, given, id=f"{name}-{label}")
    for name, (_, _, out_of_range) in REAL_PARAMETERS.items()
    for label, given in [*NON_REALS.items(), ("out-of-range", out_of_range)]
    if (given is not None or label == "None")
    and not (label == "array" and name in ARRAY_FIELDS)
])
def test_real_parameter_refuses_naming_itself(name, label, value):
    # a bool ran as 1, and a str raised a TypeError that named no field.  The
    # rule's message opens with the field, so a one-letter field such as a is
    # not found in its "be a finite real"; a range a model checks itself may
    # name the field elsewhere
    call, parameter, _ = REAL_PARAMETERS[name]
    opening = "" if label == "out-of-range" else "^"
    with pytest.raises(ValueError, match=rf"{opening}(?<!\w){parameter}(?!\w)"):
        call(value)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.array(0.5)], ids=repr)
def test_real_rule_takes_a_zero_d_array_as_a_number(value):
    assert streams._require_real("x", value) == 0.5


NON_REAL_ARRAYS = {
    "complex": np.array([1.0 + 0j, 2.0]), "complex-0d": np.array(1j),
    "bool": np.array([True, False]), "str": np.array(["1"]),
    "object": np.array([1.0], dtype=object), "nan": np.array([0.0, math.nan]),
    "inf": np.array([[1.0], [-math.inf]]),
}


@pytest.mark.parametrize("field", ["b_z", "scalar_potential"])
@pytest.mark.parametrize("label", NON_REAL_ARRAYS)
def test_field_array_refuses_naming_itself(field, label):
    # a complex array lost its imaginary part, and a non-finite one raised
    # "field values must be finite", naming neither field, when first used
    with pytest.raises(ValueError, match=rf"^{field} must be an array of finite reals"):
        pauli.FieldConfig(**{field: NON_REAL_ARRAYS[label]})


@pytest.mark.parametrize("values", [np.arange(16), np.arange(16, dtype=np.uint8)])
def test_field_array_takes_integers(values):
    grid = pauli.SpatialGrid(1, 16, 20.0)
    potential = pauli.FieldConfig(b_z=values).potential_energy(grid)
    expected = pauli.FieldConfig(b_z=values.astype(float)).potential_energy(grid)
    assert np.array_equal(potential, expected)
