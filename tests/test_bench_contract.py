"""The library calls the benchmark makes still bind and pass its checks.

bench/ops.py, bench/tracing.py and bench/selftest.py are loaded from their
files and only read: a signature edit that turned benchmark ops into
failures, dropped an argument the tracer counts, or broke the call the
harness self-test makes to a traced function, fails here first.
"""

import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from spinmodel import fluctuations
from spinmodel.streams import stream

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_selftest():
    """bench/selftest.py, with sys.path and sys.modules as they were before.

    Importing it puts bench/ on sys.path and imports bench modules under
    their bare names (run, tracing, cli_checks).
    """
    path, modules = list(sys.path), set(sys.modules)
    try:
        return load("selftest")
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if str(BENCH) in (getattr(sys.modules[name], "__file__", None) or ""):
                del sys.modules[name]


@pytest.fixture(scope="module")
def ops():
    return load("ops")


@pytest.mark.parametrize(
    "op",
    [("kl", {"dt": dt, "key": 7}) for dt in (0.1, 0.01, 0.001)]
    + [("telegraph", {"trend": trend, "key": 7}) for trend in (+1, -1)],
)
def test_benchmark_op_passes_its_check(ops, op):
    failures, known = ops.check_op(op, ops.run_op(op))
    assert failures == [] and known == []


def test_traced_kl_arguments_bind():
    x = np.linspace(-10.0, 10.0, 401)
    rho = np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)
    params = fluctuations.TranslationParams()
    signature = inspect.signature(fluctuations.kl_shift_rate)
    tracing = load("tracing")
    for kwargs, shifts in (({"n_shifts": 4}, 4), ({}, 32)):
        bound = signature.bind(x, rho, params, stream(1, "bench-contract"), **kwargs)
        bound.apply_defaults()
        assert bound.arguments["n_shifts"] == shifts
        assert tracing._kl_items(bound.arguments, None) == {"items": shifts * len(x)}


def test_every_traced_function_takes_its_selftest_call(tmp_path):
    selftest = load_selftest()
    calls = selftest.sample_calls(str(tmp_path))
    traced = selftest.tracing.TRACED
    assert set(calls) == {f"{m}.{f}" for m, fs in traced.items() for f in fs}
    for name, call in calls.items():
        module, function = name.split(".")
        call(getattr(importlib.import_module(f"spinmodel.{module}"), function))
