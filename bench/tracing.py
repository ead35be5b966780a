"""Span tracing of spinmodel's public functions, installed from outside.

``install()`` replaces each traced function with a wrapper in every
spinmodel module namespace that binds it (``stern_gerlach.sample_theta``
as well as ``orientation.sample_theta``), so a call is caught whichever
name the caller used.  While an op is active, each wrapped call appends a
span ``[name, start, end, parent, op, counters, error]`` to an in-memory
list; nothing is written until the caller dumps the list at the end.

``aggregate()`` folds span lists into per-name totals, and
``layer_metrics()`` turns those into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

CLI_SUBCOMMANDS = (
    "variational", "stern-gerlach", "bell-test", "bell-delay",
    "pauli", "fluctuations", "oracle-check",
)


def _arg(name, default=1):
    """Counter reading one bound argument (a sample count); None counts 1."""
    def count(a, result):
        value = a.get(name)
        return {"items": default if value is None else int(value)}
    return count


def _kl_items(a, result):
    return {"items": int(a["n_shifts"]) * len(a["x"])}


def _segments(a, result):
    return {"items": len(result.trends)}


def _result_bytes(a, result):
    return {"bytes": os.path.getsize(os.path.join(a["out_dir"], result))}


def _chsh_accuracy(a, result):
    se = [s for s in result.stderrs if s > 0]
    if not se:
        return {}
    root_n = a["plan"].samples ** 0.5
    return {"se_sqrt_n_sum": sum(s * root_n for s in se), "mc_terms": len(se)}


# Computed, not measured: per Strang step each of the two components takes
# one fftn and one ifftn, and makes twelve passes over its complex array
# (two half-step phase products, the kinetic product, both transforms, the
# finiteness check), each pass reading or writing 16 bytes per node.
FFTS_PER_STEP = 4
ARRAY_PASSES_PER_STEP = 2 * 12


def _evolve_counts(a, result):
    grid = a["field"].grid
    nodes = grid.nodes ** grid.dimension
    steps = int(a["steps"])
    return {
        "items": nodes * steps,
        "fft_calls": FFTS_PER_STEP * steps,
        "bytes": ARRAY_PASSES_PER_STEP * 16 * nodes * steps,
    }


def _evolve_name(a):
    return f"pauli.evolve_{a['field'].grid.dimension}d"


# module -> {function: counter(bound_args, result) or None}
TRACED = {
    "cli": {"run": None, "write_result": _result_bytes, "write_manifest": None},
    "orientation": {
        "sample_theta": _arg("size"),
        "normalization_constant": None,
        "variational_solve": None,
        "eval_density": None,
    },
    "stern_gerlach": {
        "displacement_distribution": _arg("n_samples"),
        "measure_many": _arg("n"),
        "histogram_rows": None,
    },
    "entanglement": {
        "chsh": _chsh_accuracy,
        "sample_pair_outcomes": _arg("n"),
        "estimate_correlation": None,
        "delayed_correlation": None,
        "correlation": None,
        "outcome_counts": None,
    },
    "telegraph": {
        "flip_parity": _arg("size"),
        "simulate": _segments,
        "empirical_fractions": None,
    },
    "fluctuations": {
        "kl_shift_rate": _kl_items,
        "sample_displacement": _arg("size"),
        "expected_angular_momentum": _arg("n"),
        "fisher_functional": None,
    },
    "pauli": {
        "evolve": _evolve_counts,
        "continuity_residual": None,
        "hj_residual": None,
        "total_energy": None,
        "snapshot_rows": None,
    },
    "streams": {"stream": None},
    "qm_oracle": {"overlap_prob": None, "singlet_correlation": None},
}

# Span names whose value depends on the call's arguments.
_DYNAMIC_NAMES = {("pauli", "evolve"): _evolve_name}


class Tracer:
    """In-memory span recorder; spans are kept only while ``op`` is set."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.bindings = []  # (module name, attribute, span name)
        self.originals = []

    def _wrap(self, module, fname, fn, counter):
        clock = time.perf_counter
        dynamic = _DYNAMIC_NAMES.get((module, fname))
        needs_args = counter is not None or dynamic is not None
        signature = inspect.signature(fn) if needs_args else None
        static_name = f"{module}.{fname}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            bound = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            name = dynamic(bound) if dynamic else static_name
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None,
                          self.op, None, False])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index][6] = True
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            if counter is not None:
                spans[index][5] = counter(bound, result)
            return result

        wrapper.__bench_traced__ = static_name
        return wrapper

    def install(self):
        """Wrap every traced function in every spinmodel namespace binding it."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "spinmodel" or name.startswith("spinmodel.")
        }
        for module, functions in TRACED.items():
            home = modules.get(f"spinmodel.{module}")
            if home is None:
                continue
            for fname, counter in functions.items():
                original = getattr(home, fname)
                self.originals.append(original)
                wrapper = self._wrap(module, fname, original, counter)
                for mod_name, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.bindings.append((mod_name, attr, f"{module}.{fname}"))
        return self

    def unwrapped(self):
        """(module, attribute) pairs still bound to an original traced function."""
        return [
            (mod_name, attr)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "spinmodel" or mod_name.startswith("spinmodel.")
            for attr, value in vars(mod).items()
            if any(value is fn for fn in self.originals)
        ]


def op_self_times(spans):
    """{op: summed self time of its spans} for one process's span list."""
    totals = {}
    for _name, self_s, span in _self_times(spans):
        totals[span[4]] = totals.get(span[4], 0.0) + self_s
    return totals


def _self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    for i, span in enumerate(spans):
        yield span[0], (span[2] - span[1]) - child[i], span


def aggregate(spans, totals=None):
    """Fold one process's spans into {name: {calls, self_s, errors, counters}}."""
    totals = {} if totals is None else totals
    for name, self_s, span in _self_times(spans):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["errors"] += int(span[6])
        for key, value in (span[5] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


# Per-layer metrics: (span name, statistic, unit).
_SPAN_METRICS = [
    ("cli.write_result", "calls", "count"),
    ("cli.write_result", "self_s", "s"),
    ("cli.write_result", "bytes", "B"),
    ("cli.write_manifest", "self_s", "s"),
    ("cli.run", "self_s", "s"),
    ("orientation.sample_theta", "calls", "count"),
    ("orientation.sample_theta", "items", "items"),
    ("orientation.sample_theta", "self_s", "s"),
    ("orientation.normalization_constant", "calls", "count"),
    ("orientation.normalization_constant", "self_s", "s"),
    ("orientation.variational_solve", "calls", "count"),
    ("orientation.variational_solve", "self_s", "s"),
    ("orientation.eval_density", "self_s", "s"),
    ("stern_gerlach.displacement_distribution", "calls", "count"),
    ("stern_gerlach.displacement_distribution", "items", "items"),
    ("stern_gerlach.displacement_distribution", "self_s", "s"),
    ("stern_gerlach.measure_many", "items", "items"),
    ("stern_gerlach.measure_many", "self_s", "s"),
    ("stern_gerlach.histogram_rows", "self_s", "s"),
    ("entanglement.chsh", "calls", "count"),
    ("entanglement.chsh", "self_s", "s"),
    ("entanglement.sample_pair_outcomes", "calls", "count"),
    ("entanglement.sample_pair_outcomes", "items", "items"),
    ("entanglement.sample_pair_outcomes", "self_s", "s"),
    ("entanglement.estimate_correlation", "self_s", "s"),
    ("entanglement.delayed_correlation", "calls", "count"),
    ("entanglement.delayed_correlation", "self_s", "s"),
    ("entanglement.correlation", "calls", "count"),
    ("entanglement.correlation", "self_s", "s"),
    ("entanglement.outcome_counts", "self_s", "s"),
    ("telegraph.flip_parity", "calls", "count"),
    ("telegraph.flip_parity", "items", "items"),
    ("telegraph.flip_parity", "self_s", "s"),
    ("telegraph.simulate", "calls", "count"),
    ("telegraph.simulate", "items", "items"),
    ("telegraph.simulate", "self_s", "s"),
    ("telegraph.empirical_fractions", "self_s", "s"),
    ("fluctuations.kl_shift_rate", "calls", "count"),
    ("fluctuations.kl_shift_rate", "items", "items"),
    ("fluctuations.kl_shift_rate", "self_s", "s"),
    ("fluctuations.sample_displacement", "items", "items"),
    ("fluctuations.sample_displacement", "self_s", "s"),
    ("fluctuations.expected_angular_momentum", "items", "items"),
    ("fluctuations.expected_angular_momentum", "self_s", "s"),
    ("fluctuations.fisher_functional", "self_s", "s"),
    ("pauli.evolve_1d", "calls", "count"),
    ("pauli.evolve_1d", "items", "items"),
    ("pauli.evolve_1d", "self_s", "s"),
    ("pauli.evolve_2d", "calls", "count"),
    ("pauli.evolve_2d", "items", "items"),
    ("pauli.evolve_2d", "self_s", "s"),
    ("pauli.continuity_residual", "self_s", "s"),
    ("pauli.hj_residual", "self_s", "s"),
    ("pauli.total_energy", "self_s", "s"),
    ("pauli.snapshot_rows", "self_s", "s"),
    ("streams.stream", "calls", "count"),
    ("streams.stream", "self_s", "s"),
    ("qm_oracle.overlap_prob", "self_s", "s"),
    ("qm_oracle.singlet_correlation", "self_s", "s"),
]

# Metrics whose value must repeat exactly for one seed.
EXACT_STATS = ("calls", "items", "bytes", "modules_loaded", "fft_calls")


def per_layer_units():
    """[(metric name, unit)] in the order BENCHMARK.json lists them."""
    units = [("import.spinmodel_s", "s"), ("import.modules_loaded", "count")]
    units += [(f"cli.{sub}.op_s", "s") for sub in CLI_SUBCOMMANDS]
    units += [(f"{name}.{stat}", unit) for name, stat, unit in _SPAN_METRICS]
    units += [
        ("entanglement.chsh.se_sqrt_n", "1"),
        ("pauli.evolve.fft_calls", "calls_computed"),
        ("pauli.evolve.bytes", "B_computed"),
    ]
    units += [(f"{module}.errors", "count") for module in TRACED]
    units.append(("trace.overhead_ratio", "1"))
    return units


def layer_metrics(totals, import_s, modules_loaded, cli_op_walls, overhead_ratio):
    """Per-layer metric values; a layer the workload bypasses reads 0."""
    def total(name, stat):
        return totals.get(name, {}).get(stat, 0)

    values = {
        "import.spinmodel_s": import_s,
        "import.modules_loaded": modules_loaded,
        "trace.overhead_ratio": overhead_ratio,
    }
    for sub in CLI_SUBCOMMANDS:
        walls = cli_op_walls.get(sub)
        values[f"cli.{sub}.op_s"] = statistics.median(walls) if walls else 0.0
    for name, stat, _unit in _SPAN_METRICS:
        values[f"{name}.{stat}"] = total(name, stat)
    terms = total("entanglement.chsh", "mc_terms")
    values["entanglement.chsh.se_sqrt_n"] = (
        total("entanglement.chsh", "se_sqrt_n_sum") / terms if terms else 0.0
    )
    for stat in ("fft_calls", "bytes"):
        values[f"pauli.evolve.{stat}"] = sum(
            total(f"pauli.evolve_{d}d", stat) for d in (1, 2)
        )
    for module in TRACED:
        values[f"{module}.errors"] = sum(
            entry["errors"] for name, entry in totals.items()
            if name.startswith(module + ".")
        )
    return {name: (values[name], unit) for name, unit in per_layer_units()}
