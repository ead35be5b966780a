"""Self-test of the benchmark harness (not of spinmodel).

    python3 bench/selftest.py        # from the root of a checkout; takes a few minutes

1. Every exact count (calls, items, bytes, modules loaded, computed FFT
   calls and bytes) repeats exactly when a workload's traced run is made
   twice with one seed, and the traced run emits exactly the per-layer
   metrics BENCHMARK.json names.
2. Every spinmodel namespace binding of a traced function is wrapped, and
   a call through each binding records a span under the function's name.
3. No op's summed span self time exceeds its measured wall time.

Exits 1 if any check fails.
"""

import argparse
import json
import os
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402

ROOT = os.getcwd()
FAILURES = []


def report(ok, message):
    print(("PASS " if ok else "FAIL ") + message, flush=True)
    if not ok:
        FAILURES.append(message)


def traced_run(workload, seed):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1.0, trace=1)
    harness = run.Run(args, ROOT)
    try:
        result = harness.execute()
    finally:
        harness.close()
    metrics = tracing.layer_metrics(result["totals"], result["import_s"],
                                    result["modules_loaded"], result["cli_op_walls"], 0.0)
    return result, metrics


def is_exact(name):
    return name.rsplit(".", 1)[-1] in tracing.EXACT_STATS


def check_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    report(declared == tracing.per_layer_units(),
           "BENCHMARK.json per_layer matches the metrics the traced run emits")
    for workload in run.WORKLOADS:
        first, m1 = traced_run(workload, seed=5)
        second, m2 = traced_run(workload, seed=5)
        diff = [k for k in m1 if is_exact(k) and m1[k] != m2[k]]
        report(not diff, f"{workload}: exact counts repeat for one seed {diff or ''}")
        report(len(second.get("modules_loaded_values", [0])) == 1,
               f"{workload}: every op process loads the same modules")
        for result in (first, second):
            walls = {r["op"]: r["wall"] for r in result["traced_records"]}
            over = [op for op, s in result["op_self"].items() if s > walls[op]]
            report(not over and len(result["op_self"]) > 0,
                   f"{workload}: summed self_s <= wall on {len(result['op_self'])} ops {over or ''}")


def sample_calls(tmp):
    import numpy as np

    from spinmodel import entanglement, fluctuations, orientation, pauli
    from spinmodel import stern_gerlach as sg
    from spinmodel import streams, telegraph

    def rng():
        return streams.stream(1, "selftest")

    x = np.linspace(-5.0, 5.0, 101)
    rho = np.exp(-(x**2) / 2.0)
    rho /= np.trapezoid(rho, x)
    grid = pauli.SpatialGrid(1, 16, 8.0)
    packet = pauli.gaussian_packet(grid)
    field = pauli.SpinorField.normalized(grid, packet, packet)
    fc = pauli.FieldConfig()
    dwell = telegraph.DwellModel()
    tp = fluctuations.TranslationParams()
    return {
        "cli.run": lambda f: f(["oracle-check", "--pairs", "1", "--out", tmp]),
        "cli.write_result": lambda f: f(tmp, "t", "csv", ["a"], [(1,)], {}),
        "cli.write_manifest": lambda f: f(tmp, "t", {}, 1, [], time.monotonic(), {}),
        "orientation.sample_theta": lambda f: f(1, rng(), 4),
        "orientation.normalization_constant": lambda f: f(2),
        "orientation.variational_solve": lambda f: f(orientation.ActionSpec(m=1), n_nodes=64),
        "orientation.eval_density": lambda f: f(1, 0.3),
        "stern_gerlach.displacement_distribution":
            lambda f: f(1, sg.ApparatusConfig(), 10, rng()),
        "stern_gerlach.measure_many":
            lambda f: f(orientation.TwoPointDensity(0.5, 0.5), rng(), 4),
        "stern_gerlach.histogram_rows": lambda f: f(np.array([0.0, 1.0]), np.array([3])),
        "entanglement.chsh": lambda f: f(entanglement.MeasurementPlan(), entanglement.PSI_MINUS),
        "entanglement.sample_pair_outcomes":
            lambda f: f(entanglement.PSI_MINUS, 0.0, 0.5, 4, rng()),
        "entanglement.estimate_correlation":
            lambda f: f(entanglement.PSI_MINUS, 0.0, 0.5, 4, rng()),
        "entanglement.delayed_correlation":
            lambda f: f(entanglement.PSI_MINUS, 0.0, 0.5, 1.0, dwell),
        "entanglement.correlation": lambda f: f(entanglement.PSI_MINUS, 0.0, 0.5),
        "entanglement.outcome_counts": lambda f: f(np.array([1]), np.array([-1])),
        "telegraph.flip_parity": lambda f: f(dwell, 0.5, rng(), 4),
        "telegraph.simulate": lambda f: f(dwell, 3.0, 1, rng()),
        "telegraph.empirical_fractions":
            lambda f: f(telegraph.TelegraphTrajectory((0.0,), (1,), 1.0)),
        "fluctuations.kl_shift_rate": lambda f: f(x, rho, tp, rng(), n_shifts=4),
        "fluctuations.sample_displacement": lambda f: f(tp, rng(), 4),
        "fluctuations.expected_angular_momentum":
            lambda f: f(fluctuations.RotationParams(), 10**4, rng()),
        "fluctuations.fisher_functional": lambda f: f(x, rho, tp),
        "pauli.evolve": lambda f: f(field, fc, 1e-3, 1),
        "pauli.continuity_residual": lambda f: f([field] * 3, 1e-3, fc),
        "pauli.hj_residual": lambda f: f([field] * 3, 1e-3, fc),
        "pauli.total_energy": lambda f: f(field, fc),
        "pauli.snapshot_rows": lambda f: f(field),
        "streams.stream": lambda f: f(1, "selftest"),
        "qm_oracle.overlap_prob": lambda f: f(0.1, 0.2),
        "qm_oracle.singlet_correlation": lambda f: f(0.1, 0.2),
    }


def check_bindings():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spinmodel.cli  # noqa: F401  (binds cli.stream and friends)

    tracer = tracing.Tracer().install()
    left = tracer.unwrapped()
    report(not left, f"no spinmodel namespace keeps an unwrapped traced function {left or ''}")
    traced = {f"{m}.{f}" for m, fs in tracing.TRACED.items() for f in fs}
    bound = {name for _, _, name in tracer.bindings}
    report(bound == traced, f"every traced function is bound somewhere {traced - bound or ''}")
    for must in (("spinmodel.stern_gerlach", "sample_theta"),
                 ("spinmodel.entanglement", "flip_parity"), ("spinmodel.cli", "stream")):
        report(must in {(m, a) for m, a, _ in tracer.bindings},
               f"re-exported binding {'.'.join(must)} is wrapped")
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) as tmp:
        calls = sample_calls(tmp)
        missed = []
        for mod_name, attr, name in tracer.bindings:
            fn = getattr(sys.modules[mod_name], attr)
            tracer.op = "selftest"
            before = len(tracer.spans)
            try:
                calls[name](fn)
            finally:
                tracer.op = None
            recorded = {s[0] for s in tracer.spans[before:]}
            want = "pauli.evolve_1d" if name == "pauli.evolve" else name
            if want not in recorded:
                missed.append(f"{mod_name}.{attr}")
        report(not missed, f"a call through each of {len(tracer.bindings)} bindings "
                           f"records its span {missed or ''}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "spinmodel", "__init__.py")):
        sys.exit("run from the root of a spinmodel checkout")
    check_bindings()
    check_runs()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
