"""Workload process for the in-process workloads (mc-ensemble, pauli-field).

Started fresh by run.py.  It times ``import spinmodel``, runs one untimed
warm-up op, prints ``ready`` (run.py measures set-up time up to that line),
then runs the round's op list ``--rounds`` times and writes a JSON report to
``--report``.  With ``--trace`` it runs the same rounds once more with the
tracing wrappers installed and adds the spans to the report.

    python3 bench/worker.py --workload mc-ensemble --seed 1 --rounds 5 \
        --src src --report out.json [--trace] [--probe]
"""

import argparse
import json
import os
import sys
import time


def run_rounds(ops_mod, plan, rounds, tracer=None):
    """Run the op list ``rounds`` times; a round's checks run after its ops.

    Op ids are ``round:index``, prefixed with ``t`` when traced."""
    prefix = "t" if tracer is not None else ""
    records = []
    clock = time.perf_counter
    for r in range(rounds):
        results = []
        for i, op in enumerate(plan):
            if tracer is not None:
                tracer.op = f"{prefix}{r}:{i}"
            t0 = clock()
            try:
                result, error = ops_mod.run_op(op), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            results.append((clock() - t0, result, error))
            if tracer is not None:
                tracer.op = None
        for i, (op, (wall, result, error)) in enumerate(zip(plan, results)):
            failures, known = ([error], []) if error else ops_mod.check_op(op, result)
            records.append(dict(op=f"{prefix}{r}:{i}", kind=op[0], wall=wall,
                                failures=failures, known=known))
    return records


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--src", required=True)
    parser.add_argument("--report")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    before = len(sys.modules)
    t0 = time.perf_counter()
    import spinmodel
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - before
    src = os.path.realpath(args.src)
    if not os.path.realpath(spinmodel.__file__).startswith(src + os.sep):
        sys.exit(f"spinmodel imported from {spinmodel.__file__}, not {src}")

    import ops as ops_mod
    import tracing

    plan = ops_mod.build(args.workload, args.seed)
    ops_mod.warm_up(args.workload)
    print("ready", flush=True)
    if args.probe:
        return

    records = run_rounds(ops_mod, plan, args.rounds)
    report = dict(import_s=import_s, modules_loaded=modules_loaded, records=records,
                  working_sets=ops_mod.working_sets(args.workload))
    if args.trace:
        tracer = tracing.Tracer().install()
        report.update(traced_records=run_rounds(ops_mod, plan, args.rounds, tracer),
                      spans=tracer.spans)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
