"""spinmodel benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload {cli-defaults,mc-ensemble,pauli-field} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout holding ``src/spinmodel``; everything it
writes stays in ``.bench_tmp/`` there and is removed at the end.  Load is a
closed loop with one client: at most one child process runs at a time.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the same batch runs once untraced and once traced, and the
last line carries the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import cli_checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("cli-defaults", "mc-ensemble", "pauli-field")
# A run repeats its workload's fixed round of ops; the count depends only on
# --seconds, so the work done is the same on every commit.
ROUND_NOMINAL_S = {"cli-defaults": 8.0, "mc-ensemble": 3.5, "pauli-field": 0.6}
# 3 cli passes give 21 ops, the fewest with 10 beyond the median.
MIN_ROUNDS = {"cli-defaults": 3, "mc-ensemble": 3, "pauli-field": 10}
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
REPEAT_PERCENTILE = 90  # an op's latency over its repeats; see op_latencies
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Child:
    """One child process whose wall time and peak RSS are measured."""

    def __init__(self, cmd, env, cwd):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                                     text=True)

    def wait_line(self):
        """Read one stdout line; returns (line, seconds since launch)."""
        line = self.proc.stdout.readline()
        return line.strip(), time.perf_counter() - self.started

    def finish(self):
        """Reap the child; returns (exit code, wall seconds, peak RSS MiB)."""
        self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.started
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, wall, usage.ru_maxrss / 1024.0


def percentile(values, p):
    """Linear-interpolation percentile (p in 0..100) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND ops beyond it."""
    return max(0, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


def environment(working_sets):
    """Machine and library facts recorded beside every result."""
    def cache(level):
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
            with open(os.path.join(base, index, "level")) as fh:
                if fh.read().strip() != str(level):
                    continue
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        return None

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    if working_sets:
        env["pauli_grids"] = [
            dict(grid, l2_ratio=grid["working_set_bytes"] / env["l2_bytes"],
                 l3_ratio=grid["working_set_bytes"] / env["l3_bytes"])
            for grid in working_sets
        ]
    return env


class Run:
    def __init__(self, args, root):
        self.args, self.root = args, root
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_tmp"))
        self.rounds = max(MIN_ROUNDS[args.workload],
                          int(args.seconds // ROUND_NOMINAL_S[args.workload]))
        self.last_child = None

    def close(self):
        """Stop a child left running by an error, then remove the temp dir."""
        if self.last_child and self.last_child.proc.poll() is None:
            self.last_child.proc.kill()
            self.last_child.proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, cmd):
        self.last_child = Child([sys.executable] + cmd, self.env, self.root)
        return self.last_child

    # -- set-up -----------------------------------------------------------

    def prepare(self):
        """Byte-compile the package so no measured process pays for it."""
        code, _, _ = self.child(["-m", "compileall", "-q", self.src]).finish()
        if code != 0:
            raise SystemExit("cannot byte-compile src/")

    def worker_cmd(self, *extra):
        a = self.args
        return [os.path.join(BENCH_DIR, "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--src", self.src, *extra]

    def setup_probe(self):
        if self.args.workload == "cli-defaults":
            code, wall, _ = self.child(["-c", "import spinmodel.cli"]).finish()
        else:
            child = self.child(self.worker_cmd("--probe"))
            line, wall = child.wait_line()
            code = child.finish()[0] or (line != "ready")
        if code != 0:
            raise SystemExit("set-up probe failed")
        return wall

    # -- in-process workloads -----------------------------------------------

    def run_worker(self, setups):
        report_path = os.path.join(self.tmp, "report.json")
        extra = ["--rounds", str(self.rounds), "--report", report_path]
        child = self.child(self.worker_cmd(*extra, *(["--trace"] if self.args.trace else [])))
        line, ready = child.wait_line()
        code, _, rss = child.finish()
        if line != "ready" or code != 0:
            raise SystemExit(f"workload process failed (exit {code})")
        setups.append(ready)
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        result = dict(records=report["records"], rss=[rss],
                      working_sets=report.get("working_sets"))
        if self.args.trace:
            spans = report["spans"]
            result.update(
                traced_records=report["traced_records"],
                totals=tracing.aggregate(spans),
                op_self=tracing.op_self_times(spans),
                import_s=report["import_s"],
                modules_loaded=report["modules_loaded"],
                cli_op_walls={},
            )
        return result

    # -- cli-defaults ---------------------------------------------------------

    def run_cli_pass_list(self, traced):
        records, rss = [], []
        totals, op_self, imports, modules, op_walls = {}, {}, [], set(), {}
        for p, pass_ops in enumerate(cli_checks.plan(self.args.seed, self.rounds)):
            done = []
            pass_dir = os.path.join(self.tmp, f"{'t' if traced else 'u'}{p}")
            for sub, cli_seed, fmt in pass_ops:
                out = os.path.join(pass_dir, sub)
                args = [sub, "--seed", str(cli_seed), "--format", fmt, "--out", out]
                report = out + ".spans.json"
                cmd = ([os.path.join(BENCH_DIR, "cli_op.py"), report] if traced
                       else ["-m", "spinmodel.cli"]) + args
                code, wall, peak = self.child(cmd).finish()
                done.append((sub, fmt, out, code, wall, report))
                rss.append(peak)
            for i, (sub, fmt, out, code, wall, report) in enumerate(done):
                if code != 0:
                    failures, known = [f"exit code {code}"], []
                else:
                    failures, known = cli_checks.check(sub, out, fmt)
                op_id = f"{'t' if traced else ''}{p}:{i}"
                records.append(dict(op=op_id, kind=sub, wall=wall,
                                    failures=failures, known=known))
                if traced and os.path.exists(report):
                    with open(report, encoding="utf-8") as fh:
                        data = json.load(fh)
                    tracing.aggregate(data["spans"], totals)
                    op_self[op_id] = sum(tracing.op_self_times(data["spans"]).values())
                    imports.append(data["import_s"])
                    modules.add(data["modules_loaded"])
                    op_walls.setdefault(sub, []).append(wall)
            shutil.rmtree(pass_dir)
        result = dict(records=records, rss=rss)
        if traced:
            result.update(totals=totals, op_self=op_self,
                          import_s=statistics.median(imports) if imports else 0.0,
                          modules_loaded=max(modules) if modules else 0,
                          modules_loaded_values=sorted(modules),
                          cli_op_walls=op_walls)
        return result

    def run_cli(self, setups):
        result = self.run_cli_pass_list(traced=False)
        if self.args.trace:
            traced = self.run_cli_pass_list(traced=True)
            traced["traced_records"] = traced.pop("records")
            traced["rss"] = result["rss"] + traced["rss"]
            result.update(traced)
        return result

    # -- one run ------------------------------------------------------------

    def execute(self):
        self.prepare()
        setups = [self.setup_probe() for _ in range(SETUP_SAMPLES - 1)]
        if self.args.workload == "cli-defaults":
            setups.append(self.setup_probe())
            result = self.run_cli(setups)
        else:
            result = self.run_worker(setups)
        result["setups"] = setups
        return result


def op_latencies(records):
    """{op position in the round: its REPEAT_PERCENTILE latency over the repeats}.

    Every round repeats the same ops.  On a shared host the repeats run at two
    speeds about 1.5x apart, and the share of fast repeats drifts over minutes
    with the neighbours' load; a median that falls between the two speeds
    jumps from run to run, while a high percentile stays on the slow,
    sustained speed.
    """
    repeats = {}
    for r in records:
        repeats.setdefault(r["op"].split(":")[1], []).append(r["wall"])
    return {pos: percentile(walls, REPEAT_PERCENTILE) for pos, walls in repeats.items()}


def summarize(args, result, env):
    """Print the human-readable report and return the final JSON object."""
    records = result["records"] + result.get("traced_records", [])
    failed = [r for r in records if r["failures"] or r["known"]]
    unexpected = [r for r in records if r["failures"]]
    per_op = op_latencies(result["records"])
    latencies = [per_op[r["op"].split(":")[1]] for r in result["records"]]
    tail_p = tail_percentile(len(latencies))
    end_to_end = {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "wall_s": (sum(per_op.values()), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (percentile(latencies, tail_p), "s"),
        "peak_rss_mb": (max(result["rss"]), "MiB"),
    }
    fail_ratio = len(failed) / len(records)
    rounds = len(latencies) // len(per_op)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={rounds} ops_per_round={len(per_op)}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(f"  each op's latency is p{REPEAT_PERCENTILE} of its {rounds} repeats; wall_s sums them "
          f"over one round; op_tail_s is p{tail_p} of {len(latencies)} ops; setup_s is "
          f"the median of {len(result['setups'])} fresh processes")
    print(f"  fail_ratio   {fail_ratio:.6g} 1  ({len(failed)} of {len(records)} ops; "
          f"{len(failed) - len(unexpected)} only by known defects)")
    for r in failed[:20]:
        print(f"    op {r['op']} {r['kind']}: " + "; ".join(r["failures"] + r["known"])[:300])
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        traced_wall = sum(op_latencies(result["traced_records"]).values())
        overhead = traced_wall / end_to_end["wall_s"][0] - 1.0
        layer = tracing.layer_metrics(result["totals"], result["import_s"],
                                      result["modules_loaded"], result["cli_op_walls"],
                                      overhead)
        walls = {r["op"]: r["wall"] for r in result["traced_records"]}
        over = [op for op, s in result["op_self"].items() if s > walls[op]]
        print(f"  traced self_s exceeds op wall on {len(over)} ops")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    return {"correct": not unexpected, "attempted": len(records),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    for needed in ("src/spinmodel/__init__.py", "src/spinmodel/cli.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from a spinmodel checkout",
                  file=sys.stderr)
            return 2
    run = Run(args, root)
    try:
        result = run.execute()
    finally:
        run.close()
    line = summarize(args, result, environment(result.get("working_sets")))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
