"""Experiment runner: subcommand dispatch, seeding, and result emission.

Every run writes its result files (CSV or JSON) plus a ``manifest.json``
into the output directory.  Reruns with the same configuration and seed
produce byte-identical result files; the manifest additionally records
the wall-clock duration and is therefore not byte-stable.

Configuration may come from a file (``key = value`` lines or a JSON
document) with command-line flags taking precedence.  Unknown keys are
rejected.  Exit codes: 0 success, 2 malformed configuration, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import entanglement, fluctuations, orientation, pauli, qm_oracle
from . import stern_gerlach as sg
from . import telegraph
from .orientation import ConvergenceError
from .streams import stream

ENV_OUT = "SPINMODEL_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
        return data
    config = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        config[key.strip()] = _parse_scalar(value.strip())
    return config


def merge_config(defaults: dict, file_config: dict, cli_overrides: dict) -> dict:
    unknown = sorted(set(file_config) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = dict(defaults)
    merged.update(file_config)
    merged.update({k: v for k, v in cli_overrides.items() if v is not None})
    _validate(merged)
    return merged


def _validate(config: dict):
    for key in ("samples", "pairs", "steps", "nodes", "bins"):
        if key in config and int(config[key]) < 1:
            raise ConfigError(f"{key} must be >= 1")
    for key in ("tau", "transit_time", "dt", "eta", "extent"):
        if key in config and float(config[key]) <= 0:
            raise ConfigError(f"{key} must be positive")
    if "m" in config and config["m"] is not None and int(config["m"]) < 0:
        raise ConfigError("m must be non-negative")
    if "delays" in config and any(float(d) < 0 for d in _as_list(config["delays"])):
        raise ConfigError("delays must be non-negative")
    if "state" in config and config["state"] not in entanglement.BELL_MODELS:
        raise ConfigError(
            f"state must be one of: {', '.join(entanglement.BELL_MODELS)}"
        )
    if "mode" in config and config["mode"] not in (
        entanglement.ANALYTIC, entanglement.MONTE_CARLO
    ):
        raise ConfigError(
            f"mode must be {entanglement.ANALYTIC} or {entanglement.MONTE_CARLO}"
        )


def _as_list(value):
    if isinstance(value, str):
        return [_parse_scalar(v) for v in value.split(",") if v.strip()]
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


# ---------------------------------------------------------------------------
# output


def _fmt(value):
    if isinstance(value, float):
        # float() drops numpy's scalar repr, np.float64(...) under numpy 2
        return repr(float(value))
    return value


def write_csv(path: str, header: list, rows: list):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_result(out_dir, name, fmt, header, rows, summary):
    """Emit one result table in the requested format; returns the filename."""
    if fmt == "csv":
        path = os.path.join(out_dir, f"{name}.csv")
        write_csv(path, header, rows)
    else:
        path = os.path.join(out_dir, f"{name}.json")
        payload = dict(summary)
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        write_json(path, payload)
    return os.path.basename(path)


def write_manifest(out_dir, subcommand, config, seed, files, started, summary):
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "config": config,
        "result_files": files,
        "duration_seconds": time.monotonic() - started,
        "summary": summary,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# experiments


DEFAULTS = {
    "variational": {
        "orders": "1,2,3",
        "nodes": 2048,
    },
    "stern-gerlach": {
        "samples": 100000,
        "beta": math.pi / 3,
        "m": 1,
        "eta": 1.0,
        "transit_time": 1.0,
        "bins": 200,
    },
    "bell-test": {
        "state": "psi_minus",
        "samples": 1000000,
        "a": 0.0,
        "a_prime": math.pi / 2,
        "b": math.pi / 4,
        "b_prime": 3 * math.pi / 4,
        "mode": "monte_carlo",
    },
    "bell-delay": {
        "state": "psi_minus",
        "samples": 200000,
        "a": 0.0,
        "a_prime": math.pi / 2,
        "b": math.pi / 4,
        "b_prime": 3 * math.pi / 4,
        "tau": 1.0,
        "delays": "0,0.1,0.2,0.5,1,2,5,10",
        "mode": "analytic",
        "degrade_y": False,
    },
    "pauli": {
        "nodes": 256,
        "extent": 20.0,
        "dt": 0.001,
        "steps": 1000,
        "b_z": 1.0,
        "stride": 8,
        "packet_width": 1.0,
    },
    "fluctuations": {
        "samples": 1000000,
        "mass": 1.0,
        "omega": 1.0,
        "dt": 1.0,
        "dt_sequence": "0.1,0.01,0.001",
    },
    "oracle-check": {
        "pairs": 100,
    },
}


def run_variational(config, seed, out_dir, fmt):
    rows = []
    for m in [int(v) for v in _as_list(config["orders"])]:
        for divergence in (orientation.TSALLIS, orientation.RENYI):
            spec = orientation.ActionSpec(divergence=divergence, m=m)
            solved = orientation.variational_solve(spec, n_nodes=int(config["nodes"]))
            closed = orientation.eval_density(m, solved.thetas)
            linf = float(np.max(np.abs(solved.values - closed)))
            rows.append((m, divergence, linf))
    kl_spec = orientation.ActionSpec(divergence=orientation.KULLBACK_LEIBLER)
    kl = orientation.variational_solve(kl_spec, n_nodes=int(config["nodes"]))
    min_value = float(np.min(kl.values))
    rows.append((kl_spec.m, orientation.KULLBACK_LEIBLER, min_value))
    header = ["order_m", "divergence", "linf_error_or_min_density"]
    summary = {"kl_min_density": min_value}
    files = [write_result(out_dir, "variational", fmt, header, rows, summary)]
    return files, summary


def run_stern_gerlach(config, seed, out_dir, fmt):
    rng = stream(seed, "stern-gerlach")
    n = int(config["samples"])
    beta = float(config["beta"])
    p_up = sg.rotated_up_probability(beta)
    outcomes = sg.measure_many(
        orientation.TwoPointDensity(p_up, 1.0 - p_up), rng, n
    )
    up_fraction = float(np.mean(outcomes == sg.UP))
    apparatus = sg.ApparatusConfig(
        axis_angle=beta,
        gradient=float(config["eta"]),
        transit_time=float(config["transit_time"]),
        m=int(config["m"]),
    )
    _, edges, counts = sg.displacement_distribution(
        apparatus.m, apparatus, n, rng, bins=int(config["bins"])
    )
    header = ["bin_left", "bin_right", "count", "density"]
    summary = {
        "beta": beta,
        "analytic_up_probability": p_up,
        "empirical_up_fraction": up_fraction,
        "samples": n,
    }
    files = [
        write_result(
            out_dir, "displacement_histogram", fmt, header,
            sg.histogram_rows(edges, counts), summary,
        )
    ]
    if fmt == "csv":
        path = os.path.join(out_dir, "measurement_summary.json")
        write_json(path, summary)
        files.append(os.path.basename(path))
    return files, summary


def run_bell_test(config, seed, out_dir, fmt):
    model = entanglement.BELL_MODELS[config["state"]]
    plan = entanglement.MeasurementPlan(
        alice_angles=(float(config["a"]), float(config["a_prime"])),
        bob_angles=(float(config["b"]), float(config["b_prime"])),
        samples=int(config["samples"]),
    )
    rng = stream(seed, "bell-test")
    result = entanglement.chsh(plan, model, mode=config["mode"], rng=rng)
    rows = [
        (a, b, *counts, e, se)
        for (a, b), counts, e, se in zip(
            result.settings, result.counts, result.expectations, result.stderrs
        )
    ]
    header = ["a", "b", "n_pp", "n_pm", "n_mp", "n_mm", "E", "stderr"]
    summary = {
        "state": config["state"],
        "mode": config["mode"],
        "S": result.statistic,
        "samples": plan.samples,
    }
    files = [write_result(out_dir, "bell_test", fmt, header, rows, summary)]
    path = os.path.join(out_dir, "bell_test_summary.json")
    write_json(path, summary)
    files.append(os.path.basename(path))
    return files, summary


def run_bell_delay(config, seed, out_dir, fmt):
    model = entanglement.BELL_MODELS[config["state"]]
    dwell = telegraph.DwellModel(float(config["tau"]), float(config["tau"]))
    delays = [float(d) for d in _as_list(config["delays"])]
    rows = []
    for i, delay in enumerate(delays):
        plan = entanglement.MeasurementPlan(
            alice_angles=(float(config["a"]), float(config["a_prime"])),
            bob_angles=(float(config["b"]), float(config["b_prime"])),
            samples=int(config["samples"]),
            delay=delay,
            dwell=dwell,
        )
        rng = stream(seed, "bell-delay", i)
        result = entanglement.chsh(
            plan, model, mode=config["mode"], rng=rng,
            degrade_y=bool(config["degrade_y"]),
        )
        rows.append((delay, result.statistic))
    header = ["delay", "S"]
    summary = {
        "state": config["state"],
        "mode": config["mode"],
        "tau": float(config["tau"]),
        "degrade_y": bool(config["degrade_y"]),
        "S_first": rows[0][1],
        "S_last": rows[-1][1],
    }
    files = [write_result(out_dir, "bell_delay", fmt, header, rows, summary)]
    return files, summary


def run_pauli(config, seed, out_dir, fmt):
    grid = pauli.SpatialGrid(1, int(config["nodes"]), float(config["extent"]))
    packet = pauli.gaussian_packet(grid, width=float(config["packet_width"]))
    init = pauli.SpinorField.normalized(grid, packet, packet)
    field_config = pauli.FieldConfig(b_z=float(config["b_z"]))
    final = pauli.evolve(init, field_config, float(config["dt"]), int(config["steps"]))
    rows = pauli.snapshot_rows(final, stride=int(config["stride"]))
    header = ["x", "rho_plus", "rho_minus", "s_plus", "s_minus"]
    summary = {
        "norm": pauli.norm(final),
        "populations": list(pauli.spin_populations(final)),
        "zeeman_energy": pauli.zeeman_energy(final, field_config),
        "grid": {"nodes": grid.nodes, "extent": grid.extent, "dt": config["dt"]},
    }
    files = [write_result(out_dir, "pauli_snapshot", fmt, header, rows, summary)]
    return files, summary


def run_fluctuations(config, seed, out_dir, fmt):
    rng = stream(seed, "fluctuations")
    n = int(config["samples"])
    trans = fluctuations.TranslationParams(float(config["mass"]), float(config["dt"]))
    w = fluctuations.sample_displacement(trans, rng, n)
    product = fluctuations.uncertainty_product(w, trans)
    rows = [("uncertainty_product", product, 0.5)]
    for i, (mass, omega) in enumerate([(1.0, 1.0), (3.0, 7.0), (0.5, 2.0)]):
        rot = fluctuations.RotationParams(mass, omega)
        ls = fluctuations.expected_angular_momentum(rot, n, stream(seed, "ls", i))
        rows.append((f"angular_momentum_m{mass}_w{omega}", ls, 0.5))
    x = np.linspace(-10, 10, 4001)
    rho = np.exp(-(x**2) / 2.0) / math.sqrt(2 * math.pi)
    for dt in [float(v) for v in _as_list(config["dt_sequence"])]:
        p = fluctuations.TranslationParams(float(config["mass"]), dt)
        rate = fluctuations.kl_shift_rate(x, rho, p, stream(seed, "kl", dt))
        fisher = fluctuations.fisher_functional(x, rho, p)
        rows.append((f"kl_over_fisher_dt{dt}", rate / fisher, 1.0))
    header = ["quantity", "estimate", "expected"]
    summary = {"uncertainty_product": product, "samples": n}
    files = [write_result(out_dir, "fluctuations", fmt, header, rows, summary)]
    return files, summary


def run_oracle_check(config, seed, out_dir, fmt):
    rng = stream(seed, "oracle-check")
    n = int(config["pairs"])
    rows = []
    max_overlap = 0.0
    max_singlet = 0.0
    for _ in range(n):
        b1, b2 = rng.uniform(0, 2 * math.pi, 2)
        model_p = sg.two_apparatus_up_probability(b1, b2)
        oracle_p = qm_oracle.overlap_prob(b1, b2)
        a, b = rng.uniform(0, 2 * math.pi, 2)
        model_e = entanglement.correlation(entanglement.PSI_MINUS, a, b)
        oracle_e = qm_oracle.singlet_correlation(a, b)
        max_overlap = max(max_overlap, abs(model_p - oracle_p))
        max_singlet = max(max_singlet, abs(model_e - oracle_e))
        rows.append((b1, b2, model_p, oracle_p, a, b, model_e, oracle_e))
    header = [
        "beta1", "beta2", "model_up_prob", "oracle_up_prob",
        "a", "b", "model_correlation", "oracle_correlation",
    ]
    summary = {
        "max_abs_overlap_difference": max_overlap,
        "max_abs_correlation_difference": max_singlet,
        "pairs": n,
    }
    files = [write_result(out_dir, "oracle_check", fmt, header, rows, summary)]
    return files, summary


RUNNERS = {
    "variational": run_variational,
    "stern-gerlach": run_stern_gerlach,
    "bell-test": run_bell_test,
    "bell-delay": run_bell_delay,
    "pauli": run_pauli,
    "fluctuations": run_fluctuations,
    "oracle-check": run_oracle_check,
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmodel", description="Spin-model experiment runner"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="config file (key=value or JSON)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for key, value in defaults.items():
            if key == "samples":
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                p.add_argument(flag, dest=key, action="store_true", default=None)
            elif isinstance(value, int):
                p.add_argument(flag, dest=key, type=int, default=None)
            elif isinstance(value, float):
                p.add_argument(flag, dest=key, type=float, default=None)
            else:
                p.add_argument(flag, dest=key, default=None)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    defaults = DEFAULTS[name]
    try:
        file_config = load_config_file(args.config) if args.config else {}
        overrides = {
            key: getattr(args, key, None)
            for key in defaults
            if getattr(args, key, None) is not None
        }
        if "samples" in defaults and args.samples is not None:
            overrides["samples"] = args.samples
        config = merge_config(defaults, file_config, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or os.environ.get(ENV_OUT) or "."
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    try:
        files, summary = RUNNERS[name](config, args.seed, out_dir, args.format)
    except ConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    write_manifest(out_dir, name, config, args.seed, files, started, summary)
    print(json.dumps({"subcommand": name, "out": out_dir, **summary}, default=str))
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
