"""Experiment runner: subcommand dispatch, seeding, and result emission.

Runners compute and ``run`` writes.  A runner maps ``(config, seed)`` to
one ``(name, header, rows)`` table and a JSON summary; ``run`` writes the
table, two subcommands' summary files and a ``manifest.json``.  Reruns
with the same configuration and seed produce byte-identical result files;
the manifest also records the wall-clock duration, so it is not byte-stable.

Configuration may come from a file (``key = value`` lines or a JSON
document) with command-line flags taking precedence.  ``SCHEMA`` gives each
subcommand its keys, each with one parser and one default, and a flag per
key.  Flag and ``key = value`` values are read as JSON literals, then parsed
like JSON file values, each number by the library's own count or real rule
(`streams`): counts integral (``1e6`` is one), numbers finite, lists
``1,2,3`` or a JSON list.  Unknown keys are rejected.  Exit codes:
0 success; 2 malformed configuration, naming the key, a value a model's
constructor rejects with ``ValueError``, or an unusable output directory;
3 numerical non-convergence: the phase factors of ``dt`` (of ``dt * steps``
for the uniform ``pauli`` field) and the field are not finite.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from . import entanglement, fluctuations, orientation, pauli, qm_oracle
from . import stern_gerlach as sg
from .streams import BLOCK, MAX_DRAWS, _require_count, _require_real, stream

ENV_OUT = "SPINMODEL_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def _parse_scalar(text: str):
    """A JSON literal (number, bool, list, quoted string) or the raw text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _list_of(item):
    """Parser of a non-empty list: a JSON list or a comma-separated string."""

    def parse(key, value):
        if isinstance(value, str):
            value = [_parse_scalar(v) for v in value.split(",") if v.strip()]
        elif not isinstance(value, list):
            value = [value]
        if not value:
            raise ConfigError(f"{key}: needs at least one value")
        return [item(key, v) for v in value]

    return parse


def _choice(*options):
    def parse(key, value):
        if value not in options:
            choices = ", ".join(options)
            raise ConfigError(f"{key}: must be one of {choices}, got {value!r}")
        return value

    return parse


def _flag(key, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: must be true or false, got {value!r}")
    return value


COUNT = partial(_require_count, high=math.inf)
REAL = _require_real
POSITIVE = partial(_require_real, low=0.0, open_low=True)
# every sampling subcommand draws its counts and rows as variates of their
# exact laws (fluctuations one Gamma variate per sampled row, stern-gerlach a
# binomial and a multinomial, the Bell runs a multinomial per setting), so a
# run's cost does not grow with samples.  The bound is numpy's,
# streams.MAX_DRAWS = 2^53, the largest count it draws exactly.  NODES
# bounds the arrays of a grid: a variational grid of 1e7 nodes peaks at
# ~0.42 GiB, and pauli at 2^23 nodes at ~1.3 GiB at the default stride of 8
# (~3.5 GiB at stride 1, measured while a run still held its packet and
# initial spinor to the end)
SAMPLES = partial(_require_count, high=MAX_DRAWS)
NODES = partial(_require_count, low=2, high=10**7)  # a grid needs two nodes to have a spacing
# a variational grid must resolve the cos^{2m} peak, of width ~1/sqrt(m),
# with its node spacing pi/(nodes - 1): at m = 10^6 the peak is ~1e-3 wide
# and the default 2048 nodes are ~1.5e-3 apart
ORDER = partial(_require_count, high=10**6)
MODE = _choice(entanglement.ANALYTIC, entanglement.MONTE_CARLO)
_PAIR = {  # the Bell state and the CHSH angles
    "state": (_choice(*entanglement.BELL_MODELS), "psi_minus"),
    "a": (REAL, 0.0),
    "a_prime": (REAL, math.pi / 2),
    "b": (REAL, math.pi / 4),
    "b_prime": (REAL, 3 * math.pi / 4),
}

# the shift variances dt / 2 (unit mass) a KL row admits.  The row's ratio to
# its exact 1 depends on the variance v = dt / (2 mass) alone
# (tests/test_fluctuations.py); on the row's 4001-node grid of [-10, 10] it is
# within 1e-4 of 1 for v from ~2e-14 to ~4.5, and within 4.3e-5 on this band.
# Below it, the rounding of log rho at the grid's edge swamps the divergence
# (-0.70 at v = 5e-19); above it, the outer shifts leave the grid (0.146 at
# v = 500)
_KL_VARIANCES = (1e-13, 4.0)
# doubling is exact, so dt / 2 is in _KL_VARIANCES where dt is here
KL_DT = partial(_require_real, low=2 * _KL_VARIANCES[0], high=2 * _KL_VARIANCES[1])

# subcommand -> key -> (parser, default)
SCHEMA = {
    "variational": {"orders": (_list_of(ORDER), "1,2,3"), "nodes": (NODES, 2048)},
    "stern-gerlach": {
        "samples": (SAMPLES, 100000),
        "beta": (REAL, math.pi / 3),
        # ApparatusConfig takes any whole m below 2**52; the bin law and Z_m
        # cost O(1) in m
        "m": (partial(_require_count, low=0, high=math.inf), 1),
        "eta": (POSITIVE, 1.0),
        # bounds the output's cost: at 2**14 bins a run peaks at ~40 MiB RSS
        # as csv (~36 MiB at 200 bins), its bin law takes ~6 ms and the run
        # ~0.25 s on a 2-core host, as at 200 bins
        "bins": (partial(_require_count, high=BLOCK), 200),
    },
    "bell-test": {
        **_PAIR,
        "samples": (SAMPLES, 1000000),
        "mode": (MODE, "monte_carlo"),
    },
    "bell-delay": {
        **_PAIR,
        "samples": (SAMPLES, 200000),
        "delays": (_list_of(partial(_require_real, low=0.0)), "0,0.1,0.2,0.5,1,2,5,10"),
        "mode": (MODE, "analytic"),
        "degrade_y": (_flag, False),
    },
    "pauli": {
        "nodes": (NODES, 256),
        "extent": (POSITIVE, 20.0),
        "dt": (POSITIVE, 0.001),
        # the run's b_z is uniform, so evolve takes its steps as one step of
        # steps * dt: a run's time grows with nodes alone, which NODES
        # bounds, and a dt * steps whose phase factors are not finite exits 3
        "steps": (COUNT, 1000),
        "b_z": (REAL, 1.0),
        "stride": (COUNT, 8),
        "packet_width": (POSITIVE, 1.0),
    },
    "fluctuations": {
        "samples": (SAMPLES, 1000000),
        "dt_sequence": (_list_of(KL_DT), "0.1,0.01,0.001"),
    },
    # bounds the per-pair loop, which keeps every row: 10^5 pairs take ~2.5 s
    # and peak at ~75 MiB RSS end to end (2-core host)
    "oracle-check": {"pairs": (partial(_require_count, high=10**5), 100)},
}


def load_config_file(path: str) -> dict:
    try:
        # utf-8-sig drops a byte-order mark, which would hide a JSON "{"
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if raw.lstrip().startswith("{"):
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
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


def merge_config(keys: dict, file_config: dict, cli_overrides: dict) -> dict:
    """Defaults, then file values, then flags, each parsed by its key's
    parser in `keys`, one subcommand's ``SCHEMA`` entry, whose refusal names
    the key."""
    unknown = sorted((set(file_config) | set(cli_overrides)) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    defaults = {key: default for key, (_, default) in keys.items()}
    merged = {**defaults, **file_config, **cli_overrides}
    try:
        return {key: keys[key][0](key, value) for key, value in merged.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output


def write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_result(out_dir, name, fmt, header, rows, summary):
    """Emit one result table in the requested format; returns the filename."""
    path = os.path.join(out_dir, f"{name}.{fmt}")
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    else:
        write_json(path, {**summary, "rows": [dict(zip(header, r)) for r in rows]})
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


def run_variational(config, seed):
    rows = []
    for m in config["orders"]:
        # Tsallis and Renyi solve to one closed form: both rows take its L-infinity
        solved = orientation.variational_solve(orientation.ActionSpec(m=m), config["nodes"])
        error = orientation.eval_density(m, solved.thetas)
        error -= solved.values
        linf = float(np.max(np.abs(error, out=error)))
        del solved, error  # before the next order's grid is built
        rows += [(m, d, linf) for d in (orientation.TSALLIS, orientation.RENYI)]
    kl_spec = orientation.ActionSpec(divergence=orientation.KULLBACK_LEIBLER)
    kl = orientation.variational_solve(kl_spec, n_nodes=config["nodes"])
    min_value = float(np.min(kl.values))
    rows.append((kl_spec.m, orientation.KULLBACK_LEIBLER, min_value))
    header = ["order_m", "divergence", "linf_error_or_min_density"]
    return ("variational", header, rows), {"kl_min_density": min_value}


def run_stern_gerlach(config, seed):
    rng = stream(seed, "stern-gerlach")
    n = config["samples"]
    beta = config["beta"]
    p_up = sg.two_apparatus_up_probability(0.0, beta)
    density = orientation.TwoPointDensity(p_up, 1.0 - p_up)
    up_fraction = sg.up_count(density, rng, n) / n
    apparatus = sg.ApparatusConfig(gradient=config["eta"], m=config["m"])
    edges, counts = sg.displacement_histogram(apparatus, n, rng, config["bins"])
    header = ["bin_left", "bin_right", "count", "density"]
    summary = {
        "beta": beta,
        "analytic_up_probability": p_up,
        "empirical_up_fraction": up_fraction,
        "samples": n,
    }
    rows = sg.histogram_rows(edges, counts)
    return ("displacement_histogram", header, rows), summary


def _chsh(config, seed, *ids, delay=0.0):
    """The CHSH result of the run's pair at `delay`, drawn from stream(seed,
    *ids) in Monte Carlo mode; analytic mode draws nothing, so it builds no
    stream and a default bell-delay run never loads numpy.random."""
    plan = entanglement.MeasurementPlan(
        alice_angles=(config["a"], config["a_prime"]),
        bob_angles=(config["b"], config["b_prime"]),
        samples=config["samples"],
        delay=delay,
    )
    mode = config["mode"]
    rng = stream(seed, *ids) if mode == entanglement.MONTE_CARLO else None
    model = entanglement.BELL_MODELS[config["state"]]
    degrade_y = config.get("degrade_y", False)
    return entanglement.chsh(plan, model, mode=mode, rng=rng, degrade_y=degrade_y)


def run_bell_test(config, seed):
    result = _chsh(config, seed, "bell-test")
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
        "samples": config["samples"],
    }
    return ("bell_test", header, rows), summary


def run_bell_delay(config, seed):
    # the plan's dwell is the unit DwellModel(): delays are in mean dwells
    rows = [
        (delay, _chsh(config, seed, "bell-delay", i, delay=delay).statistic)
        for i, delay in enumerate(config["delays"])
    ]
    summary = {
        "state": config["state"],
        "mode": config["mode"],
        "degrade_y": config["degrade_y"],
        "S_first": rows[0][1],
        "S_last": rows[-1][1],
    }
    return ("bell_delay", ["delay", "S"], rows), summary


def run_pauli(config, seed):
    grid = pauli.SpatialGrid(1, config["nodes"], config["extent"])
    packet = pauli.gaussian_packet(grid, width=config["packet_width"])
    init = pauli.SpinorField.normalized(grid, packet, packet)
    del packet
    field_config = pauli.FieldConfig(b_z=config["b_z"])
    final = pauli.evolve(init, field_config, config["dt"], config["steps"])
    del init
    rows = pauli.snapshot_rows(final, stride=config["stride"])
    header = ["x", "rho_plus", "rho_minus", "s_plus", "s_minus"]
    populations = pauli.spin_populations(final)
    summary = {
        "norm": float(sum(populations)),  # pauli.norm, bit for bit
        "populations": list(populations),
        "zeeman_energy": pauli.zeeman_energy(final, field_config),
        "grid": {"nodes": grid.nodes, "extent": grid.extent, "dt": config["dt"]},
    }
    return ("pauli_snapshot", header, rows), summary


def run_fluctuations(config, seed):
    rng = stream(seed, "fluctuations")
    n = config["samples"]
    trans = fluctuations.TranslationParams()
    product = fluctuations.expected_uncertainty_product(trans, n, rng)
    rows = [("uncertainty_product", product, 0.5)]
    for i, (mass, omega) in enumerate([(1.0, 1.0), (3.0, 7.0), (0.5, 2.0)]):
        rot = fluctuations.RotationParams(mass, omega)
        ls = fluctuations.expected_angular_momentum(rot, n, stream(seed, "ls", i))
        rows.append((f"angular_momentum_m{mass}_w{omega}", ls, 0.5))
    x = np.linspace(-10, 10, 4001)
    rho = np.exp(-(x**2) / 2.0) / math.sqrt(2 * math.pi)
    # the Fisher functional reads the mass, not dt: one value for every row
    fisher = fluctuations.fisher_functional(x, rho, trans)
    for dt in config["dt_sequence"]:
        rate = fluctuations.kl_shift_rate(x, rho, fluctuations.TranslationParams(dt=dt))
        rows.append((f"kl_over_fisher_dt{dt}", rate / fisher, 1.0))
    summary = {"uncertainty_product": product, "samples": n}
    return ("fluctuations", ["quantity", "estimate", "expected"], rows), summary


def run_oracle_check(config, seed):
    rng = stream(seed, "oracle-check")
    n = config["pairs"]
    rows = []
    # one call draws each row's (beta1, beta2, a, b) in the stream's order;
    # each row becomes Python floats, the cell type of every other table, as
    # the loop reaches it, so no list copy of all n x 4 angles is held
    angles = rng.uniform(0, 2 * math.pi, (n, 4))
    for b1, b2, a, b in map(np.ndarray.tolist, angles):
        model_p = sg.two_apparatus_up_probability(b1, b2)
        oracle_p = qm_oracle.overlap_prob(b1, b2)
        model_e = entanglement.correlation(entanglement.PSI_MINUS, a, b)
        oracle_e = qm_oracle.singlet_correlation(a, b)
        rows.append((b1, b2, model_p, oracle_p, a, b, model_e, oracle_e))
    header = [
        "beta1", "beta2", "model_up_prob", "oracle_up_prob",
        "a", "b", "model_correlation", "oracle_correlation",
    ]
    summary = {
        "max_abs_overlap_difference": max(abs(r[2] - r[3]) for r in rows),
        "max_abs_correlation_difference": max(abs(r[6] - r[7]) for r in rows),
        "pairs": n,
    }
    return ("oracle_check", header, rows), summary


RUNNERS = {
    "variational": run_variational,
    "stern-gerlach": run_stern_gerlach,
    "bell-test": run_bell_test,
    "bell-delay": run_bell_delay,
    "pauli": run_pauli,
    "fluctuations": run_fluctuations,
    "oracle-check": run_oracle_check,
}
# the summary alone, in either format, under a name its readers open directly
_SUMMARY_FILES = {
    "stern-gerlach": "measurement_summary.json",
    "bell-test": "bell_test_summary.json",
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmodel", description="Spin-model experiment runner"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in SCHEMA.items():
        # flags not given stay off the namespace, so only given flags override;
        # no abbreviations, which would read --dt as --dt-sequence
        p = sub.add_parser(
            name, help=f"run the {name} experiment", allow_abbrev=False,
            argument_default=argparse.SUPPRESS,
        )
        p.add_argument("--config", default=None, help="config file (key=value or JSON)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for key, (parse, _) in keys.items():
            flag = "--" + key.replace("_", "-")
            if parse is _flag:
                p.add_argument(flag, dest=key, action="store_true")
            else:
                p.add_argument(flag, dest=key, type=_parse_scalar)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    keys = SCHEMA[name]
    out_dir = args.out or os.environ.get(ENV_OUT) or "."
    try:
        file_config = load_config_file(args.config) if args.config else {}
        overrides = {key: value for key, value in vars(args).items() if key in keys}
        config = merge_config(keys, file_config, overrides)
        started = time.monotonic()
        (table, header, rows), summary = RUNNERS[name](config, args.seed)
    except pauli.ConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # a ConfigError, or a model's own rule such as power-of-two grid nodes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(out_dir, exist_ok=True)
        files = [write_result(out_dir, table, args.format, header, rows, summary)]
        if name in _SUMMARY_FILES:
            files.append(_SUMMARY_FILES[name])
            write_json(os.path.join(out_dir, files[-1]), summary)
        write_manifest(out_dir, name, config, args.seed, files, started, summary)
    except OSError as exc:
        print(f"error: out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps({"subcommand": name, "out": out_dir, **summary}))
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
