"""Op plan and output checks of the cli-defaults workload.

Each op is one fresh ``python -m spinmodel.cli <subcommand>`` at its
default config.  Passes cycle the seven subcommands in a fixed order; each
pass takes a new seed derived from the workload seed, and passes alternate
``--format csv`` and ``--format json``.

The checks read the result files back and judge them with closed forms
computed here, so this module needs only the standard library.
``check(subcommand, out_dir, fmt)`` returns ``(failures, known)`` as in
ops.py; ``known`` reports CSV cells written as ``np.float64(...)``, a
formatting defect of the CLI's CSV writer under numpy 2 (``repr`` of a
numpy scalar); such an op counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re

from tracing import CLI_SUBCOMMANDS

K_SIGMA = 5.0
EXACT_TOL = 1e-12
_NP_REPR = re.compile(r"np\.float64\((.*)\)")


def plan(seed: int, passes: int):
    """One [(subcommand, cli seed, format)] list per pass."""
    rnd = random.Random(f"cli-defaults:{seed}")
    passes_ops = []
    for p in range(passes):
        cli_seed = rnd.randrange(2**31)
        fmt = "csv" if p % 2 == 0 else "json"
        passes_ops.append([(sub, cli_seed, fmt) for sub in CLI_SUBCOMMANDS])
    return passes_ops


class _Output:
    """Result files of one op, read back with per-cell number parsing."""

    def __init__(self, out_dir, fmt):
        self.out_dir, self.fmt = out_dir, fmt
        self.np_repr_cells = 0

    def json(self, name):
        with open(os.path.join(self.out_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def table(self, name):
        """(summary dict, rows as dicts of numbers or strings)."""
        if self.fmt == "json":
            payload = self.json(f"{name}.json")
            return payload, payload.pop("rows")
        with open(os.path.join(self.out_dir, f"{name}.csv"), encoding="utf-8",
                  newline="") as fh:
            rows = [{k: self._cell(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        return {}, rows

    def _cell(self, text):
        try:
            return float(text)
        except ValueError:
            pass
        match = _NP_REPR.fullmatch(text)
        if match:
            self.np_repr_cells += 1
            return float(match.group(1))
        return text


def _bell_e(state_signs, a, b, decay=1.0):
    s_z, s_y = state_signs
    return s_z * math.cos(a) * math.cos(b) * decay + s_y * math.sin(a) * math.sin(b)


PSI_MINUS = (-1.0, -1.0)  # (<zz>, <xx>) of the singlet
CHSH_ANGLES = ((0.0, math.pi / 4), (0.0, 3 * math.pi / 4),
               (math.pi / 2, math.pi / 4), (math.pi / 2, 3 * math.pi / 4))


def _chsh(es):
    return abs(es[0] - es[1] + es[2] + es[3])


def _variational(out):
    _, rows = out.table("variational")
    failures = []
    if len(rows) != 7:
        failures.append(f"{len(rows)} rows, expected 7")
    for row in rows:
        value = row["linf_error_or_min_density"]
        if row["divergence"] == "kl":
            if not value > 0:
                failures.append("KL density not strictly positive")
        elif not abs(value) <= 1e-8:
            failures.append(f"m={row['order_m']} {row['divergence']}: linf {value!r}")
    return failures


def _stern_gerlach(out):
    summary, rows = out.table("displacement_histogram")
    if out.fmt == "csv":
        summary = out.json("measurement_summary.json")
    failures = []
    n = summary["samples"]
    if sum(int(r["count"]) for r in rows) != n or len(rows) != 200:
        failures.append("histogram does not hold every sample in 200 bins")
    mass = sum(r["density"] * (r["bin_right"] - r["bin_left"]) for r in rows)
    if abs(mass - 1.0) > 1e-9:
        failures.append(f"histogram density integrates to {mass!r}")
    p_up = math.cos(summary["beta"] / 2.0) ** 2
    if abs(summary["analytic_up_probability"] - p_up) > EXACT_TOL:
        failures.append("analytic up probability is not cos^2(beta/2)")
    if abs(summary["empirical_up_fraction"] - p_up) > K_SIGMA * math.sqrt(
            p_up * (1 - p_up) / n):
        failures.append(f"up fraction {summary['empirical_up_fraction']!r} vs {p_up!r}")
    return failures


def _bell_test(out):
    _, rows = out.table("bell_test")
    summary = out.json("bell_test_summary.json")
    if len(rows) != 4:
        return [f"{len(rows)} settings, expected 4"]
    failures = []
    es, ses = [], []
    for row, (a, b) in zip(rows, CHSH_ANGLES):
        want = _bell_e(PSI_MINUS, row["a"], row["b"])
        if (row["a"], row["b"]) != (a, b):
            failures.append(f"unexpected setting ({row['a']}, {row['b']})")
        e, se = row["E"], row["stderr"]
        if not 0 < se <= 2.0 / math.sqrt(summary["samples"]) * (1 + 1e-9):
            failures.append(f"stderr {se!r} too large for {summary['samples']} pairs")
        if abs(e - want) > K_SIGMA * se:
            failures.append(f"E({a:.3f},{b:.3f})={e!r} vs {want!r}")
        # the coincidence table is judged at its own sample size
        n_pp, n_pm, n_mp, n_mm = (int(row[k]) for k in ("n_pp", "n_pm", "n_mp", "n_mm"))
        n_table = n_pp + n_pm + n_mp + n_mm
        implied = 2.0 * (n_pp + n_mm - n_pm - n_mp) / n_table
        se_table = 2.0 * math.sqrt(max(1.0 - (want / 2.0) ** 2, 0.0) / n_table)
        if abs(implied - want) > K_SIGMA * se_table:
            failures.append(f"table E({a:.3f},{b:.3f})={implied!r} vs {want!r}")
        es.append(e)
        ses.append(se)
    if abs(summary["S"] - _chsh(es)) > 1e-9:
        failures.append("S does not match its E terms")
    if abs(summary["S"] - 2 * math.sqrt(2)) > K_SIGMA * math.sqrt(sum(s * s for s in ses)):
        failures.append(f"S={summary['S']!r} vs 2 sqrt 2")
    return failures


def _bell_delay(out):
    _, rows = out.table("bell_delay")
    failures = []
    for row in rows:
        decay = math.exp(-2.0 * row["delay"])  # tau_plus = tau_minus = 1
        want = _chsh([_bell_e(PSI_MINUS, a, b, decay) for a, b in CHSH_ANGLES])
        if abs(row["S"] - want) > EXACT_TOL:
            failures.append(f"S({row['delay']})={row['S']!r} vs {want!r}")
    if len(rows) != 8:
        failures.append(f"{len(rows)} delays, expected 8")
    return failures


def _pauli(out):
    summary, rows = out.table("pauli_snapshot")
    if out.fmt == "csv":
        summary = out.json("manifest.json")["summary"]
    failures = []
    if abs(summary["norm"] - 1.0) > 1e-10:
        failures.append(f"norm drift {summary['norm'] - 1.0!r}")
    if any(abs(p - 0.5) > 1e-10 for p in summary["populations"]):
        failures.append(f"populations {summary['populations']!r}")
    if abs(summary["zeeman_energy"]) > 1e-10:
        failures.append(f"Zeeman energy {summary['zeeman_energy']!r}")
    if len(rows) != 32 or not all(math.isfinite(v) for r in rows for v in r.values()):
        failures.append("snapshot is not 32 finite rows")
        return failures
    centre = max(rows, key=lambda r: r["rho_plus"])
    # default b_z = 1, t = 1000 steps * 0.001: relative phase e B t / m = 1
    error = math.remainder(centre["s_minus"] - centre["s_plus"] - 1.0, 2 * math.pi)
    if abs(error) > 1e-6:
        failures.append(f"Larmor phase off by {error!r}")
    return failures


def _fluctuations(out):
    _, rows = out.table("fluctuations")
    failures = []
    n = 10**6
    for row in rows:
        q, value = row["quantity"], row["estimate"]
        if q == "uncertainty_product":
            sd = math.sqrt(0.5 / (3 * n))
        elif q.startswith("angular_momentum"):
            sd = math.sqrt(0.5 / n)
        else:  # KL rate over Fisher: chi-square mean of 4096 shifts
            sd = math.sqrt(2.0 / 4096)
        if abs(value - row["expected"]) > K_SIGMA * sd:
            failures.append(f"{q}={value!r} vs {row['expected']!r}")
    if len(rows) != 7:
        failures.append(f"{len(rows)} rows, expected 7")
    return failures


def _oracle_check(out):
    _, rows = out.table("oracle_check")
    failures = []
    worst = 0.0
    for r in rows:
        p_up = math.cos((r["beta2"] - r["beta1"]) / 2.0) ** 2
        corr = _bell_e(PSI_MINUS, r["a"], r["b"])
        worst = max(worst, abs(r["model_up_prob"] - p_up), abs(r["oracle_up_prob"] - p_up),
                    abs(r["model_correlation"] - corr), abs(r["oracle_correlation"] - corr))
    if worst > EXACT_TOL:
        failures.append(f"oracle rows off by {worst!r}")
    if len(rows) != 100:
        failures.append(f"{len(rows)} rows, expected 100")
    return failures


_CHECKS = {
    "variational": _variational,
    "stern-gerlach": _stern_gerlach,
    "bell-test": _bell_test,
    "bell-delay": _bell_delay,
    "pauli": _pauli,
    "fluctuations": _fluctuations,
    "oracle-check": _oracle_check,
}


def check(subcommand, out_dir, fmt):
    out = _Output(out_dir, fmt)
    try:
        manifest = out.json("manifest.json")
        failures = []
        if manifest["subcommand"] != subcommand:
            failures.append("manifest names another subcommand")
        for name in manifest["result_files"]:
            if not os.path.isfile(os.path.join(out_dir, name)):
                failures.append(f"missing result file {name}")
        failures += _CHECKS[subcommand](out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        # unreadable or malformed output is a failed op
        failures = [f"output does not parse: {type(exc).__name__}: {exc}"]
    known = ([f"{out.np_repr_cells} CSV cells written as np.float64(...)"]
             if out.np_repr_cells else [])
    return failures, known
