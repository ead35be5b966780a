"""In-process ops of the mc-ensemble and pauli-field workloads.

``build(workload, seed)`` turns a workload seed into a fixed op list; the
program sees only the generated inputs.  Each op is ``(kind, params)``;
``run_op`` makes the library calls that are timed, and ``check_op`` judges
the result against quantities this file computes on its own (closed forms,
``qm_oracle``), never against the program's own analytic routines.

``check_op`` returns ``(failures, known)``: ``known`` lists misses that the
documented fixed-dwell stderr under-coverage explains (the odd-flip
probability comes from 4096-draw parity estimates whose noise the reported
stderr leaves out).  Both kinds count as failed ops.
"""

from __future__ import annotations

import math
import random

import numpy as np

from spinmodel import entanglement, fluctuations, orientation, pauli, qm_oracle
from spinmodel import stern_gerlach as sg
from spinmodel import streams, telegraph

K_SIGMA = 5.0  # tolerance in standard errors for every statistical check
EXACT_TOL = 1e-12

# MC CHSH terms are sized so every E term's stderr (2 std / sqrt n <= 2 / sqrt n)
# is at or below the accuracy of the CLI's bell-delay default of 2e5 pairs.
SE_TARGET = 0.0045
CHSH_SAMPLES = math.ceil((2.0 / SE_TARGET) ** 2)
PARITY_DRAWS = 2 * 4096  # fixed-dwell odd-flip estimate inside the program

EXP_DWELL = (1.0, 2.0)  # asymmetric exponential dwells (tau_plus, tau_minus)
FIXED_TAU = 1.0
TELEGRAPH_DWELL = (1.0, 3.0)
TELEGRAPH_DURATION = 1.0e5
DISPLACEMENT_SAMPLES = 10**6
VACUUM_SAMPLES = 10**6
KL_NODES = 4001
ANALYTIC_POINTS = 400

# Pauli grids: (dimension, nodes, steps).  Steps are fixed per grid so each
# op costs about the same at the seed commit; 1-D 256 is bound by per-step
# Python overhead, 2-D 256^2 by FFTs on 1 MiB arrays.
PAULI_GRIDS = ((1, 256, 2048), (1, 4096, 512), (2, 128, 128), (2, 256, 16))
PAULI_DT = 1e-3
PAULI_EXTENT = 20.0

STATES = tuple(entanglement.BELL_MODELS)


def build(workload: str, seed: int):
    """The fixed op list of one round, generated from the workload seed."""
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "mc-ensemble":
        return _mc_ops(rnd)
    if workload == "pauli-field":
        return _pauli_ops(rnd)
    raise ValueError(f"unknown in-process workload {workload!r}")


def _mc_ops(rnd):
    ops = []
    for i, degrade in enumerate((False, True) * 4):
        delay = 0.0 if i == 0 else rnd.uniform(0.0, 5.0 * EXP_DWELL[0])
        ops.append(("chsh_exp", dict(state=STATES[i % 4], delay=delay,
                                     degrade_y=degrade, key=rnd.getrandbits(32))))
    for i in range(4):
        # (i + u) tau keeps 0 < P(odd) < 1 and a loop length that grows with i
        ops.append(("chsh_fixed", dict(
            state=STATES[(i + 1) % 4], delay=(i + rnd.uniform(0.1, 0.9)) * FIXED_TAU,
            degrade_y=bool(i % 2), key=rnd.getrandbits(32))))
    for m in (1, 3, 10):
        ops.append(("displacement", dict(m=m, eta=rnd.uniform(0.2, 1.0),
                                         key=rnd.getrandbits(32))))
    for trend in (+1, -1):
        ops.append(("telegraph", dict(trend=trend, key=rnd.getrandbits(32))))
    for dt in (0.1, 0.01, 0.001):
        ops.append(("kl", dict(dt=dt, key=rnd.getrandbits(32))))
    ops.append(("vacuum", dict(mass=rnd.uniform(0.5, 3.0), omega=rnd.uniform(0.5, 7.0),
                               key=rnd.getrandbits(32))))
    for _ in range(4):
        ops.append(("analytic", dict(key=rnd.getrandbits(32))))
    return ops


def _pauli_ops(rnd):
    return [
        ("pauli", dict(dimension=d, nodes=n, steps=s, b_z=rnd.uniform(0.5, 2.0),
                       width=rnd.uniform(0.8, 1.5), momentum=rnd.uniform(-2.0, 2.0),
                       up=rnd.uniform(0.3, 0.7)))
        for d, n, s in PAULI_GRIDS
    ]


def working_sets(workload: str):
    """Array and working-set bytes of each Pauli grid (five complex arrays:
    two components, the kinetic and two half-step phase factors)."""
    if workload != "pauli-field":
        return None
    sizes = []
    for d, n, _steps in PAULI_GRIDS:
        array = 16 * n**d
        sizes.append(dict(grid=f"{d}d-{n}", array_bytes=array, working_set_bytes=5 * array))
    return sizes


def warm_up(workload: str):
    """One untimed op that fills the lazy caches the timed ops rely on."""
    if workload == "mc-ensemble":
        for m in (1, 3, 10):
            orientation.sample_theta(m, streams.stream(0, "warm-up"), 8)
    else:
        run_op(("pauli", dict(dimension=1, nodes=256, steps=4, b_z=1.0, width=1.0,
                              momentum=0.0, up=0.5)))


# ---------------------------------------------------------------------------
# timed library calls


def _rng(kind, params):
    return streams.stream(params["key"], "bench", kind)


def run_op(op):
    kind, p = op
    if kind in ("chsh_exp", "chsh_fixed"):
        dwell = (telegraph.DwellModel(*EXP_DWELL) if kind == "chsh_exp" else
                 telegraph.DwellModel(FIXED_TAU, FIXED_TAU, telegraph.FIXED))
        plan = entanglement.MeasurementPlan(samples=CHSH_SAMPLES, delay=p["delay"],
                                            dwell=dwell)
        return entanglement.chsh(plan, entanglement.BELL_MODELS[p["state"]],
                                 entanglement.MONTE_CARLO, _rng(kind, p),
                                 degrade_y=p["degrade_y"])
    if kind == "displacement":
        config = sg.ApparatusConfig(gradient=p["eta"], m=p["m"])
        dz, _edges, counts = sg.displacement_distribution(
            p["m"], config, DISPLACEMENT_SAMPLES, _rng(kind, p))
        return dz, counts
    if kind == "telegraph":
        traj = telegraph.simulate(telegraph.DwellModel(*TELEGRAPH_DWELL),
                                  TELEGRAPH_DURATION, p["trend"], _rng(kind, p))
        return telegraph.empirical_fractions(traj)[0]
    if kind == "kl":
        x = np.linspace(-10.0, 10.0, KL_NODES)
        rho = np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)
        params = fluctuations.TranslationParams(1.0, p["dt"])
        rate = fluctuations.kl_shift_rate(x, rho, params, _rng(kind, p))
        return rate, fluctuations.fisher_functional(x, rho, params)
    if kind == "vacuum":
        rng = _rng(kind, p)
        trans = fluctuations.TranslationParams()
        w = fluctuations.sample_displacement(trans, rng, VACUUM_SAMPLES)
        rot = fluctuations.RotationParams(p["mass"], p["omega"])
        return (fluctuations.uncertainty_product(w, trans),
                fluctuations.expected_angular_momentum(rot, VACUUM_SAMPLES, rng))
    if kind == "analytic":
        return _analytic_sweep(p)
    if kind == "pauli":
        return _pauli_op(p)
    raise ValueError(f"unknown op kind {kind!r}")


def _analytic_points(key):
    rnd = random.Random(key)
    for _ in range(ANALYTIC_POINTS):
        angles = tuple(rnd.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        delay = 0.0 if rnd.random() < 0.25 else rnd.uniform(0.0, 5.0)
        yield rnd.choice(STATES), angles, delay, rnd.random() < 0.5


def _analytic_sweep(p):
    dwell = telegraph.DwellModel(*EXP_DWELL)
    out = []
    for state, (a, ap, b, bp), delay, degrade in _analytic_points(p["key"]):
        model = entanglement.BELL_MODELS[state]
        plan = entanglement.MeasurementPlan(alice_angles=(a, ap), bob_angles=(b, bp),
                                            delay=delay, dwell=dwell)
        result = entanglement.chsh(plan, model, degrade_y=degrade)
        out.append((
            result.expectations,
            entanglement.delayed_correlation(model, a, b, delay, dwell,
                                             degrade_y=degrade),
            entanglement.correlation(model, ap, bp),
        ))
    return out


def _pauli_op(p):
    grid = pauli.SpatialGrid(p["dimension"], p["nodes"], PAULI_EXTENT)
    coords = grid.coordinates()
    r2 = sum(c**2 for c in coords)
    packet = np.exp(-r2 / (4.0 * p["width"] ** 2) + 1j * p["momentum"] * coords[0])
    up = math.sqrt(p["up"])
    init = pauli.SpinorField.normalized(grid, up * packet,
                                        math.sqrt(1.0 - p["up"]) * packet)
    config = pauli.FieldConfig(b_z=p["b_z"])
    energy0 = pauli.total_energy(init, config)
    s0 = pauli.evolve(init, config, PAULI_DT, p["steps"])
    s1 = pauli.evolve(s0, config, PAULI_DT, 1)
    s2 = pauli.evolve(s1, config, PAULI_DT, 1)
    snaps = [s0, s1, s2]
    return dict(
        norm=pauli.norm(s1),
        energy=(energy0, pauli.total_energy(s1, config)),
        phases=[pauli.relative_phase(s) for s in snaps],
        continuity=pauli.continuity_residual(snaps, PAULI_DT, config),
        hj=pauli.hj_residual(snaps, PAULI_DT, config),
    )


# ---------------------------------------------------------------------------
# checks


def _bell_signs(state):
    """(<zz>, <xx>) of the Bell state, from the independent oracle."""
    return (qm_oracle.bell_correlation(state, 0.0, 0.0),
            qm_oracle.bell_correlation(state, math.pi / 2, math.pi / 2))


def _branch_terms(state, a, b):
    s_z, s_y = _bell_signs(state)
    return s_z * math.cos(a) * math.cos(b), s_y * math.sin(a) * math.sin(b)


def fixed_odd_probability(delay, tau):
    """P(odd switches in delay) for fixed dwells with a uniform first residual.

    Switches fall at r, r + tau, ... with r ~ U[0, tau); with delay =
    q tau + f there are q + 1 of them when r < f, else q.
    """
    q, f = divmod(delay, tau)
    frac = f / tau
    return frac if int(q) % 2 == 0 else 1.0 - frac


def _expected_e(state, a, b, decay_z, decay_y):
    e_z, e_y = _branch_terms(state, a, b)
    return e_z * decay_z + e_y * decay_y


def _check_chsh(kind, p, result):
    failures, known = [], []
    delay, degrade = p["delay"], p["degrade_y"]
    if kind == "chsh_exp":
        decay = math.exp(-delay * sum(1.0 / t for t in EXP_DWELL))
        p_odd = None
    else:
        p_odd = fixed_odd_probability(delay, FIXED_TAU)
        decay = 1.0 - 2.0 * p_odd
    terms = list(zip(result.settings, result.expectations, result.stderrs))
    for (a, b), e, se in terms:
        if not 0.0 < se <= SE_TARGET:
            failures.append(f"stderr {se!r} outside (0, {SE_TARGET}]")
        if delay == 0.0:
            want = qm_oracle.bell_correlation(p["state"], a, b)
        else:
            want = _expected_e(p["state"], a, b, decay, decay if degrade else 1.0)
        miss = abs(e - want)
        if miss <= K_SIGMA * se:
            continue
        message = f"E({a:.3f},{b:.3f})={e:.5f} vs {want:.5f}, {miss / se:.1f} stderr"
        if p_odd is not None:
            e_z, e_y = _branch_terms(p["state"], a, b)
            slope = 2.0 * abs(e_z + (e_y if degrade else 0.0))
            parity_var = slope**2 * p_odd * (1.0 - p_odd) / PARITY_DRAWS
            if miss <= K_SIGMA * math.sqrt(se**2 + parity_var):
                known.append(message)
                continue
        failures.append(message)
    es = result.expectations
    if abs(result.statistic - abs(es[0] - es[1] + es[2] + es[3])) > EXACT_TOL:
        failures.append("S does not match its four E terms")
    return failures, known


def _wallis(m):
    """Z_m = integral of cos^{2m} over [0, pi] = pi prod_{k<=m} (2k-1)/(2k)."""
    z = math.pi
    for k in range(1, m + 1):
        z *= (2 * k - 1) / (2 * k)
    return z


def _check_displacement(p, result):
    dz, counts = result
    m = p["m"]
    failures = []
    if int(counts.sum()) != DISPLACEMENT_SAMPLES:
        failures.append(f"histogram holds {int(counts.sum())} of {DISPLACEMENT_SAMPLES}")
    scale = p["eta"] / (4.0 * _wallis(m))  # e = hbar = m_e = transit_time = 1
    # E[dz^2] = scale^2 Z_{3m+1} / Z_m under theta ~ cos^{2m} / Z_m
    want = scale**2 * _wallis(3 * m + 1) / _wallis(m)
    sq = dz**2
    se = float(np.std(sq)) / math.sqrt(dz.size)
    if abs(float(np.mean(sq)) - want) > K_SIGMA * se:
        failures.append(f"<dz^2>={float(np.mean(sq))!r} vs {want!r}")
    se_mean = float(np.std(dz)) / math.sqrt(dz.size)
    if abs(float(np.mean(dz))) > K_SIGMA * se_mean:
        failures.append(f"<dz>={float(np.mean(dz))!r} is not 0")
    return failures


def _check_telegraph(p, up_fraction):
    # two-state Markov chain, leaving rates a (up) and b (down)
    a, b = (1.0 / t for t in TELEGRAPH_DWELL)
    s, pi_up, dur = a + b, b / (a + b), TELEGRAPH_DURATION
    start_up = 1.0 if p["trend"] > 0 else 0.0
    want = pi_up + (start_up - pi_up) * (1.0 - math.exp(-s * dur)) / (s * dur)
    sd = math.sqrt(2.0 * pi_up * (1.0 - pi_up) / (s * dur))
    if abs(up_fraction - want) > K_SIGMA * sd:
        return [f"up fraction {up_fraction!r} vs {want!r}"]
    return []


def _check_kl(p, result):
    rate, fisher = result
    # for a Gaussian density, KL(rho || rho(. + w)) = w^2 / 2, so the
    # estimate is a chi-square mean with relative sd sqrt(2 / n_shifts)
    ratio = rate / fisher
    if not abs(ratio - 1.0) <= K_SIGMA * math.sqrt(2.0 / 4096):
        return [f"KL rate / Fisher = {ratio!r}"]
    return []


def _check_vacuum(p, result):
    product, ls = result
    failures = []
    # m w^2 / dt and m omega u^2 are both (hbar/2) chi^2_1 variates
    for label, value, n in (("<dx dp>", product, 3 * VACUUM_SAMPLES),
                            ("<L_s>", ls, VACUUM_SAMPLES)):
        if abs(value - 0.5) > K_SIGMA * math.sqrt(0.5 / n):
            failures.append(f"{label}={value!r} vs hbar/2")
    return failures


def _check_analytic(p, result):
    failures = 0
    for (state, (a, ap, b, bp), delay, degrade), (es, delayed, plain) in zip(
            _analytic_points(p["key"]), result):
        decay = math.exp(-delay * sum(1.0 / t for t in EXP_DWELL))
        want = [_expected_e(state, x, y, decay, decay if degrade else 1.0)
                for x, y in ((a, b), (a, bp), (ap, b), (ap, bp))]
        want += [want[0], qm_oracle.bell_correlation(state, ap, bp)]
        got = list(es) + [delayed, plain]
        failures += sum(abs(g - w) > EXACT_TOL for g, w in zip(got, want))
    return [f"{failures} analytic values off the closed form"] if failures else []


def _check_pauli(p, r):
    failures = []
    if abs(r["norm"] - 1.0) > 1e-10:
        failures.append(f"norm drift {r['norm'] - 1.0!r}")
    e0, e1 = r["energy"]
    if abs(e1 - e0) > 1e-9 * max(1.0, abs(e0)):
        failures.append(f"energy drift {e1 - e0!r}")
    larmor = p["b_z"]  # e B_z / m in natural units
    elapsed = (p["steps"] + 1) * PAULI_DT
    phase_error = math.remainder(r["phases"][1] - larmor * elapsed, 2.0 * math.pi)
    rate = math.remainder(r["phases"][2] - r["phases"][0], 2.0 * math.pi) / (2 * PAULI_DT)
    if abs(phase_error) > 1e-8 or abs(rate - larmor) > 1e-6 * larmor:
        failures.append(f"Larmor phase error {phase_error!r}, rate {rate!r}")
    if not (math.isfinite(r["continuity"]) and math.isfinite(r["hj"])):
        failures.append("non-finite Madelung residual")
    return failures


def check_op(op, result):
    kind, p = op
    if kind in ("chsh_exp", "chsh_fixed"):
        return _check_chsh(kind, p, result)
    checks = {
        "displacement": _check_displacement,
        "telegraph": _check_telegraph,
        "kl": _check_kl,
        "vacuum": _check_vacuum,
        "analytic": _check_analytic,
        "pauli": _check_pauli,
    }
    return checks[kind](p, result), []
