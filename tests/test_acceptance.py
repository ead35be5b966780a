"""End-to-end acceptance suite.

One test per acceptance criterion, numbered in the test name so the
verbose pytest report reads as a pass/fail line per criterion.  Each test
also prints an ``ACCEPTANCE n: ...`` line with the measured values (shown
on failure, or with ``-rA``/``-s``).
"""

import csv
import math

import numpy as np
import pytest
from scipy import integrate

from spinmodel import cli
from spinmodel import entanglement as ent
from spinmodel import fluctuations as fl
from spinmodel import orientation as om
from spinmodel import pauli
from spinmodel import qm_oracle as qm
from spinmodel import stern_gerlach as sg
from spinmodel import telegraph as tg
from spinmodel.streams import stream


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_quantization_limit_pole_mass():
    m = 200
    z_m = om.normalization_constant(m)

    def density(t):
        return np.cos(t) ** (2 * m) / z_m

    near_zero, _ = integrate.quad(density, 0.0, 0.1, limit=400)
    near_pi, _ = integrate.quad(density, math.pi - 0.1, math.pi, limit=400)
    mass = near_zero + near_pi
    report(1, mass > 0.95, f"pole mass within 0.1 of {{0, pi}} at m=200: {mass:.6f}")


def test_criterion_02_rotated_apparatus_up_fraction():
    beta = math.pi / 3
    p_up = sg.two_apparatus_up_probability(0.0, beta)
    rng = stream(42, "acceptance-rotated")
    outcomes = sg.measure_many(om.TwoPointDensity(p_up, 1.0 - p_up), rng, 10**6)
    fraction = float(np.mean(outcomes == sg.UP))
    report(
        2,
        abs(fraction - 0.75) <= 0.005,
        f"Monte Carlo up-fraction at beta=pi/3: {fraction:.5f} (target 0.75 +/- 0.005)",
    )


def test_criterion_03_two_apparatus_oracle_equivalence():
    rng = stream(42, "acceptance-overlap")
    worst = 0.0
    for _ in range(100):
        b1, b2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        worst = max(
            worst,
            abs(sg.two_apparatus_up_probability(b1, b2) - qm.overlap_prob(b1, b2)),
        )
    report(3, worst <= 1e-12, f"max |model - oracle| over 100 pairs: {worst:.2e}")


def test_criterion_04_chsh_violation():
    plan = ent.MeasurementPlan(samples=10**6)
    s_analytic = ent.chsh(plan, ent.PSI_MINUS).statistic
    rng = stream(42, "acceptance-chsh")
    s_mc = ent.chsh(plan, ent.PSI_MINUS, mode=ent.MONTE_CARLO, rng=rng).statistic
    ok = abs(s_analytic - 2.0 * math.sqrt(2.0)) <= 1e-12 and abs(s_mc - 2.828) <= 0.01
    report(
        4,
        ok,
        f"analytic S={s_analytic:.12f} (target 2*sqrt(2)), "
        f"Monte Carlo S={s_mc:.4f} (target 2.828 +/- 0.01)",
    )


def test_criterion_05_delayed_bell_test(tmp_path, capsys):
    dwell = tg.DwellModel(1.0, 1.0)
    long_plan = ent.MeasurementPlan(delay=100.0, dwell=dwell)
    s_z_only = ent.chsh(long_plan, ent.PSI_MINUS).statistic
    s_full = ent.chsh(long_plan, ent.PSI_MINUS, degrade_y=True).statistic

    code = cli.run(
        [
            "bell-delay",
            "--out",
            str(tmp_path),
            "--seed",
            "42",
            "--delays",
            "0,0.1,0.2,0.5,1,2,5,10",
        ]
    )
    assert code == cli.EXIT_OK
    with open(tmp_path / "bell_delay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sweep = [float(r["S"]) for r in rows]
    monotone = all(x >= y - 1e-12 for x, y in zip(sweep, sweep[1:]))

    ok = (
        abs(s_z_only - math.sqrt(2.0)) <= 0.01
        and abs(s_full - 0.0) <= 0.01
        and monotone
    )
    report(
        5,
        ok,
        f"z-degraded S={s_z_only:.4f} (target sqrt(2) +/- 0.01), "
        f"fully-degraded S={s_full:.4f} (target 0 +/- 0.01), "
        f"bell-delay sweep monotone={monotone}",
    )


def test_criterion_06_singlet_oracle_equivalence():
    rng = stream(42, "acceptance-singlet")
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        model = ent.correlation(ent.PSI_MINUS, a, b)
        closed = -math.cos(a - b)
        oracle = qm.singlet_correlation(a, b)
        worst = max(worst, abs(model - closed), abs(model - oracle))
    report(6, worst <= 1e-12, f"max deviation from -cos(a-b)/oracle: {worst:.2e}")


def test_criterion_07_variational_solver():
    worst = 0.0
    for m in (1, 2, 3):
        for div in (om.TSALLIS, om.RENYI):
            solved = om.variational_solve(om.ActionSpec(divergence=div, m=m), 2048)
            target = np.asarray(om.eval_density(m, solved.thetas))
            worst = max(worst, float(np.max(np.abs(solved.values - target))))
    kl = om.variational_solve(om.ActionSpec(divergence=om.KULLBACK_LEIBLER), 2048)
    c = float(np.trapezoid(np.exp(np.cos(kl.thetas)), kl.thetas))
    kl_err = float(np.max(np.abs(kl.values - np.exp(np.cos(kl.thetas)) / c)))
    positive = bool(np.all(kl.values > 0))
    ok = worst <= 1e-6 and kl_err <= 1e-6 and positive
    report(
        7,
        ok,
        f"Tsallis/Renyi Linf <= {worst:.2e} (target 1e-6); KL exp-of-cos "
        f"Linf={kl_err:.2e}, strictly positive={positive}",
    )


def test_criterion_08_vacuum_fluctuations():
    params = fl.TranslationParams()
    rng = stream(42, "acceptance-ur")
    product = fl.uncertainty_product(
        fl.sample_displacement(params, rng, 10**6), params
    )
    ls_values = []
    for mass, omega in ((1.0, 1.0), (3.0, 7.0), (0.5, 2.0)):
        rot = fl.RotationParams(mass=mass, omega=omega)
        ls_values.append(
            fl.expected_angular_momentum(
                rot, 10**6, stream(42, "acceptance-ls", mass, omega)
            )
        )
    ok = abs(product - 0.5) <= 0.005 and all(
        abs(v - 0.5) <= 0.005 for v in ls_values
    )
    report(
        8,
        ok,
        f"<dx dp>={product:.4f} (target 0.5 +/- 0.005); <L_s> across three "
        f"(m, omega) pairs: {[round(v, 4) for v in ls_values]}",
    )


def test_criterion_09_pauli_solver():
    grid = pauli.SpatialGrid(1, 256, 20.0)
    psi = pauli.gaussian_packet(grid)
    state = pauli.SpinorField.normalized(grid, psi, psi)
    config = pauli.FieldConfig(b_z=1.0)

    # a uniform B_z commutes with the kinetic term, so its 1e4 steps are one;
    # a periodic B_z that varies on the grid is stepped 1e4 times
    evolved = pauli.evolve(state, config, 0.001, 10**4)
    drift = abs(pauli.norm(evolved) - 1.0)
    varying = pauli.FieldConfig(
        b_z=1.0 + 0.1 * np.cos(2.0 * np.pi * grid.axis() / grid.extent)
    )
    stepped_drift = abs(pauli.norm(pauli.evolve(state, varying, 0.001, 10**4)) - 1.0)

    phase0 = pauli.relative_phase(state)
    short = pauli.evolve(state, config, 0.0005, 2000)  # t = 1
    delta = pauli.relative_phase(short) - phase0
    delta = math.atan2(math.sin(delta), math.cos(delta))
    rate_err = abs(delta - 1.0)  # expected rate e B_z / m = 1 over t = 1

    before = pauli.spin_populations(state)
    after = pauli.spin_populations(evolved)
    pop_drift = max(abs(a - b) for a, b in zip(before, after))

    free = pauli.FieldConfig()

    def residual(dt, t=2.0):
        s0 = pauli.SpinorField.normalized(
            grid, pauli.gaussian_packet(grid, momentum=0.5),
            pauli.gaussian_packet(grid, momentum=0.5),
        )
        n = int(round(t / dt))
        snaps = [pauli.evolve(s0, free, dt, n + k) for k in (-1, 0, 1)]
        return pauli.continuity_residual(snaps, dt, free)

    coarse, fine = residual(0.02), residual(0.01)
    refines = fine <= 0.5 * coarse

    ok = (
        drift <= 1e-8 and stepped_drift <= 1e-8 and rate_err <= 0.01
        and pop_drift <= 1e-10 and refines
    )
    report(
        9,
        ok,
        f"norm drift over 1e4 steps: {drift:.2e} at uniform B_z (one step of "
        f"1e4 dt), {stepped_drift:.2e} at B_z = 1 + 0.1 cos(2 pi x / L) (1e4 "
        f"steps) (each <=1e-8); Larmor phase error "
        f"{rate_err:.4f} (<=0.01 rad over t=1); population drift {pop_drift:.2e} "
        f"(<=1e-10); continuity residual {coarse:.2e}->{fine:.2e} under dt "
        f"halving (second-order scheme)",
    )


def test_criterion_10_telegraph_fractions():
    details = []
    ok = True
    for tau_plus, tau_minus in ((1.0, 1.0), (3.0, 1.0), (0.2, 0.8)):
        model = tg.DwellModel(tau_plus, tau_minus)
        rng = stream(42, "acceptance-telegraph", tau_plus, tau_minus)
        traj = tg.simulate(model, 1e5 * min(tau_plus, tau_minus), +1, rng)
        up, _ = tg.empirical_fractions(traj)
        target = tau_plus / (tau_plus + tau_minus)
        ok = ok and abs(up - target) <= 0.01
        details.append(f"({tau_plus},{tau_minus}): {up:.4f} vs {target:.4f}")
    report(10, ok, "empirical up-fractions " + "; ".join(details))


def test_criterion_11_cli_determinism(tmp_path, capsys):
    results = {
        "variational": ["variational.csv"],
        "bell-delay": ["bell_delay.csv"],
        "stern-gerlach": ["displacement_histogram.csv"],
        "oracle-check": ["oracle_check.csv"],
    }
    identical = True
    for sub, files in results.items():
        d1, d2 = tmp_path / sub / "a", tmp_path / sub / "b"
        args = [sub, "--seed", "7"]
        if sub == "stern-gerlach":
            args += ["--samples", "20000"]
        assert cli.run(args + ["--out", str(d1)]) == cli.EXIT_OK
        assert cli.run(args + ["--out", str(d2)]) == cli.EXIT_OK
        for name in files:
            identical = identical and (
                (d1 / name).read_bytes() == (d2 / name).read_bytes()
            )
    report(11, identical, "reruns with identical config+seed are byte-identical")
