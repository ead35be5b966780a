import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmodel import entanglement as ent
from spinmodel import qm_oracle as qm
from spinmodel.streams import stream
from spinmodel.telegraph import (
    EXPONENTIAL, FIXED, DwellModel, _odd_flip_by_start, flip_parity,
    odd_flip_probability, simulate,
)

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)

ALL_MODELS = (ent.PSI_MINUS, ent.PSI_PLUS, ent.PHI_MINUS, ent.PHI_PLUS)


class TestModelEncoding:
    def test_four_states(self):
        assert set(ent.BELL_MODELS) == {
            "psi_minus", "psi_plus", "phi_minus", "phi_plus"
        }

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ent.BellPairModel("anti", "diagonal")

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_joint_density_weights(self, model):
        for axis in (ent.AXIS_Z, ent.AXIS_Y):
            d = ent.joint_density(model, axis)
            assert sum(d) == pytest.approx(1.0)
            # half weight on each of the two compatible corners
            assert sorted(d) == [0.0, 0.0, 0.5, 0.5]

    def test_anti_axis_occupies_opposite_corners(self):
        d = ent.joint_density(ent.PSI_MINUS, ent.AXIS_Z)
        assert d == (0.0, 0.5, 0.5, 0.0)

    def test_joint_density_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            ent.joint_density(ent.PSI_MINUS, "x")

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_bell_densities_do_not_factorize(self, model):
        for axis in (ent.AXIS_Z, ent.AXIS_Y):
            d = ent.joint_density(model, axis)
            # a product law p_A(i) p_B(j) has determinant 0
            det = np.linalg.det(np.reshape(d, (2, 2)))
            assert abs(det) == pytest.approx(0.25, abs=1e-12)


class TestCorrelation:
    @pytest.mark.parametrize("model", ALL_MODELS)
    @settings(max_examples=60, deadline=None)
    @given(a=angles, b=angles)
    def test_matches_oracle(self, model, a, b):
        assert ent.correlation(model, a, b) == pytest.approx(
            qm.bell_correlation(model.name, a, b), abs=1e-12
        )

    @given(angles)
    def test_singlet_perfect_anticorrelation(self, a):
        assert ent.correlation(ent.PSI_MINUS, a, a) == pytest.approx(-1.0, abs=1e-12)

    def test_corner_signs(self):
        # at a = b = 0 the z-branch reads its corners' signs and the y-branch
        # adds cos^2(pi/2) ~ 4e-33
        for model in ALL_MODELS:
            w0, w1, w2, w3 = ent.joint_density(model, ent.AXIS_Z)
            assert ent.correlation(model, 0.0, 0.0) == pytest.approx(
                w0 - w1 - w2 + w3, abs=1e-15
            )


class TestSampling:
    def test_z_branch_products_at_aligned_angles(self):
        rng = stream(21, "ent-aligned")
        s_a, s_b, branch = ent.sample_pair_outcomes(
            ent.PSI_MINUS, 0.0, 0.0, 20000, rng
        )
        z = branch == 0
        assert np.all(s_a[z] * s_b[z] == -1)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_estimator_matches_analytic(self, model):
        rng = stream(21, "ent-estimator", model.name)
        a, b = 0.3, 1.1
        e_hat, se = ent.estimate_correlation(model, a, b, 400000, rng)
        assert abs(e_hat - ent.correlation(model, a, b)) < 5 * se + 1e-4

    def test_error_shrinks_like_root_n(self):
        a, b = 0.0, math.pi / 4
        exact = ent.correlation(ent.PSI_MINUS, a, b)
        errors = []
        for i, n in enumerate((4000, 64000, 1024000)):
            trial_errs = [
                abs(
                    ent.estimate_correlation(
                        ent.PSI_MINUS, a, b, n, stream(21, "ent-rate", i, r)
                    )[0]
                    - exact
                )
                for r in range(8)
            ]
            errors.append(np.mean(trial_errs))
        # 16x more samples per step: each rms error should drop about 4x
        assert errors[2] < errors[0] / 6

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_cell_frequencies_match_table(self, model):
        a, b, n = 0.3, 1.1, 400000
        s_z = -1.0 if model.z_correlation == ent.ANTI else 1.0
        s_y = -1.0 if model.y_correlation == ent.ANTI else 1.0
        c = {0: s_z * math.cos(a) * math.cos(b), 1: s_y * math.sin(a) * math.sin(b)}
        s_a, s_b, branch = ent.sample_pair_outcomes(
            model, a, b, n, stream(21, "ent-cells", model.name)
        )
        for br in (0, 1):
            for x in (1, -1):
                for y in (1, -1):
                    p = (1.0 + x * y * c[br]) / 8.0
                    hits = np.sum((branch == br) & (s_a == x) & (s_b == y))
                    assert abs(hits / n - p) < 5 * math.sqrt(p * (1 - p) / n)

    def test_outcome_counts_partition(self):
        rng = stream(21, "ent-counts")
        s_a, s_b, _ = ent.sample_pair_outcomes(ent.PHI_PLUS, 0.2, 0.4, 5000, rng)
        counts = ent.outcome_counts(s_a, s_b)
        assert sum(counts.values()) == 5000


class TestChsh:
    def test_analytic_tsirelson(self):
        plan = ent.MeasurementPlan()
        result = ent.chsh(plan, ent.PSI_MINUS)
        assert result.statistic == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_monte_carlo_close_to_analytic(self):
        plan = ent.MeasurementPlan(samples=200000)
        rng = stream(21, "ent-chsh-mc")
        result = ent.chsh(plan, ent.PSI_MINUS, mode=ent.MONTE_CARLO, rng=rng)
        assert result.statistic == pytest.approx(2.0 * math.sqrt(2.0), abs=0.02)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_all_states_match_oracle_statistic(self, model):
        plan = ent.MeasurementPlan()
        result = ent.chsh(plan, model)
        a, ap = plan.alice_angles
        b, bp = plan.bob_angles
        assert result.statistic == pytest.approx(
            qm.chsh_statistic(model.name, a, ap, b, bp), abs=1e-12
        )

    def test_monte_carlo_requires_rng(self):
        with pytest.raises(ValueError):
            ent.chsh(ent.MeasurementPlan(), ent.PSI_MINUS, mode=ent.MONTE_CARLO)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ent.chsh(ent.MeasurementPlan(), ent.PSI_MINUS, mode="bogus",
                     rng=stream(21, "ent-bogus"))

    @pytest.mark.parametrize("mode", [ent.ANALYTIC, ent.MONTE_CARLO])
    def test_counts_imply_expectations(self, mode):
        plan = ent.MeasurementPlan(samples=50000, delay=0.4)
        result = ent.chsh(plan, ent.PHI_PLUS, mode=mode, rng=stream(21, "ent-cnt"))
        for (pp, pm, mp, mm), e in zip(result.counts, result.expectations):
            assert pp + pm + mp + mm == pytest.approx(plan.samples, abs=1e-9)
            assert 2 * (pp + mm - pm - mp) / plan.samples == pytest.approx(
                e, abs=1e-12
            )

    @pytest.mark.parametrize("mode", [ent.ANALYTIC, ent.MONTE_CARLO])
    @pytest.mark.parametrize("samples", [0, 2.5])
    def test_rejects_non_whole_sample_counts(self, mode, samples):
        # the plan catches both, by the count rule it shares with the evaluation
        rng = stream(21, "ent-bad-n")
        with pytest.raises(ValueError, match="samples|whole number"):
            ent.chsh(ent.MeasurementPlan(samples=samples), ent.PSI_MINUS, mode, rng)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alice_angles", (math.nan, 0.0)),
            ("alice_angles", (0.0, math.inf)),
            ("bob_angles", (-math.inf, 0.0)),
            ("bob_angles", (0.0, math.nan)),
            ("delay", math.inf),
            ("samples", math.nan),
            ("samples", 2.5),
            pytest.param("samples", 10**400, id="samples-10**400"),
            pytest.param("alice_angles", (0.0,), id="alice_angles-one"),
            pytest.param("bob_angles", (0.0, 1.0, 2.0), id="bob_angles-three"),
            pytest.param("alice_angles", 0.5, id="alice_angles-number"),
            pytest.param("bob_angles", ("0", "1"), id="bob_angles-strings"),
        ],
    )
    def test_plan_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match="angles|delay|samples"):
            ent.MeasurementPlan(**{field: value})


# the (theta_A, theta_B) poles of the joint_density corners, in their order
CORNERS = ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi))


def _event_level_correlation(model, a, b, delay, dwell, rng, n):
    """Reference E = 2 mean(S_A S_B) of n pairs drawn one event at a time:
    a branch with probability 1/2, a corner from its joint_density weights,
    Bob's z-branch start trend run through a telegraph trajectory over the
    delay (a fixed-dwell delay starts at a uniform point of the first
    segment), and each outcome +1 with probability cos^2(angle/2) from its
    pole.  It reads neither the outcome table nor the odd-flip table."""
    total = 0
    for _ in range(n):
        axis = ent.AXIS_Z if rng.random() < 0.5 else ent.AXIS_Y
        weights = ent.joint_density(model, axis)
        theta_a, theta_b = CORNERS[rng.choice(4, p=weights)]
        if axis == ent.AXIS_Z:
            alpha, beta = a, b
            trend = +1 if theta_b == 0.0 else -1
            tau = dwell.tau_plus if trend > 0 else dwell.tau_minus
            start = tau * rng.random() if dwell.distribution == FIXED else 0.0
            traj = simulate(dwell, start + delay, trend, rng)
            if traj.trend_at(start + delay) != trend:
                theta_b = math.pi - theta_b
        else:
            alpha, beta = math.pi / 2 - a, math.pi / 2 - b
        s_a = 1 if rng.random() < math.cos((alpha - theta_a) / 2) ** 2 else -1
        s_b = 1 if rng.random() < math.cos((beta - theta_b) / 2) ** 2 else -1
        total += s_a * s_b
    return 2.0 * total / n


def _reading(s, angle, pole):
    """P(outcome s) of a pole read at angle: +1 with cos^2((angle - pole)/2)."""
    up = math.cos((angle - pole) / 2) ** 2
    return up if s > 0 else 1.0 - up


def _enumerated_cells(model, a, b, flips, degrade_y):
    """Reference P(branch, S_A, S_B) in the outcome table's cell order, as an
    exact sum over events: a branch with probability 1/2, a corner by its
    joint_density weight, Bob's pole flipped with the probability of his
    start trend, flips = (p+, p-), on the y-branch only if degrade_y, and
    each pole read by _reading.  It reads neither the outcome table nor
    odd_flip_probability."""
    cells = []
    for axis, alpha, beta, (p_plus, p_minus) in (
        (ent.AXIS_Z, a, b, flips),
        (ent.AXIS_Y, math.pi / 2 - a, math.pi / 2 - b,
         flips if degrade_y else (0.0, 0.0)),
    ):
        weights = ent.joint_density(model, axis)
        for s_a, s_b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            total = 0.0
            for w, (theta_a, theta_b) in zip(weights, CORNERS):
                p_flip = p_plus if theta_b == 0.0 else p_minus
                for pole, p_pole in ((theta_b, 1.0 - p_flip),
                                     (math.pi - theta_b, p_flip)):
                    total += (0.5 * w * p_pole * _reading(s_a, alpha, theta_a)
                              * _reading(s_b, beta, pole))
            cells.append(total)
    return cells


class TestDelayedMeasurement:
    @pytest.mark.parametrize("degrade_y", [False, True])
    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize(
        "tau_plus, tau_minus, distribution, delay",
        [(1.0, 2.0, EXPONENTIAL, 0.7), (0.2, 5.0, FIXED, 0.1),
         (1.0, 1.0, EXPONENTIAL, 0.7)],
    )
    def test_cells_match_exact_enumeration(
        self, tau_plus, tau_minus, distribution, delay, model, degrade_y
    ):
        # with p+ != p- Bob's marginal is not 1/2, so the cells are not
        # (1 +/- c) / 8 even where E is right
        dwell = DwellModel(tau_plus, tau_minus, distribution)
        flips = _odd_flip_by_start(dwell, delay)
        for a, b in ((0.0, 0.0), (0.3, 1.1), (2.0, -0.7), (math.pi, math.pi / 4)):
            got = ent._outcome_table(model, a, b, flips, degrade_y)
            want = _enumerated_cells(model, a, b, flips, degrade_y)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_monte_carlo_where_a_pole_flips_surely(self, model):
        # fixed dwells (0.1, 0.3) and a delay of 0.1 flip a pole at 0 with
        # probability 1; read at 0 or pi, a cell of exact value 0 rounds
        # to -1e-17 in the table
        plan = ent.MeasurementPlan((0.0, math.pi), (0.0, math.pi), 1000, 0.1,
                                   DwellModel(0.1, 0.3, FIXED))
        rng = stream(21, "ent-sure-flip", model.name)
        mc = ent.chsh(plan, model, ent.MONTE_CARLO, rng)
        exact = ent.chsh(plan, model)
        for counts, e, want in zip(mc.counts, mc.expectations, exact.expectations):
            assert sum(counts) == plan.samples
            assert abs(e - want) < 5 * 2 / math.sqrt(plan.samples)

    @pytest.mark.parametrize("b", [0.0, math.pi / 4])
    @pytest.mark.parametrize(
        "tau_plus, tau_minus, distribution, delay",
        [(0.2, 5.0, FIXED, 0.1), (1.0, 2.5, FIXED, 0.4), (1.0, 3.0, EXPONENTIAL, 0.7)],
    )
    def test_matches_event_level_reference(
        self, tau_plus, tau_minus, distribution, delay, b
    ):
        # Bob's start trend is +1 or -1 with probability 1/2 on each branch,
        # so asymmetric dwells must weight the two starts equally
        dwell = DwellModel(tau_plus, tau_minus, distribution)
        n = 4000
        rng = stream(21, "ent-delay-events", tau_plus, tau_minus, delay, b)
        got = _event_level_correlation(ent.PSI_MINUS, 0.0, b, delay, dwell, rng, n)
        want = ent.delayed_correlation(ent.PSI_MINUS, 0.0, b, delay, dwell)
        assert abs(got - want) < 5 * 2 * math.sqrt((1 - (want / 2) ** 2) / n)

    def test_zero_delay_reduces_to_plain_correlation(self):
        dwell = DwellModel()
        e = ent.delayed_correlation(ent.PSI_MINUS, 0.1, 0.9, 0.0, dwell)
        assert e == pytest.approx(ent.correlation(ent.PSI_MINUS, 0.1, 0.9), abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("distribution", [EXPONENTIAL, FIXED])
    def test_smallest_normal_dwells_keep_the_zero_delay_statistic(self, distribution):
        # an infinite switching rate made S NaN at delay 0 (inf * 0)
        tau = sys.float_info.min
        plan = ent.MeasurementPlan(dwell=DwellModel(tau, tau, distribution))
        s = ent.chsh(plan, ent.PSI_MINUS).statistic
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_long_delay_leaves_y_branch(self):
        dwell = DwellModel()
        a, b = 0.4, 1.3
        e = ent.delayed_correlation(ent.PSI_MINUS, a, b, 100.0, dwell)
        assert e == pytest.approx(-math.sin(a) * math.sin(b), abs=1e-12)

    def test_full_degradation_kills_correlation(self):
        dwell = DwellModel()
        e = ent.delayed_correlation(
            ent.PSI_MINUS, 0.4, 1.3, 100.0, dwell, degrade_y=True
        )
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_damping_is_exponential_in_rate_sum(self):
        dwell = DwellModel(2.0, 0.5)
        a, b = 0.0, 0.0
        delay = 0.3
        expected = -math.exp(-(1 / 2.0 + 1 / 0.5) * delay)
        assert ent.delayed_correlation(
            ent.PSI_MINUS, a, b, delay, dwell
        ) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("delay", [0.2, 1.0])
    def test_monte_carlo_matches_analytic(self, delay):
        # the Monte Carlo check of the exponential-dwell delay law
        plan = ent.MeasurementPlan(samples=400000, delay=delay, dwell=DwellModel())
        rng = stream(21, "ent-delay-mc", delay)
        mc = ent.chsh(plan, ent.PSI_MINUS, ent.MONTE_CARLO, rng)
        for (a, b), approx in zip(mc.settings, mc.expectations):
            exact = ent.delayed_correlation(ent.PSI_MINUS, a, b, delay, plan.dwell)
            assert approx == pytest.approx(exact, abs=0.01)

    @pytest.mark.parametrize("delay", [-0.1, math.nan])
    def test_rejects_bad_delay(self, delay):
        with pytest.raises(ValueError, match="delay must be non-negative"):
            ent.MeasurementPlan(delay=delay)

    @pytest.mark.parametrize(
        "tau_plus, tau_minus, delays",
        [
            (1.0, 1.0, (0.3, 1.7, 4.4, 7.7)),
            (1.0, 2.5, (0.6, 2.0, 3.2, 6.1)),
            (3.0, 0.7, (0.5, 2.9, 4.0, 9.3)),
        ],
    )
    def test_fixed_dwell_flip_probability_matches_parity_sampler(
        self, tau_plus, tau_minus, delays
    ):
        dwell = DwellModel(tau_plus, tau_minus, FIXED)
        n = 20000
        for delay in delays:
            rng = stream(21, "ent-fixed-parity", tau_plus, tau_minus, delay)
            sampled = float(np.mean(flip_parity(dwell, delay, rng, size=n)))
            p = odd_flip_probability(dwell, delay)
            assert abs(sampled - p) < 5 * math.sqrt(p * (1 - p) / n) + 1e-9

    @pytest.mark.parametrize("delay", [0.0, 0.25, 1.0, 1.6, 2.0, 5.3])
    def test_fixed_dwell_analytic(self, delay):
        # unit dwells at a uniform phase: switches fall at r, r + 1, ...
        # with r ~ U[0, 1), so the parity is the fractional part of the
        # delay, or its complement after an odd number of whole periods
        q, f = divmod(delay, 1.0)
        p_odd = f if int(q) % 2 == 0 else 1.0 - f
        dwell = DwellModel(1.0, 1.0, FIXED)
        plan = ent.MeasurementPlan(delay=delay, dwell=dwell)
        terms = [
            -math.cos(a) * math.cos(b) * (1 - 2 * p_odd) - math.sin(a) * math.sin(b)
            for a, b in ent.chsh(plan, ent.PSI_MINUS).settings
        ]
        a, b = plan.alice_angles[0], plan.bob_angles[0]
        assert ent.delayed_correlation(
            ent.PSI_MINUS, a, b, delay, dwell
        ) == pytest.approx(terms[0], abs=1e-12)
        assert ent.chsh(plan, ent.PSI_MINUS).statistic == pytest.approx(
            abs(terms[0] - terms[1] + terms[2] + terms[3]), abs=1e-12
        )

    @pytest.mark.parametrize("delay", [0.3, 1.4, 3.7])
    def test_fixed_dwell_monte_carlo_within_stderr(self, delay):
        plan = ent.MeasurementPlan(
            samples=10**6, delay=delay, dwell=DwellModel(1.0, 2.5, FIXED)
        )
        exact = ent.chsh(plan, ent.PSI_MINUS, degrade_y=True)
        rng = stream(21, "ent-fixed-mc", delay)
        mc = ent.chsh(plan, ent.PSI_MINUS, ent.MONTE_CARLO, rng, degrade_y=True)
        for e, want, se in zip(mc.expectations, exact.expectations, mc.stderrs):
            assert se == pytest.approx(
                2 * math.sqrt((1 - (e / 2) ** 2) / plan.samples), rel=1e-12
            )
            assert abs(e - want) < 5 * se

    def test_statistic_monotone_in_delay(self):
        dwell = DwellModel()
        stats = []
        for delay in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0):
            plan = ent.MeasurementPlan(delay=delay, dwell=dwell)
            stats.append(ent.chsh(plan, ent.PSI_MINUS).statistic)
        assert all(x >= y - 1e-12 for x, y in zip(stats, stats[1:]))
        assert stats[0] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert stats[-1] == pytest.approx(math.sqrt(2), abs=1e-3)

