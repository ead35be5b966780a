import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmodel import entanglement as ent
from spinmodel import qm_oracle as qm
from spinmodel.streams import stream
from spinmodel.telegraph import FIXED, DwellModel, flip_parity

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
            assert sum(d.weights) == pytest.approx(1.0)
            # half weight on each of the two compatible corners
            assert sorted(d.weights) == [0.0, 0.0, 0.5, 0.5]

    def test_anti_axis_occupies_opposite_corners(self):
        d = ent.joint_density(ent.PSI_MINUS, ent.AXIS_Z)
        assert d.weights == (0.0, 0.5, 0.5, 0.0)

    def test_joint_density_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            ent.joint_density(ent.PSI_MINUS, "x")

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_bell_densities_do_not_factorize(self, model):
        for axis in (ent.AXIS_Z, ent.AXIS_Y):
            d = ent.joint_density(model, axis)
            assert ent.rank_one_residual(d) > 0.4

    def test_product_density_factorizes(self):
        product = ent.JointTwoPointDensity((0.25, 0.25, 0.25, 0.25))
        assert ent.rank_one_residual(product) == pytest.approx(0.0, abs=1e-12)


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

    def test_branch_expectation_signs(self):
        assert ent.branch_expectation(ent.ANTI, 0.0, 0.0) == -1.0
        assert ent.branch_expectation(ent.SAME, 0.0, 0.0) == +1.0


class TestSampling:
    def test_z_branch_products_at_aligned_angles(self):
        rng = stream(21, "ent-aligned")
        s_a, s_b, branch = ent.sample_pair_outcomes(
            ent.PSI_MINUS, 0.0, 0.0, 20000, rng
        )
        z = branch == 0
        assert np.all(s_a[z] * s_b[z] == -1)

    def test_single_outcome_tags_branch(self):
        rng = stream(21, "ent-single")
        s_a, s_b, tag = ent.sample_pair_outcome(ent.PSI_MINUS, 0.0, 0.0, rng)
        assert s_a in (-1, 1) and s_b in (-1, 1)
        assert tag in (ent.AXIS_Z, ent.AXIS_Y)

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

    def test_result_rows(self):
        result = ent.chsh(ent.MeasurementPlan(), ent.PSI_MINUS)
        rows = list(result.rows())
        assert len(rows) == 4 and len(rows[0]) == 4


class TestDelayedMeasurement:
    def test_zero_delay_reduces_to_plain_correlation(self):
        dwell = DwellModel()
        e = ent.delayed_correlation(ent.PSI_MINUS, 0.1, 0.9, 0.0, dwell)
        assert e == pytest.approx(ent.correlation(ent.PSI_MINUS, 0.1, 0.9), abs=1e-12)

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
        dwell = DwellModel()
        a, b = 0.0, math.pi / 4
        exact = ent.delayed_correlation(ent.PSI_MINUS, a, b, delay, dwell)
        rng = stream(21, "ent-delay-mc", delay)
        approx = ent.delayed_correlation(
            ent.PSI_MINUS, a, b, delay, dwell,
            mode=ent.MONTE_CARLO, n=400000, rng=rng,
        )
        assert approx == pytest.approx(exact, abs=0.01)

    def test_fixed_dwell_monte_carlo_runs(self):
        dwell = DwellModel(1.0, 1.0, FIXED)
        rng = stream(21, "ent-delay-fixed")
        e = ent.delayed_correlation(
            ent.PSI_MINUS, 0.0, 0.0, 0.5, dwell,
            mode=ent.MONTE_CARLO, n=50000, rng=rng,
        )
        # unit fixed dwells at delay 0.5 flip with probability 1/2, which
        # wipes out the z-branch; the y-branch vanishes at these angles
        assert e == pytest.approx(0.0, abs=0.05)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ent.delayed_correlation(
                ent.PSI_MINUS, 0.0, 0.0, 0.5, DwellModel(), mode="bogus",
                rng=stream(21, "ent-bogus"),
            )

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
            p = ent._p_flip(dwell, delay)
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


class TestTimeConstraint:
    def test_within_window(self):
        assert ent.time_constraint_satisfied(0.0, 0.5, tau_plus=1.0)

    def test_outside_window(self):
        assert not ent.time_constraint_satisfied(0.0, 2.0, tau_plus=1.0)

    def test_rejects_reversed_order(self):
        with pytest.raises(ValueError):
            ent.time_constraint_satisfied(1.0, 0.5, tau_plus=1.0)
