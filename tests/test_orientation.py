import math
import os
from fractions import Fraction
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import spinmodel
from spinmodel import orientation as om
from spinmodel import stern_gerlach as sg
from spinmodel.streams import BLOCK, _spans, stream

# independently computed by adaptive quadrature (see docstrings for the
# closed forms being integrated)
ACTION_P1_TSALLIS = 0.20042175487614133
ACTION_P1_RENYI = 0.18267295744229864
ACTION_KL_STATIONARY = -0.1179571792535894
EXP_COS_NORMALIZER = 3.977463260506423  # int_0^pi exp(cos t) dt = pi I_0(1)


class TestNormalizationConstant:
    def test_uniform_case(self):
        assert om.normalization_constant(0) == pytest.approx(math.pi, abs=1e-12)

    def test_first_order(self):
        # int cos^2 over [0, pi] = pi/2
        assert om.normalization_constant(1) == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_wallis_recurrence(self, m):
        ratio = om.normalization_constant(m) / om.normalization_constant(m - 1)
        assert ratio == pytest.approx((2 * m - 1) / (2 * m), rel=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            om.normalization_constant(-1)

    @pytest.mark.parametrize(
        "m", [*range(0, 130), 150, 199, 200, 500, 1000, 2047, 3000, 5000, 10**4]
    )
    def test_matches_exact_central_binomial(self, m):
        # Z_m = pi C(2m, m) / 4^m, the rational rounded once: the Wallis
        # product below m = 100 and the asymptotic series from 100 up
        exact = math.pi * float(Fraction(math.comb(2 * m, m), 4**m))
        assert om.normalization_constant(m) == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("m", range(90, 111))
    def test_recurrence_across_series_switch(self, m):
        ratio = om.normalization_constant(m + 1) / om.normalization_constant(m)
        assert ratio == pytest.approx((2 * m + 1) / (2 * m + 2), rel=2e-15, abs=0)

    def test_largest_order_costs_one_series(self):
        m = 2**52 - 1
        assert om.normalization_constant(m) == pytest.approx(
            math.sqrt(math.pi / m), rel=1e-15
        )

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 40, 300])
    def test_matches_quadrature(self, m):
        value, _ = integrate.quad(
            lambda t: np.cos(t) ** (2 * m), 0.0, np.pi, epsrel=1e-13, limit=200
        )
        assert om.normalization_constant(m) == pytest.approx(value, rel=1e-12)


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(spinmodel.__file__))
    code = "import sys, spinmodel.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == b"False"


ORDER_USERS = {
    "normalization_constant": om.normalization_constant,
    "eval_density": lambda m: om.eval_density(m, 0.3),
    "sample_theta": lambda m: om.sample_theta(m, stream(7, "orientation-order"), 3),
    "conditional_density":
        lambda m: sg.conditional_density(om.closed_form_density(0, 64), m),
    "ApparatusConfig": lambda m: sg.ApparatusConfig(m=m),
    **{
        f"ActionSpec-{divergence}": lambda m, d=divergence: om.ActionSpec(
            divergence=d, m=m
        )
        for divergence in (om.TSALLIS, om.RENYI, om.KULLBACK_LEIBLER)
    },
}


@pytest.mark.parametrize(
    "m",
    [math.nan, math.inf, -math.inf, 1.5, -1, 10**400, True, False, np.True_],
    ids=["nan", "inf", "-inf", "1.5", "-1", "10**400", "True", "False", "np.True_"],
)
@pytest.mark.parametrize("use", ORDER_USERS.values(), ids=list(ORDER_USERS))
def test_order_is_a_whole_number(use, m):
    # one rule for every reader of the order, so none fails with a TypeError,
    # an OverflowError or a silent NaN
    with pytest.raises(ValueError, match="m must be non-negative and a whole"):
        use(m)


class TestAlpha:
    def test_values(self):
        assert om.ActionSpec(m=1).alpha == 1.5
        assert om.ActionSpec(m=2).alpha == 1.25

    def test_m_zero_has_no_order(self):
        with pytest.raises(ValueError):
            om.ActionSpec(m=0)

    def test_kl_order_is_at_least_one(self):
        # alpha = 1 + 1/(2m) divides by m for every divergence
        with pytest.raises(ValueError, match="m must be >= 1"):
            om.ActionSpec(divergence=om.KULLBACK_LEIBLER, m=0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_approaches_one_from_above(self, m):
        assert 1.0 < om.ActionSpec(m=m).alpha <= 1.5


class TestDensityFamily:
    @pytest.mark.parametrize("m", range(0, 11))
    def test_normalized(self, m):
        d = om.closed_form_density(m, 2048)
        assert d.integral() == pytest.approx(1.0, abs=1e-10)

    @given(
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_mirror_symmetry(self, m, theta):
        assert om.eval_density(m, theta) == pytest.approx(
            om.eval_density(m, math.pi - theta), rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("m", range(1, 11))
    def test_pole_mass_grows_with_m(self, m):
        def pole_mass(order):
            thetas = np.linspace(0.0, 0.3, 2001)
            return np.trapezoid(
                np.asarray(om.eval_density(order, thetas)), thetas
            )

        assert pole_mass(m) > pole_mass(m - 1)

    def test_midpoint_vanishes_for_positive_order(self):
        assert om.eval_density(5, math.pi / 2) == pytest.approx(0.0, abs=1e-30)

    def test_uniform_density_value(self):
        # bit for bit: cos^0 / Z_0 with Z_0 = pi is the uniform 1/pi
        thetas = np.append(np.linspace(-10.0, 10.0, 14101), math.nan)
        assert np.all(om.eval_density(0, thetas) == 1.0 / math.pi)
        assert om.eval_density(0, 1.234) == 1.0 / math.pi


class TestGridDensity:
    def test_rejects_unnormalized(self):
        t = om.theta_grid(64)
        with pytest.raises(ValueError):
            om.GridDensity(t, np.full_like(t, 1.0))

    def test_rejects_negative_values(self):
        t = om.theta_grid(64)
        v = np.full_like(t, 1.0 / math.pi)
        v[3] = -v[3]
        with pytest.raises(ValueError):
            om.GridDensity(t, v)

    def test_rejects_non_finite_values(self):
        t = om.theta_grid(64)
        with pytest.raises(ValueError, match="finite"):
            om.GridDensity(t, np.full_like(t, np.nan))

    def test_from_unnormalized(self):
        t = om.theta_grid(256)
        d = om.GridDensity.from_unnormalized(t, np.cos(t) ** 2)
        assert d.integral() == pytest.approx(1.0, abs=1e-12)

    def test_expectation_of_cos_squared(self):
        d = om.closed_form_density(1, n_nodes=4096)
        # int cos^2 * p_1 = Z_2 / Z_1 = 3/4
        assert d.expectation(lambda t: np.cos(t) ** 2) == pytest.approx(
            0.75, abs=1e-6
        )


class TestTwoPointDensity:
    def test_valid(self):
        d = om.TwoPointDensity(0.25, 0.75)
        assert d.weight_up == 0.25

    @pytest.mark.parametrize("wu,wd", [(0.5, 0.6), (-0.1, 1.1), (1.2, -0.2)])
    def test_invalid(self, wu, wd):
        with pytest.raises(ValueError):
            om.TwoPointDensity(wu, wd)


class TestSampling:
    def test_moment_matches_density(self):
        rng = stream(7, "orientation-sampling")
        thetas = om.sample_theta(1, rng, 200000)
        assert np.mean(np.cos(thetas) ** 2) == pytest.approx(0.75, abs=5e-3)

    def test_uniform_case(self):
        rng = stream(7, "orientation-sampling-uniform")
        thetas = om.sample_theta(0, rng, 200000)
        assert np.mean(thetas) == pytest.approx(math.pi / 2, abs=5e-3)

    def test_large_order_concentrates_at_poles(self):
        rng = stream(7, "orientation-sampling-poles")
        thetas = om.sample_theta(200, rng, 50000)
        near_pole = (thetas < 0.1) | (thetas > math.pi - 0.1)
        assert np.mean(near_pole) > 0.9

    @pytest.mark.parametrize("m", [0, 1, 10, 300])
    @pytest.mark.parametrize("size", [None, 7, (3, 5)])
    def test_shape_and_type_contract(self, m, size):
        thetas = om.sample_theta(m, stream(7, "orientation-shape", m), size)
        again = om.sample_theta(m, stream(7, "orientation-shape", m), size)
        if size is None:
            assert isinstance(thetas, float)
        else:
            assert isinstance(thetas, np.ndarray)
            assert thetas.shape == np.empty(size).shape
        assert np.all((0.0 <= thetas) & (thetas <= math.pi))
        assert np.array_equal(thetas, again)

    @pytest.mark.parametrize("m", [0, 1, 10, 10**4, 10**6, 10**9])
    def test_moments_match_beta_law(self, m):
        # cos^2 theta ~ Beta(m + 1/2, 1/2): mean (2m+1)/(2m+2), variance
        # (m + 1/2)/2 / ((m + 1)^2 (m + 2)); sin^2 theta = 1 - cos^2 theta
        # resolves the poles, and cos theta is symmetric about 0
        n = 400000
        thetas = om.sample_theta(m, stream(7, "orientation-moments", m), n)
        se = math.sqrt((m + 0.5) / 2.0 / ((m + 1) ** 2 * (m + 2)) / n)
        cos_mean = (2 * m + 1) / (2 * m + 2)
        assert abs(np.mean(np.cos(thetas) ** 2) - cos_mean) < 5 * se
        assert abs(np.mean(np.sin(thetas) ** 2) - 1.0 / (2 * m + 2)) < 5 * se
        assert abs(np.mean(np.cos(thetas))) < 5 * math.sqrt(cos_mean / n)

    @pytest.mark.parametrize("m", [0, 1, 3, 10, 10**3, 10**6])
    def test_cos_theta_is_cos_of_theta_from_equal_streams(self, m):
        # sample_theta is arctan2 of the roots of the shared draw's squares
        key = ("orientation-cos", m)
        s, cos2 = _shared_draw(m, stream(7, *key), 100000)
        rng = stream(7, *key)
        thetas = om.sample_theta(m, rng, 100000)
        assert np.max(np.abs(np.copysign(np.sqrt(cos2), s) - np.cos(thetas))) <= 1e-15
        # the same draws, in the same order: both streams end in one place
        after = stream(7, *key)
        _shared_draw(m, after, 100000)
        assert after.random() == rng.random()

    @pytest.mark.parametrize("m", [0, 1, 3, 10, 10**3, 10**6])
    def test_cos_theta_second_moment(self, m):
        # cos^2 theta ~ Beta(m + 1/2, 1/2), as in test_moments_match_beta_law;
        # the two squares, each formed without cancellation, add up to 1
        n = 400000
        s, cos2 = _shared_draw(m, stream(7, "orientation-cos-moment", m), n)
        se = math.sqrt((m + 0.5) / 2.0 / ((m + 1) ** 2 * (m + 2)) / n)
        assert abs(np.mean(cos2) - (2 * m + 1) / (2 * m + 2)) < 5 * se
        assert np.all((0.0 <= cos2) & (cos2 <= 1.0))
        assert np.max(np.abs(np.abs(s) + cos2 - 1.0)) <= 4.5e-16

    @pytest.mark.parametrize("m", [1, 10, 10**3, 10**6, 10**9])
    def test_quantization_rate_is_exact(self, m):
        # the paper's quantization limit as a rate: sin^2 theta ~ Beta(1/2,
        # m + 1/2) gives E[sin^2 theta] = 1/(2m + 2) exactly, so the mass
        # off the poles falls as 1/m; checked against the sample's own SE
        n = 10**6
        sin2 = np.abs(_shared_draw(m, stream(7, "orientation-rate", m), n)[0])
        se = float(np.std(sin2)) / math.sqrt(n)
        assert abs(float(np.mean(sin2)) - 1.0 / (2 * m + 2)) < 5 * se

    @pytest.mark.parametrize("m", [0, 1, 10])
    def test_bin_counts_match_density_quadrature(self, m):
        n = 200000
        thetas = om.sample_theta(m, stream(7, "orientation-bins", m), n)
        edges = np.linspace(0.0, math.pi, 31)
        counts, _ = np.histogram(thetas, bins=edges)
        probs = np.array([
            integrate.quad(lambda t: om.eval_density(m, t), lo, hi, epsabs=1e-14)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        ])
        sigma = np.sqrt(n * probs * (1.0 - probs))
        assert np.all(np.abs(counts - n * probs) <= 5 * sigma + 1e-9)

    @pytest.mark.parametrize("m", [10**4, 10**6, 10**9])
    def test_bin_counts_match_beta_law(self, m):
        # sin^2 theta ~ Beta(1/2, m + 1/2), split evenly between the
        # hemispheres; edges are scaled by the mean 1/(2m + 2)
        n = 200000
        thetas = om.sample_theta(m, stream(7, "orientation-beta-bins", m), n)
        edges = np.array([0.0, 0.02, 0.1, 0.3, 0.6, 1.0, 2.0, 4.0, 8.0]) / (m + 1)
        edges = np.append(edges, 1.0)
        cdf = special.betainc(0.5, m + 0.5, edges)
        probs = 0.5 * np.diff(cdf)
        sin2 = np.sin(thetas) ** 2
        for hemisphere in (thetas < math.pi / 2, thetas >= math.pi / 2):
            counts, _ = np.histogram(sin2[hemisphere], bins=edges)
            sigma = np.sqrt(n * probs * (1.0 - probs))
            assert np.all(np.abs(counts - n * probs) <= 5 * sigma + 1e-9)


def _shared_draw(m, rng, n):
    """(sin^2 theta signed by its hemisphere, cos^2 theta) of n values of
    the shared orientation draw, block b from child b of one spawn, as the
    samplers take them."""
    s, cos2 = np.empty(n), np.empty(n)
    for child, (start, stop) in zip(rng.spawn(-(-n // BLOCK)), _spans(n)):
        scratch = np.empty(stop - start)
        om._sin2_block(m, child, s[start:stop], scratch, cos2[start:stop])
    return s, cos2


# around the block edges, and the scalar and 2-d shapes
BLOCK_SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, None, (3, 5)]


class TestBlockedSampling:
    @pytest.mark.parametrize("m", [0, 1, 10**3])
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_same_bits_as_one_call(self, m, size):
        # block b holds V and then U drawn from child b of the stream, each
        # by one call (no U at m = 0); the one-call formulas on those draws
        # give every bit, and the stream is left where one spawn of all
        # blocks leaves it
        key = ("orientation-blocks", m)
        shape = () if size is None else size
        n = np.empty(shape).size
        ref = stream(7, *key)
        draws = [
            (child.random(stop - start),
             child.random(stop - start) if m else np.zeros(stop - start))
            for child, (start, stop) in zip(ref.spawn(-(-n // BLOCK)), _spans(n))
        ]
        v = np.concatenate([d[0] for d in draws]).reshape(shape)
        u = np.concatenate([d[1] for d in draws]).reshape(shape)
        t = np.tan((v * -2.0 + 1.0) * (np.pi / 2))
        a = np.abs(t)
        if m:
            y = np.log1p(-u) / m
            minus_w, e = np.expm1(y), np.exp(y)
        else:
            minus_w, e = np.full(shape, -1.0), np.zeros(shape)
        s = minus_w * t * a / (a * a + 1.0)
        cos2 = (e * (a * a) + 1.0) / (a * a + 1.0)
        theta_rng = stream(7, *key)
        theta = om.sample_theta(m, theta_rng, size)
        assert np.array_equal(
            theta, np.arctan2(np.sqrt(np.abs(s)), np.copysign(np.sqrt(cos2), s))
        )
        assert np.shape(theta) == v.shape
        if size is None:
            assert isinstance(theta, float)
        assert theta_rng.random() == ref.random()
        assert theta_rng.spawn(1)[0].random() == ref.spawn(1)[0].random()


class TestActionFunctional:
    def test_uniform_density_zero_action(self):
        # classical term vanishes by symmetry and the divergence from the
        # uniform prior is zero for every variant
        uniform = om.GridDensity.from_unnormalized(om.theta_grid(2048), np.ones(2048))
        for div in (om.TSALLIS, om.RENYI, om.KULLBACK_LEIBLER):
            spec = om.ActionSpec(divergence=div, m=1)
            assert om.total_action(uniform, spec) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_closed_form_tsallis_value(self):
        spec = om.ActionSpec(divergence=om.TSALLIS, m=1)
        d = om.closed_form_density(1, n_nodes=4096)
        assert om.total_action(d, spec) == pytest.approx(
            ACTION_P1_TSALLIS, abs=1e-6
        )

    def test_closed_form_renyi_value(self):
        spec = om.ActionSpec(divergence=om.RENYI, m=1)
        d = om.closed_form_density(1, n_nodes=4096)
        assert om.total_action(d, spec) == pytest.approx(
            ACTION_P1_RENYI, abs=1e-6
        )

    def test_kl_stationary_value(self):
        spec = om.ActionSpec(divergence=om.KULLBACK_LEIBLER)
        t = om.theta_grid(4096)
        d = om.GridDensity(t, np.exp(np.cos(t)) / EXP_COS_NORMALIZER)
        assert om.total_action(d, spec) == pytest.approx(
            ACTION_KL_STATIONARY, abs=1e-6
        )

    def test_kl_stationary_beats_neighbors(self):
        # the exponential-of-cosine family is a true minimizer of the KL
        # variant: perturbations raise the action
        spec = om.ActionSpec(divergence=om.KULLBACK_LEIBLER)
        t = om.theta_grid(4096)
        base = om.GridDensity(t, np.exp(np.cos(t)) / EXP_COS_NORMALIZER)
        a0 = om.total_action(base, spec)
        for eps in (0.05, -0.05, 0.2):
            pert = om.GridDensity.from_unnormalized(
                t, base.values * (1.0 + eps * np.cos(2 * t))
            )
            assert om.total_action(pert, spec) > a0

    def test_rejects_unknown_divergence(self):
        with pytest.raises(ValueError):
            om.ActionSpec(divergence="hellinger")

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            om.ActionSpec(delta_phi=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["g_s", "L_s", "delta_phi"])
    def test_rejects_non_finite_couplings(self, name, value):
        with pytest.raises(ValueError, match=name):
            om.ActionSpec(**{name: value})


class TestVariationalSolve:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("div", [om.TSALLIS, om.RENYI])
    def test_matches_closed_form(self, m, div):
        spec = om.ActionSpec(divergence=div, m=m)
        solved = om.variational_solve(spec, 2048)
        target = np.asarray(om.eval_density(m, solved.thetas))
        assert float(np.max(np.abs(solved.values - target))) <= 1e-6

    def test_kl_exponential_family(self):
        spec = om.ActionSpec(divergence=om.KULLBACK_LEIBLER)
        solved = om.variational_solve(spec, n_nodes=4096)
        target = np.exp(np.cos(solved.thetas)) / EXP_COS_NORMALIZER
        assert float(np.max(np.abs(solved.values - target))) <= 1e-6
        assert np.all(solved.values > 0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tsallis_and_renyi_share_the_closed_form(self, m):
        closed = om.closed_form_density(m, n_nodes=512)
        for div in (om.TSALLIS, om.RENYI):
            solved = om.variational_solve(om.ActionSpec(divergence=div, m=m), 512)
            assert np.array_equal(solved.values, closed.values)
            assert np.array_equal(solved.thetas, closed.thetas)

    def test_kl_overflow_is_rejected(self):
        # exp(g_s L_s cos theta) overflows to inf, and inf / inf is NaN
        spec = om.ActionSpec(divergence=om.KULLBACK_LEIBLER, g_s=1e4)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            om.variational_solve(spec, 2048)


class TestLimitDensity:
    def test_symmetric_density_splits_evenly(self):
        two = om.limit_density(om.closed_form_density(1, 2048))
        assert two.weight_up == pytest.approx(0.5, abs=1e-9)

    def test_tilted_density(self):
        # odd node count puts a grid node exactly at the pi/2 split
        t = om.theta_grid(4097)
        d = om.GridDensity.from_unnormalized(t, 1.0 + np.cos(t))
        two = om.limit_density(d)
        # int_0^{pi/2} (1 + cos) / pi = (pi/2 + 1)/pi
        assert two.weight_up == pytest.approx(
            (math.pi / 2 + 1.0) / math.pi, abs=1e-6
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_solver_output_is_normalized_density(m):
    solved = om.variational_solve(om.ActionSpec(m=m), 2048)
    assert solved.integral() == pytest.approx(1.0, abs=1e-10)
    assert np.all(solved.values >= 0)
