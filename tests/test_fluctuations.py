import math
import re

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from spinmodel import cli
from spinmodel import fluctuations as fl
from spinmodel import pauli, streams
from spinmodel.streams import BLOCK, _spans, stream
from spinmodel.telegraph import DwellModel


class TestTranslation:
    def test_component_variance(self):
        params = fl.TranslationParams(mass=2.0, dt=0.5)
        assert params.component_variance == pytest.approx(0.125)

    def test_rejects_nonpositive(self):
        for mass, dt in [(-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                fl.TranslationParams(mass=mass, dt=dt)

    @pytest.mark.parametrize(
        # dt / 2m or m / dt underflows or overflows: the product read NaN or inf
        "mass, dt", [(1e300, 1e-300), (1e-300, 1e300), (1e-10, 1e300), (1e200, 1e-120)]
    )
    def test_rejects_scales_that_are_not_normal(self, mass, dt):
        with pytest.raises(ValueError, match=re.escape("mass and dt: dt / (2 mass)")):
            fl.TranslationParams(mass=mass, dt=dt)

    def test_uncertainty_product(self):
        params = fl.TranslationParams()
        rng = stream(31, "fl-ur")
        w = fl.sample_displacement(params, rng, 10**6)
        assert fl.uncertainty_product(w, params) == pytest.approx(0.5, abs=0.005)

    @pytest.mark.parametrize("mass,dt", [(1.0, 1.0), (3.0, 0.2), (0.5, 4.0)])
    def test_product_invariant_across_parameters(self, mass, dt):
        params = fl.TranslationParams(mass=mass, dt=dt)
        rng = stream(31, "fl-ur-inv", mass, dt)
        w = fl.sample_displacement(params, rng, 200000)
        assert fl.uncertainty_product(w, params) == pytest.approx(0.5, abs=0.01)

    def test_requires_enough_samples(self):
        params = fl.TranslationParams()
        rng = stream(31, "fl-few")
        with pytest.raises(ValueError):
            fl.uncertainty_product(fl.sample_displacement(params, rng, 100), params)


class TestRotation:
    @pytest.mark.parametrize(
        "mass, omega", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_rejects_nonpositive(self, mass, omega):
        with pytest.raises(ValueError):
            fl.RotationParams(mass=mass, omega=omega)

    @pytest.mark.parametrize(
        # m omega underflows or overflows, or 1 / (2 m omega) is subnormal
        "mass, omega", [(1e-200, 1e-200), (1e200, 1e200), (1e154, 1e154)]
    )
    def test_rejects_scales_that_are_not_normal(self, mass, omega):
        with pytest.raises(ValueError, match="mass and omega: "):
            fl.RotationParams(mass=mass, omega=omega)

    @pytest.mark.parametrize("mass,omega", [(1.0, 1.0), (3.0, 7.0), (0.5, 2.0)])
    def test_angular_momentum_half_hbar(self, mass, omega):
        params = fl.RotationParams(mass=mass, omega=omega)
        rng = stream(31, "fl-ls", mass, omega)
        assert fl.expected_angular_momentum(params, 10**6, rng) == pytest.approx(
            0.5, abs=0.005
        )

    @pytest.mark.parametrize(
        "n",
        [1, 2, 10**4, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 10**6 + 3, 2**20 + 17],
    )
    def test_same_bits_as_one_mean(self, n, monkeypatch):
        # the mean of the n squared radii is one draw of its exact law, at
        # odd and even n, from the caller's generator: no child, no thread
        monkeypatch.setattr(streams, "_two_threads", _no_thread)
        params = fl.RotationParams(mass=3.0, omega=7.0)
        rng, ref = stream(31, "fl-ls-blocks", n), stream(31, "fl-ls-blocks", n)
        mean = 2.0 * ref.standard_gamma(n / 2) / n
        expected = params.mass * params.omega * params.radius_scale**2 * mean
        assert fl.expected_angular_momentum(params, n, rng) == expected
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert rng.random() == ref.random()


def _no_thread(first, second):
    raise AssertionError("a fluctuation reduction started a thread")


class TestStreamedUncertaintyProduct:
    @pytest.mark.parametrize("n", [1, 2, 10**4, 10**4 + 1, 10**6 + 3])
    @pytest.mark.parametrize("mass, dt", [(1.0, 1.0), (3.0, 0.2)])
    def test_same_bits_as_one_mean(self, n, mass, dt, monkeypatch):
        # the mean square of the 3n components is one draw of its exact law,
        # from the caller's generator: no child stream and no thread
        monkeypatch.setattr(streams, "_two_threads", _no_thread)
        params = fl.TranslationParams(mass=mass, dt=dt)
        rng, ref = stream(31, "fl-ur-gamma", n), stream(31, "fl-ur-gamma", n)
        mean = 2.0 * ref.standard_gamma(3 * n / 2) / (3 * n)
        expected = params.mass / params.dt * params.component_variance * mean
        assert fl.expected_uncertainty_product(params, n, rng) == expected
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [1, BLOCK // 3, BLOCK // 3 + 1, 3 * BLOCK + 5])
    def test_components_follow_the_block_rule(self, n):
        # block b of the flat 3n components is sd times the normals drawn
        # from child b of the stream by one call
        params = fl.TranslationParams(mass=3.0, dt=0.2)
        sd = math.sqrt(params.component_variance)
        children = stream(31, "fl-ur-blocks", n).spawn(-(-3 * n // BLOCK))
        expected = np.concatenate([
            child.standard_normal(stop - start) * sd
            for child, (start, stop) in zip(children, _spans(3 * n))
        ]).reshape(n, 3)
        w = fl.sample_displacement(params, stream(31, "fl-ur-blocks", n), n)
        assert np.array_equal(w, expected)

    def test_array_form_is_one_square_sum(self):
        params = fl.TranslationParams(mass=3.0, dt=0.2)
        w = fl.sample_displacement(params, stream(31, "fl-ur-rule"), 3 * BLOCK + 5)
        flat = w.reshape(-1)
        total = float(np.einsum("i,i->", flat, flat))
        expected = params.mass / params.dt * total / flat.size
        assert fl.uncertainty_product(w, params) == expected

    @pytest.mark.parametrize("mass, dt", [(1.0, 1.0), (3.0, 0.2), (0.5, 4.0)])
    def test_within_five_sigma_of_one_half(self, mass, dt):
        # (m / dt) w^2 is chi-square(1) / 2: variance 1/2 per component, so
        # the mean of 3n of them has sd (1/2) sqrt(2 / 3n)
        n = 10**6
        params = fl.TranslationParams(mass=mass, dt=dt)
        got = fl.expected_uncertainty_product(params, n, stream(31, "fl-ur-law", mass))
        assert abs(got - 0.5) <= 5 * 0.5 * math.sqrt(2.0 / (3 * n))


# each sampled row, called with a count n on a stream, and its squares per draw
ROWS = {
    "expected_uncertainty_product": (
        lambda rng, n: fl.expected_uncertainty_product(
            fl.TranslationParams(3.0, 0.2), n, rng
        ),
        3,
    ),
    "expected_angular_momentum": (
        lambda rng, n: fl.expected_angular_momentum(fl.RotationParams(3.0, 7.0), n, rng),
        1,
    ),
}


@pytest.mark.parametrize("name", ROWS)
def test_rows_spread_as_their_exact_law(name):
    # a row is chi^2_k / (2k), k = 3n or n squares: mean 1/2, variance
    # 1/(2k) and fourth central moment (3 + 12/k) / (4k^2).  A Gamma shape
    # off by 2x keeps the mean, so only the variance catches it
    row, per_draw = ROWS[name]
    n, keys = 10**4, 400
    k = per_draw * n
    values = np.array([row(stream(31, "fl-spread", name, i), n) for i in range(keys)])
    variance, fourth = 1.0 / (2 * k), (3.0 + 12.0 / k) / (4.0 * k**2)
    assert abs(values.mean() - 0.5) <= 5 * math.sqrt(variance / keys)
    # the variance of the unbiased sample variance of `keys` draws
    spread = fourth / keys - variance**2 * (keys - 3) / (keys * (keys - 1))
    assert abs(values.var(ddof=1) - variance) <= 5 * math.sqrt(spread)


class TestGaussHermiteRule:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_numpy_rule(self, n):
        nodes, weights = fl._gauss_hermite(n)
        ref_nodes, ref_weights = hermegauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
        np.testing.assert_allclose(weights, ref_weights / math.sqrt(2 * math.pi),
                                   rtol=2e-13, atol=0)

    def test_large_rule_is_finite_symmetric_and_exact(self):
        # 500 nodes: numpy's own rule overflows to NaN beyond ~370
        nodes, weights = fl._gauss_hermite(500)
        assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
        assert np.all(np.diff(nodes) > 0) and np.all(weights >= 0)
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert weights.sum() == pytest.approx(1.0, rel=1e-14)
        # E[x^{2k}] = (2k - 1)!! for the unit-mass weight e^{-x^2/2}/sqrt(2 pi)
        for k in range(1, 11):
            moment = float(np.sum(weights * nodes ** (2 * k)))
            assert moment == pytest.approx(math.prod(range(1, 2 * k, 2)), rel=1e-12)

    def test_rule_is_cached_read_only(self):
        nodes, weights = fl._gauss_hermite(32)
        assert fl._gauss_hermite(32)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_kl_rate_calls_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        fl._gauss_hermite.cache_clear()
        x = np.linspace(-12, 12, 4001)
        rho = np.exp(-(x**2) / 2.0) / math.sqrt(2 * math.pi)
        rate = fl.kl_shift_rate(x, rho, fl.TranslationParams(dt=0.01))
        assert rate == pytest.approx(0.25, rel=1e-4)


class TestFisherLimit:
    def _gaussian(self, sigma=1.0):
        x = np.linspace(-12, 12, 4001)
        rho = np.exp(-(x**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        return x, rho

    def test_gaussian_fisher_value(self):
        # int (rho')^2 / rho = 1 / sigma^2 for a centered Gaussian
        params = fl.TranslationParams()
        x, rho = self._gaussian(sigma=1.0)
        assert fl.fisher_functional(x, rho, params) == pytest.approx(0.25, abs=1e-4)

    def test_rejects_nonpositive_density(self):
        params = fl.TranslationParams()
        x = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError):
            fl.fisher_functional(x, np.zeros_like(x), params)

    @pytest.mark.parametrize("dt", [0.1, 0.01, 0.001])
    def test_kl_rate_approaches_fisher(self, dt):
        # for rho = N(0, s^2), KL(rho || rho(. + w)) = w^2 / 2 s^2, so the rate
        # is <w^2> / (2 s^2 dt) = hbar / (4 m s^2), the Fisher value, at any dt
        s = 1.5
        x, rho = self._gaussian(sigma=s)
        for mass in (1.0, 2.5):
            params = fl.TranslationParams(mass=mass, dt=dt)
            rate = fl.kl_shift_rate(x, rho, params)
            assert rate == pytest.approx(1.0 / (4.0 * mass * s**2), rel=1e-4, abs=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variance", cli._KL_VARIANCES)
    def test_kl_over_fisher_depends_on_the_shift_variance_alone(self, variance):
        # the CLI's KL rows, on their grid at the two ends of their admitted
        # band of dt / (2 mass): masses 10^12 apart give one ratio, near 1
        x = np.linspace(-10, 10, 4001)
        rho = np.exp(-(x**2) / 2.0) / math.sqrt(2 * math.pi)
        ratios = []
        for mass in (1.0, 1e6, 1e-6):
            params = fl.TranslationParams(mass=mass, dt=2 * variance * mass)
            rate = fl.kl_shift_rate(x, rho, params)
            ratios.append(rate / fl.fisher_functional(x, rho, params))
        assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-15, abs=0)
        assert abs(ratios[0] - 1.0) <= 1e-4

    @staticmethod
    def _per_shift_loop(x, rho, params, n_shifts):
        """Reference: one interpolation and one trapezoid per shift, on
        numpy's own Gauss-Hermite rule."""
        nodes, weights = hermegauss(n_shifts)
        shifts = math.sqrt(params.component_variance) * nodes
        log_rho = np.log(rho)
        total = 0.0
        for w, weight in zip(shifts, weights / weights.sum()):
            shifted = np.interp(x + w, x, rho, left=rho[0], right=rho[-1])
            total += weight * float(np.trapezoid(rho * (log_rho - np.log(shifted)), x))
        return total / params.dt

    @pytest.mark.parametrize("dt", [0.1, 0.01, 0.001])
    def test_kl_rate_matches_per_shift_loop(self, dt):
        params = fl.TranslationParams(dt=dt)
        x, rho = self._gaussian()
        expected = self._per_shift_loop(x, rho, params, 32)
        assert fl.kl_shift_rate(x, rho, params) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_kl_rate_matches_per_shift_loop_on_nonuniform_grid(self):
        # dense reference: a 256-node rule on a bimodal density.  6001 sinh
        # nodes keep the kinks of linear interpolation below 1e-5 relative;
        # on 1501 nodes they scatter rules of 8-256 nodes by 5e-4
        params = fl.TranslationParams(mass=2.0, dt=0.05)
        x = 3.0 * np.sinh(np.linspace(-2.5, 2.5, 6001))
        rho = np.exp(-((x - 1.0) ** 2) / 8.0) + 0.5 * np.exp(-((x + 2.0) ** 2))
        expected = self._per_shift_loop(x, rho, params, 256)
        # 500 nodes: beyond ~370, where numpy's own rule overflows to NaN
        for n_shifts in (8, 32, 500):
            rate = fl.kl_shift_rate(x, rho, params, n_shifts=n_shifts)
            assert rate == pytest.approx(expected, rel=1e-4, abs=0)

    @pytest.mark.parametrize("nodes", [2, BLOCK // 32 - 1, BLOCK // 32 + 1, 4001])
    @pytest.mark.parametrize("n_shifts", [1, 7, 32, 64])
    def test_kl_rate_same_bits_as_one_call(self, nodes, n_shifts):
        # the grid goes in blocks of about BLOCK shifted values; one call on
        # the whole (n_shifts, nodes) array gives every bit
        params = fl.TranslationParams(mass=2.0, dt=0.05)
        x = 3.0 * np.sinh(np.linspace(-2.5, 2.5, nodes))
        rho = np.exp(-((x - 1.0) ** 2) / 8.0) + 0.5 * np.exp(-((x + 2.0) ** 2))
        nodes_, weights = fl._gauss_hermite(n_shifts)
        w = math.sqrt(params.component_variance) * nodes_
        s = np.interp(x + w[:, None], x, rho, left=rho[0], right=rho[-1])
        s = np.log(rho) - np.log(s)
        expected = float(np.trapezoid(rho * np.einsum("i,ij->j", weights, s), x))
        rate = fl.kl_shift_rate(x, rho, params, n_shifts=n_shifts)
        assert rate == expected / params.dt

    def test_kl_rate_does_not_depend_on_rng(self):
        params = fl.TranslationParams(dt=0.01)
        x, rho = self._gaussian()
        rate = fl.kl_shift_rate(x, rho, params)
        for key in ("fl-kl-a", "fl-kl-b"):
            assert fl.kl_shift_rate(x, rho, params, stream(31, key)) == rate

    @pytest.mark.parametrize(
        "n_shifts", [0, -3, 2.5, math.inf, pytest.param(10**400, id="10**400")]
    )
    def test_kl_rate_rejects_bad_node_count(self, n_shifts):
        x, rho = self._gaussian()
        with pytest.raises(ValueError, match="n_shifts"):
            fl.kl_shift_rate(x, rho, fl.TranslationParams(), n_shifts=n_shifts)


def test_uncertainty_product_matches_momentum_form():
    params = fl.TranslationParams(mass=3.0, dt=0.2)
    w = fl.sample_displacement(params, stream(31, "fl-ur-eq"), 50000)
    expected = float(np.mean(w * (params.mass * w / params.dt)))
    assert fl.uncertainty_product(w, params) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "config, kwargs",
    [
        (fl.TranslationParams, {"mass": math.inf}),
        (fl.TranslationParams, {"dt": math.inf}),
        (fl.RotationParams, {"mass": math.inf}),
        (fl.RotationParams, {"omega": math.inf}),
        (DwellModel, {"tau_plus": math.inf}),
        (DwellModel, {"tau_minus": math.inf}),
        (pauli.SpatialGrid, {"extent": math.inf, "dimension": 1, "nodes": 16}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else next(iter(v)),
)
def test_library_configs_reject_infinity(config, kwargs):
    with pytest.raises(ValueError, match="finite"):
        config(**kwargs)


def _bad_grids():
    # the 401-node Gaussian grid, broken one way per case
    x = np.linspace(-10.0, 10.0, 401)
    rho = np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)
    swapped = x.copy()
    swapped[[200, 201]] = swapped[[201, 200]]
    with_nan, with_inf, x_nan = rho.copy(), rho.copy(), x.copy()
    with_nan[100], with_inf[100], x_nan[100] = math.nan, math.inf, math.nan
    return {
        "reversed": (x[::-1], rho[::-1], "x must be finite and strictly increasing"),
        "swapped": (swapped, rho, "x must be finite and strictly increasing"),
        "x-nan": (x_nan, rho, "x must be finite and strictly increasing"),
        "x-inf": (np.append(x, math.inf), np.append(rho, 1.0), "x must be finite"),
        "rho-nan": (x, with_nan, "rho must be finite and strictly positive"),
        "rho-inf": (x, with_inf, "rho must be finite and strictly positive"),
        "rho-zero": (x, np.where(x > 9.0, 0.0, rho), "rho must be finite and strictly"),
        "lengths": (x, rho[:-1], "x, rho must be 1-D, one length >= 2"),
        "2-d": (x.reshape(1, -1), rho.reshape(1, -1), "x, rho must be 1-D"),
        "one-node": (x[:1], rho[:1], "x, rho must be 1-D, one length >= 2"),
    }


@pytest.mark.parametrize("case", list(_bad_grids()))
@pytest.mark.parametrize(
    "functional",
    [fl.kl_shift_rate, fl.fisher_functional],
    ids=["kl_shift_rate", "fisher_functional"],
)
def test_grid_functionals_reject_a_bad_grid(functional, case):
    # a reversed grid gave -4950 and -0.25, two swapped nodes a plausible
    # 0.2517, and a NaN or inf gave nan
    x, rho, message = _bad_grids()[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        functional(x, rho, fl.TranslationParams(dt=0.01))
