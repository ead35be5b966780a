import math
import re

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from spinmodel import fluctuations as fl
from spinmodel import pauli
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

    @pytest.mark.parametrize("mass,omega", [(1.0, 1.0), (3.0, 7.0), (0.5, 2.0)])
    def test_angular_momentum_half_hbar(self, mass, omega):
        params = fl.RotationParams(mass=mass, omega=omega)
        rng = stream(31, "fl-ls", mass, omega)
        assert fl.expected_angular_momentum(params, 10**6, rng) == pytest.approx(
            0.5, abs=0.005
        )

    def test_same_bits_as_the_absolute_radius(self):
        # only u**2 enters, so dropping |.| from u = |N(0, 1/2 m omega)|
        # leaves every bit of the estimate as it was
        params = fl.RotationParams(mass=3.0, omega=7.0)
        u = np.abs(_radii(stream(31, "fl-ls-bits"), params, 10**5))
        expected = _block_mean(params.mass * params.omega * u**2)
        got = fl.expected_angular_momentum(params, 10**5, stream(31, "fl-ls-bits"))
        assert got == expected

    @pytest.mark.parametrize(
        "n", [10**4, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 10**6 + 3, 2**20 + 17]
    )
    def test_same_bits_as_one_mean(self, n):
        # the blocks' sums are added in block order, so the mean is that of
        # the whole array summed block by block
        params = fl.RotationParams(mass=3.0, omega=7.0)
        ref = stream(31, "fl-ls-blocks", n)
        u = _radii(ref, params, n)
        expected = _block_mean(params.mass * params.omega * u**2)
        rng = stream(31, "fl-ls-blocks", n)
        assert fl.expected_angular_momentum(params, n, rng) == expected
        assert rng.random() == ref.random()


def _radii(rng, params, n):
    """n draws of N(0, 1/2 m omega), block b drawn from child b of rng by one
    call: the block rule of the samplers."""
    children = rng.spawn(-(-n // BLOCK))
    return np.concatenate([
        child.normal(0.0, params.radius_scale, stop - start)
        for child, (start, stop) in zip(children, _spans(n))
    ])


def _block_mean(values):
    """The mean of values by the blocked estimates' sum rule: np.sum of each
    block of BLOCK values, the block sums added in block order."""
    total = 0.0
    for start in range(0, values.size, BLOCK):
        total += np.sum(values[start:start + BLOCK])
    return float(total / values.size)


class TestStreamedUncertaintyProduct:
    @pytest.mark.parametrize(
        # 3n = 2 BLOCK - 2 and 2 BLOCK + 1 end either side of a block's end
        "n",
        [10**4, 2 * BLOCK // 3, 2 * BLOCK // 3 + 1, BLOCK, 3 * BLOCK + 5, 10**6 + 3],
    )
    @pytest.mark.parametrize("mass, dt", [(1.0, 1.0), (3.0, 0.2)])
    def test_same_bits_as_the_array_form(self, n, mass, dt):
        # the same normals, squared and summed over the same blocks of the
        # flat (n, 3) sequence, in the same order
        params = fl.TranslationParams(mass=mass, dt=dt)
        rng = stream(31, "fl-ur-stream", n)
        ref = stream(31, "fl-ur-stream", n)
        w = fl.sample_displacement(params, ref, n)
        got = fl.expected_uncertainty_product(params, n, rng)
        assert got == fl.uncertainty_product(w, params)
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

    def test_array_form_sums_squares_block_by_block(self):
        params = fl.TranslationParams(mass=3.0, dt=0.2)
        w = fl.sample_displacement(params, stream(31, "fl-ur-rule"), 3 * BLOCK + 5)
        flat = w.reshape(-1)
        total = 0.0
        for start in range(0, flat.size, BLOCK):
            block = flat[start:start + BLOCK]
            total += np.einsum("i,i->", block, block)
        expected = params.mass / params.dt * float(total) / flat.size
        assert fl.uncertainty_product(w, params) == expected

    @pytest.mark.parametrize("mass, dt", [(1.0, 1.0), (3.0, 0.2), (0.5, 4.0)])
    def test_within_five_sigma_of_one_half(self, mass, dt):
        # (m / dt) w^2 is chi-square(1) / 2: variance 1/2 per component, so
        # the mean of 3n of them has sd (1/2) sqrt(2 / 3n)
        n = 10**6
        params = fl.TranslationParams(mass=mass, dt=dt)
        got = fl.expected_uncertainty_product(params, n, stream(31, "fl-ur-law", mass))
        assert abs(got - 0.5) <= 5 * 0.5 * math.sqrt(2.0 / (3 * n))

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="1e4"):
            fl.expected_uncertainty_product(
                fl.TranslationParams(), 9999, stream(31, "fl-ur-few")
            )


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
