import math

import numpy as np
import pytest
from scipy import integrate

from spinmodel import fluctuations as fl
from spinmodel.streams import stream


class TestTranslation:
    def test_component_variance(self):
        params = fl.TranslationParams(mass=2.0, dt=0.5)
        assert params.component_variance == pytest.approx(0.125)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fl.TranslationParams(mass=-1.0)

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
    def test_radius_density_normalizes(self):
        params = fl.RotationParams(mass=2.0, omega=3.0)
        total, _ = integrate.quad(lambda u: fl.radius_density(u, params), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            fl.radius_density(-0.1, fl.RotationParams())

    def test_mean_square_radius_closed_form(self):
        # <u^2> = hbar / 2 m omega for the half-Gaussian density
        params = fl.RotationParams(mass=2.0, omega=5.0)
        value, _ = integrate.quad(
            lambda u: u**2 * fl.radius_density(u, params), 0, np.inf
        )
        assert value == pytest.approx(1.0 / (2 * 2.0 * 5.0), abs=1e-9)

    @pytest.mark.parametrize("mass,omega", [(1.0, 1.0), (3.0, 7.0), (0.5, 2.0)])
    def test_angular_momentum_half_hbar(self, mass, omega):
        params = fl.RotationParams(mass=mass, omega=omega)
        rng = stream(31, "fl-ls", mass, omega)
        assert fl.expected_angular_momentum(params, 10**6, rng) == pytest.approx(
            0.5, abs=0.005
        )

    def test_variational_solution_is_half_gaussian(self):
        params = fl.RotationParams(mass=1.5, omega=0.7)
        u, p = fl.variational_radius_solve(params)
        target = fl.radius_density(u, params)
        assert float(np.max(np.abs(p - target))) < 1e-4

    def test_variational_solution_minimizes_action(self):
        params = fl.RotationParams()
        u, p = fl.variational_radius_solve(params)
        a0 = fl.rotational_action(u, p, params)
        for eps in (0.1, -0.1):
            pert = p * (1.0 + eps * np.cos(u))
            pert = np.clip(pert, 0.0, None)
            pert /= np.trapezoid(pert, u)
            assert fl.rotational_action(u, pert, params) > a0

    def test_mean_square_radius_of_solution(self):
        params = fl.RotationParams(mass=2.0, omega=2.0)
        u, p = fl.variational_radius_solve(params)
        assert fl.mean_square_radius(u, p) == pytest.approx(
            1.0 / (2 * 2.0 * 2.0), abs=1e-4
        )


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

    @pytest.mark.parametrize("dt", [0.1, 0.01])
    def test_kl_rate_approaches_fisher(self, dt):
        params = fl.TranslationParams(dt=dt)
        x, rho = self._gaussian()
        rng = stream(31, "fl-kl", dt)
        rate = fl.kl_shift_rate(x, rho, params, rng)
        fisher = fl.fisher_functional(x, rho, params)
        assert rate / fisher == pytest.approx(1.0, abs=0.05)

    @staticmethod
    def _per_shift_loop(x, rho, params, rng, n_shifts):
        """Reference: one interpolation and one trapezoid per shift."""
        shifts = rng.normal(0.0, math.sqrt(params.component_variance), n_shifts)
        log_rho = np.log(rho)
        total = 0.0
        for w in shifts:
            shifted = np.interp(x + w, x, rho, left=rho[0], right=rho[-1])
            total += float(np.trapezoid(rho * (log_rho - np.log(shifted)), x))
        return total / n_shifts / params.dt

    @pytest.mark.parametrize("dt", [0.1, 0.01, 0.001])
    def test_kl_rate_matches_per_shift_loop(self, dt):
        # 1000 shifts: the last block of the vectorized sum is a partial one
        params = fl.TranslationParams(dt=dt)
        x, rho = self._gaussian()
        rate = fl.kl_shift_rate(x, rho, params, stream(31, "fl-kl-eq", dt), 1000)
        expected = self._per_shift_loop(x, rho, params, stream(31, "fl-kl-eq", dt), 1000)
        assert rate == pytest.approx(expected, rel=1e-12, abs=0)

    def test_kl_rate_matches_per_shift_loop_on_nonuniform_grid(self):
        params = fl.TranslationParams(mass=2.0, dt=0.05)
        x = 3.0 * np.sinh(np.linspace(-2.5, 2.5, 1501))
        rho = np.exp(-((x - 1.0) ** 2) / 8.0) + 0.5 * np.exp(-((x + 2.0) ** 2))
        rng_key = (31, "fl-kl-nonuniform")
        rate = fl.kl_shift_rate(x, rho, params, stream(*rng_key), 333)
        expected = self._per_shift_loop(x, rho, params, stream(*rng_key), 333)
        assert rate == pytest.approx(expected, rel=1e-12, abs=0)


def test_uncertainty_product_matches_momentum_form():
    params = fl.TranslationParams(mass=3.0, dt=0.2)
    w = fl.sample_displacement(params, stream(31, "fl-ur-eq"), 50000)
    expected = float(np.mean(w * (params.mass * w / params.dt)))
    assert fl.uncertainty_product(w, params) == pytest.approx(expected, rel=1e-12)
