import math
import sys
import threading

import numpy as np
import pytest

from spinmodel import pauli, streams
from spinmodel import stern_gerlach as sg
from spinmodel.pauli import ConvergenceError
from spinmodel.streams import stream


def packet_state(grid=None, momentum=0.0, width=1.0):
    grid = grid or pauli.SpatialGrid(1, 256, 20.0)
    psi = pauli.gaussian_packet(grid, width=width, momentum=momentum)
    return pauli.SpinorField.normalized(grid, psi, psi)


def _wavenumbers(grid):
    """Each axis's wavenumbers, in fftfreq's order, on meshgrids."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.nodes, d=grid.spacing)
    return np.meshgrid(*[k] * grid.dimension, indexing="ij")


def _kinetic_energy(grid):
    """Spectral kinetic energy k^2 / 2 of each plane wave, on the grid."""
    return sum(k**2 for k in _wavenumbers(grid)) / 2.0


def _meshgrid_kinetic_phase(grid, dt):
    """The kinetic phase as the product of each axis's factor, on meshgrids."""
    first, *rest = (np.exp(-1j * dt * (k**2 / 2.0)) for k in _wavenumbers(grid))
    for factor in rest:
        first = first * factor
    return first


def _reference_evolve(field, config, dt, steps):
    """Per-component fused Strang loop with one fftn/ifftn pair per component:
    half, then kinetic and half * half per step, with half after the last."""
    halves = np.exp(-0.5j * dt * config.potential_energy(field.grid))
    kinetic = _meshgrid_kinetic_phase(field.grid, dt)
    psis = [psi.copy() for psi in field.psi]
    if steps:
        psis = [psi * half for psi, half in zip(psis, halves)]
    for step in range(steps):
        closing = halves * halves if step < steps - 1 else halves
        psis = [
            np.fft.ifftn(np.fft.fftn(psi) * kinetic) * factor
            for psi, factor in zip(psis, closing)
        ]
    return psis


def _classic_evolve(field, config, dt, steps):
    """Per-component Strang loop, half * kinetic * half in every step, with
    the kinetic phase of the summed energy k^2 / 2."""
    halves = np.exp(-0.5j * dt * config.potential_energy(field.grid))
    kinetic = np.exp(-1j * dt * _kinetic_energy(field.grid))
    psis = [psi.copy() for psi in field.psi]
    for _ in range(steps):
        psis = [
            np.fft.ifftn(np.fft.fftn(psi * half) * kinetic) * half
            for psi, half in zip(psis, halves)
        ]
    return np.stack(psis)


def two_component_state(grid):
    """Distinct, moving packets in each component, in 1-D or 2-D."""
    coords = grid.coordinates()
    phase = 0.5 * coords[0] - 0.3 * coords[-1]
    return pauli.SpinorField.normalized(
        grid,
        np.exp(-sum(c**2 for c in coords) / 4.0 + 1j * phase),
        np.exp(-sum((c - 1.0) ** 2 for c in coords) / 3.0 - 1j * phase),
    )


def non_uniform_fields(grid):
    x, *rest = coords = grid.coordinates()
    return pauli.FieldConfig(
        b_z=0.4 + 0.1 * x - 0.05 * sum(rest, 0.0),
        scalar_potential=-0.05 * sum(c**2 for c in coords),
    )


def _reference_gradient(psi, grid):
    psi_hat = np.fft.fftn(psi)
    return [np.fft.ifftn(1j * k * psi_hat) for k in _wavenumbers(grid)]


def _reference_continuity_residual(fields, dt, config, component):
    """Per-axis continuity residual, one gradient and divergence per axis."""
    grid = fields[0].grid
    psis = [f.psi[0] if component == "plus" else f.psi[1] for f in fields]
    rho = [np.abs(p) ** 2 for p in psis]
    drho_dt = (rho[2] - rho[0]) / (2.0 * dt)
    div = np.zeros(grid.shape)
    for axis, g in enumerate(_reference_gradient(psis[1], grid)):
        flux = np.imag(np.conj(psis[1]) * g)
        k = _wavenumbers(grid)[axis]
        div += np.real(np.fft.ifftn(1j * k * np.fft.fftn(flux)))
    residual = (drho_dt + div)[rho[1] > pauli.DENSITY_FLOOR]
    return float(np.sqrt(np.mean(residual**2)))


def _reference_hj_residual(fields, dt, config, component):
    """Per-axis Hamilton-Jacobi residual with grad S = Im(psi* grad psi)/rho."""
    grid = fields[0].grid
    psis = [f.psi[0] if component == "plus" else f.psi[1] for f in fields]
    rho_mid = np.abs(psis[1]) ** 2
    ds_dt = np.angle(psis[2] * np.conj(psis[0])) / (2.0 * dt)
    mask = rho_mid > pauli.HJ_FLOOR
    kinetic = np.zeros(grid.shape)
    for g in _reference_gradient(psis[1], grid):
        grad_s = np.zeros(grid.shape)
        grad_s[mask] = np.imag(np.conj(psis[1]) * g)[mask] / rho_mid[mask]
        kinetic += grad_s**2
    kinetic /= 2.0
    v_plus, v_minus = config.potential_energy(grid)
    v = v_plus if component == "plus" else v_minus
    sqrt_rho = np.sqrt(rho_mid)
    lap = np.zeros(grid.shape)
    for k in _wavenumbers(grid):
        lap += np.real(np.fft.ifftn(-(k**2) * np.fft.fftn(sqrt_rho)))
    quantum = np.zeros(grid.shape)
    quantum[mask] = -0.5 * lap[mask] / sqrt_rho[mask]
    residual = (ds_dt + kinetic + v + quantum)[mask]
    return float(np.sqrt(np.mean(residual**2)))


class TestGrid:
    def test_spacing_and_volume(self):
        grid = pauli.SpatialGrid(1, 256, 20.0)
        assert grid.spacing == pytest.approx(20.0 / 256)
        assert grid.cell_volume == grid.spacing

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            pauli.SpatialGrid(1, 100, 20.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            pauli.SpatialGrid(3, 64, 20.0)

    @pytest.mark.parametrize("extent", [0.0, -1.0, math.nan])
    def test_rejects_bad_extent(self, extent):
        with pytest.raises(ValueError, match="extent"):
            pauli.SpatialGrid(1, 16, extent)

    @pytest.mark.parametrize(
        "dimension, nodes, extent",
        [
            (1, 256, 1e-320),  # the spacing is subnormal
            (2, 16, 1e-160),  # the spacing is normal, the cell volume not
            (2, 16, 1e160),  # the cell volume overflows
        ],
    )
    def test_rejects_an_extent_of_no_normal_spacing_or_volume(
        self, dimension, nodes, extent
    ):
        with pytest.raises(ValueError, match="extent"):
            pauli.SpatialGrid(dimension, nodes, extent)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_normal_volume_at_the_largest_admitted_extent(self, dimension):
        extent = 16 * math.sqrt(sys.float_info.max) if dimension == 2 else 1e308
        grid = pauli.SpatialGrid(dimension, 16, extent)
        assert sys.float_info.min <= grid.cell_volume <= sys.float_info.max

    def test_two_dimensional_shapes(self):
        grid = pauli.SpatialGrid(2, 32, 10.0)
        x, y = grid.coordinates()
        assert x.shape == (32, 32) and y.shape == (32, 32)


class TestSpinorField:
    grid = pauli.SpatialGrid(1, 64, 10.0)

    @pytest.mark.parametrize("shape", [(64,), (3, 64), (2, 32)])
    def test_rejects_shapes_other_than_two_components(self, shape):
        with pytest.raises(ValueError, match="spinor shape"):
            pauli.SpinorField(self.grid, np.zeros(shape, dtype=complex))

    def test_normalized_stacks_the_components(self):
        psi = pauli.gaussian_packet(self.grid)
        state = pauli.SpinorField.normalized(self.grid, psi, 0.5 * psi)
        assert state.psi.shape == (2, 64)
        assert np.array_equal(state.psi[1], 0.5 * state.psi[0])
        assert pauli.norm(state) == pytest.approx(1.0, abs=1e-12)


class TestFieldConfig:
    def test_diagonal_potential_signs(self):
        grid = pauli.SpatialGrid(1, 64, 10.0)
        config = pauli.FieldConfig(b_z=2.0)
        v_plus, v_minus = config.potential_energy(grid)
        assert np.allclose(v_plus, +1.0)  # B_z / 2 = 1
        assert np.allclose(v_minus, -1.0)

    def test_rejects_non_finite_field(self):
        grid = pauli.SpatialGrid(1, 64, 10.0)
        config = pauli.FieldConfig(b_z=float("nan"))
        with pytest.raises(ValueError):
            config.potential_energy(grid)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_potential_is_stacked_per_component(self, dimension):
        grid = pauli.SpatialGrid(dimension, 32, 10.0)
        potential = non_uniform_fields(grid).potential_energy(grid)
        assert potential.shape == (2, *grid.shape)


class TestUnitarity:
    def test_norm_drift_bound(self):
        state = packet_state()
        config = pauli.FieldConfig(b_z=1.0)
        evolved = pauli.evolve(state, config, 0.001, 10000)
        assert abs(pauli.norm(evolved) - 1.0) <= 1e-8

    def test_spin_populations_constant(self):
        grid = pauli.SpatialGrid(1, 256, 20.0)
        psi = pauli.gaussian_packet(grid)
        state = pauli.SpinorField.normalized(grid, psi, 0.6 * psi)
        config = pauli.FieldConfig(b_z=1.5)
        before = pauli.spin_populations(state)
        after = pauli.spin_populations(pauli.evolve(state, config, 0.001, 2000))
        assert after[0] == pytest.approx(before[0], abs=1e-10)
        assert after[1] == pytest.approx(before[1], abs=1e-10)

    def test_energy_conserved_with_harmonic_trap(self):
        state = packet_state(width=0.8)
        (x,) = state.grid.coordinates()
        config = pauli.FieldConfig(scalar_potential=-0.5 * x**2)
        e0 = pauli.total_energy(state, config)
        evolved = pauli.evolve(state, config, 0.001, 3000)
        assert pauli.total_energy(evolved, config) == pytest.approx(e0, abs=1e-6)

    @pytest.mark.parametrize("width", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("momentum", [0.0, 1.5])
    def test_packet_bits_at_power_of_two_widths(self, width, momentum):
        # -(x / 2w)^2 is -x^2 / 4w^2 to the bit when w is a power of two
        grid = pauli.SpatialGrid(1, 256, 20.0)
        x = grid.axis()
        expected = np.exp(-(x**2) / (4.0 * width**2) + 1j * momentum * x)
        psi = pauli.gaussian_packet(grid, width=width, momentum=momentum)
        assert np.array_equal(psi, expected)

    def test_rejects_unnormalized_input(self):
        grid = pauli.SpatialGrid(1, 64, 10.0)
        psi = pauli.gaussian_packet(grid)
        bad = pauli.SpinorField(grid, np.stack((psi, psi)))
        with pytest.raises(ValueError):
            pauli.evolve(bad, pauli.FieldConfig(), 0.001, 1)

    @pytest.mark.parametrize("dt", [0.0, -0.001, math.nan, math.inf])
    def test_rejects_bad_time_step(self, dt):
        for steps in (0, 1):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                pauli.evolve(packet_state(), pauli.FieldConfig(), dt, steps)

    @pytest.mark.parametrize("steps", [-1, 1.5, math.nan, math.inf])
    def test_rejects_bad_step_count(self, steps):
        with pytest.raises(ValueError, match="steps must be a whole number"):
            pauli.evolve(packet_state(), pauli.FieldConfig(), 0.001, steps)

    def test_whole_float_step_count(self):
        state = packet_state()
        config = pauli.FieldConfig(b_z=1.0)
        evolved = pauli.evolve(state, config, 0.001, 3.0)
        assert np.array_equal(evolved.psi, pauli.evolve(state, config, 0.001, 3).psi)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_rejects_non_finite_input(self, steps):
        grid = pauli.SpatialGrid(1, 64, 10.0)
        psi = pauli.gaussian_packet(grid)
        psi[3] = np.nan
        bad = pauli.SpinorField(grid, np.stack((psi, psi)))
        with pytest.raises(ValueError, match="normalized"):
            pauli.evolve(bad, pauli.FieldConfig(), 0.001, steps)

    def test_non_finite_amplitudes_are_non_convergence(self):
        with pytest.raises(ConvergenceError):
            pauli.evolve(packet_state(), pauli.FieldConfig(b_z=1.0), 1e307, 2)

    @pytest.mark.parametrize("dimension, nodes", [(1, 256), (2, 128)])
    @pytest.mark.parametrize("b_z, dt", [(1.0, 1e307), (1e308, 10.0)])
    def test_non_finite_phases_raise_before_stepping(
        self, monkeypatch, dimension, nodes, b_z, dt
    ):
        def no_steps(*args):
            raise AssertionError("stepped with non-finite phase factors")

        monkeypatch.setattr(pauli, "_strang_steps", no_steps)
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        state = two_component_state(grid)
        before = state.psi.copy()
        threads = threading.active_count()
        with pytest.raises(ConvergenceError, match="phase factors of dt="):
            pauli.evolve(state, pauli.FieldConfig(b_z=b_z), dt, 10**6)
        assert threading.active_count() == threads
        assert np.array_equal(state.psi, before)

    def test_non_finite_amplitudes_after_the_last_step(self, monkeypatch):
        def nan_steps(psi, *args):
            psi[...] = np.nan

        monkeypatch.setattr(pauli, "_strang_steps", nan_steps)
        with pytest.raises(ConvergenceError, match="non-finite amplitudes"):
            pauli.evolve(packet_state(), pauli.FieldConfig(), 0.001, 1)


class TestStackedSteps:
    # the stacked spinor, stepped as one array, keeps the bits of each
    # component stepped on its own, on cache-sized and larger grids
    @pytest.mark.parametrize(
        "dimension, nodes", [(1, 256), (2, 64), (2, 128), (1, 2**14)]
    )
    def test_bit_identical_to_per_component_loop(self, dimension, nodes):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        state = two_component_state(grid)
        config = non_uniform_fields(grid)
        before = state.psi.copy()
        evolved = pauli.evolve(state, config, 0.01, 25)
        psi_p, psi_m = _reference_evolve(state, config, 0.01, 25)
        assert np.array_equal(evolved.psi[0], psi_p)
        assert np.array_equal(evolved.psi[1], psi_m)
        assert np.array_equal(state.psi, before)

    # scalar fields' phases stay broadcast on the fields' own shape, and
    # their 25 steps are one step of 25 dt, within round-off of the 25 steps
    @pytest.mark.parametrize("dimension, nodes", [(2, 128), (1, 2**14), (1, 256)])
    def test_scalar_fields_keep_the_bits_with_broadcast_phases(self, dimension, nodes):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        state = two_component_state(grid)
        config = pauli.FieldConfig(b_z=0.8, scalar_potential=0.1)
        evolved = pauli.evolve(state, config, 0.01, 25).psi
        one_step = _reference_evolve(state, config, 0.01 * 25, 1)
        assert np.array_equal(evolved, one_step)
        stepped = np.stack(_reference_evolve(state, config, 0.01, 25))
        assert np.max(np.abs(evolved - stepped)) <= 1e-12 * np.max(np.abs(stepped))

    def test_zero_steps_return_the_input_bits(self):
        state = two_component_state(pauli.SpatialGrid(1, 256, 20.0))
        evolved = pauli.evolve(state, pauli.FieldConfig(b_z=1.0), 0.01, 0)
        assert np.array_equal(evolved.psi, state.psi)
        assert evolved.psi is not state.psi

    # the fused closing/opening halves round differently from two multiplies
    @pytest.mark.parametrize(
        "dimension, nodes, steps", [(1, 256, 2048), (2, 64, 128)]
    )
    def test_fused_halves_match_the_classic_loop(self, dimension, nodes, steps):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        state = two_component_state(grid)
        config = non_uniform_fields(grid)
        evolved = pauli.evolve(state, config, 0.01, steps).psi
        classic = _classic_evolve(state, config, 0.01, steps)
        assert np.max(np.abs(evolved - classic)) <= 1e-13 * np.max(np.abs(classic))


# field values of each shape a FieldConfig takes: a scalar, a grid array, and
# an axis array that broadcasts along the grid's last axis
FIELD_VALUES = {
    "scalar": lambda grid: 0.3,
    "grid": lambda grid: 0.4 + 0.1 * grid.coordinates()[0]
    - 0.05 * grid.coordinates()[-1] ** 2,
    "axis": lambda grid: 0.2 * np.cos(grid.axis()),
}


class TestPhaseFactors:
    """evolve's phase factors, taken on the fields' own shape and from one
    axis's kinetic factors, against the grid-shaped formulas.  The kinetic
    factor carries the inverse transforms' 1/N^d, a power of two, so the
    folded factor is exactly the grid-shaped phase times 1/N^d."""

    @staticmethod
    def _phases(monkeypatch, grid, config, dt):
        seen = []
        monkeypatch.setattr(
            pauli, "_strang_steps",
            lambda psi, half, kinetic, axes, steps: seen.append((half, kinetic)),
        )
        pauli.evolve(two_component_state(grid), config, dt, 1)
        (phases,) = seen
        return phases

    @pytest.mark.parametrize("dimension, nodes", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("phi", sorted(FIELD_VALUES))
    @pytest.mark.parametrize("b_z", sorted(FIELD_VALUES))
    def test_potential_phase_keeps_its_bits(
        self, monkeypatch, dimension, nodes, phi, b_z
    ):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        config = pauli.FieldConfig(
            scalar_potential=FIELD_VALUES[phi](grid), b_z=FIELD_VALUES[b_z](grid)
        )
        half, _ = self._phases(monkeypatch, grid, config, 0.01)
        expected = np.exp(-0.5j * 0.01 * config.potential_energy(grid))
        assert half.shape == config._potential(grid).shape
        assert np.array_equal(np.broadcast_to(half, expected.shape), expected)

    @pytest.mark.parametrize("dt", [1e-3, 0.01, 0.5])
    def test_one_dimensional_kinetic_phase_keeps_its_bits(self, monkeypatch, dt):
        grid = pauli.SpatialGrid(1, 256, 20.0)
        _, kinetic = self._phases(monkeypatch, grid, pauli.FieldConfig(b_z=1.0), dt)
        expected = np.exp(-1j * dt * _kinetic_energy(grid)) * (1.0 / grid.nodes)
        assert np.array_equal(kinetic, expected)

    def test_two_dimensional_kinetic_phase_is_the_axis_product(self, monkeypatch):
        grid = pauli.SpatialGrid(2, 64, 20.0)
        _, kinetic = self._phases(monkeypatch, grid, pauli.FieldConfig(), 0.01)
        scale = 1.0 / grid.nodes**2
        assert np.array_equal(kinetic, _meshgrid_kinetic_phase(grid, 0.01) * scale)
        summed = np.exp(-1j * 0.01 * _kinetic_energy(grid)) * scale
        assert np.max(np.abs(kinetic - summed)) <= 1e-15 * scale


class TestUniformFields:
    """A potential with one value per component commutes with the kinetic
    term, so evolve takes a scalar field's n steps as one step of n dt, and
    steps grid- and axis-shaped fields n times."""

    @pytest.mark.parametrize("dimension, nodes", [(1, 256), (2, 128)])
    @pytest.mark.parametrize("shape", sorted(FIELD_VALUES))
    def test_only_scalar_fields_take_one_step(
        self, monkeypatch, dimension, nodes, shape
    ):
        strang_steps = pauli._strang_steps
        seen = []

        def recorded(psi, half, kinetic, axes, steps):
            seen.append(steps)
            strang_steps(psi, half, kinetic, axes, steps)

        monkeypatch.setattr(pauli, "_strang_steps", recorded)
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        config = pauli.FieldConfig(b_z=FIELD_VALUES[shape](grid))
        pauli.evolve(two_component_state(grid), config, 0.01, 7)
        assert seen == [1 if shape == "scalar" else 7]

    @pytest.mark.parametrize("dimension, nodes, steps", [(1, 256, 1000), (2, 64, 100)])
    def test_grid_shaped_constant_field_matches_the_one_step(
        self, dimension, nodes, steps
    ):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        state = two_component_state(grid)
        scalar = pauli.FieldConfig(b_z=0.8)
        constant = pauli.FieldConfig(b_z=np.full(grid.shape, 0.8))
        one_step = pauli.evolve(state, scalar, 0.01, steps).psi
        stepped = pauli.evolve(state, constant, 0.01, steps).psi
        assert np.max(np.abs(stepped - one_step)) <= 1e-12 * np.max(np.abs(one_step))


class TestCallerThread:
    """evolve steps the spinor on the caller's thread and starts none."""

    def test_non_finite_amplitudes_are_non_convergence(self):
        grid = pauli.SpatialGrid(2, 128, 20.0)
        state = two_component_state(grid)
        before = state.psi.copy()
        threads = threading.active_count()
        with pytest.raises(ConvergenceError):
            pauli.evolve(state, pauli.FieldConfig(b_z=1.0), 1e307, 2)
        assert threading.active_count() == threads
        assert np.array_equal(state.psi, before)

    @pytest.mark.parametrize("dimension, nodes", [(2, 128), (1, 2**14)])
    @pytest.mark.parametrize("fields", ["scalar", "grid"])
    def test_starts_no_thread(self, monkeypatch, dimension, nodes, fields):
        def no_thread(*args, **kwargs):
            raise AssertionError("evolve started a thread")

        monkeypatch.setattr(streams, "_two_threads", no_thread)
        monkeypatch.setattr(threading, "Thread", no_thread)
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        config = (
            pauli.FieldConfig(b_z=0.8, scalar_potential=0.1)
            if fields == "scalar"
            else non_uniform_fields(grid)
        )
        pauli.evolve(two_component_state(grid), config, 0.01, 3)

    def test_concurrent_callers_keep_the_bits(self):
        # more stepping threads than cores, switching as often as possible
        grid = pauli.SpatialGrid(2, 128, 20.0)
        state = two_component_state(grid)
        config = non_uniform_fields(grid)
        expected = pauli.evolve(state, config, 0.01, 3).psi
        results = [None] * 4

        def call(i):
            results[i] = pauli.evolve(state, config, 0.01, 3).psi

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(psi, expected) for psi in results)


class TestReductions:
    """total_energy and relative_phase against the per-component np.vdot
    loop they replaced (tests may call BLAS; the package does not)."""

    @pytest.mark.parametrize("dimension, nodes", [(1, 256), (2, 64)])
    def test_match_vdot_reference(self, dimension, nodes):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        state = two_component_state(grid)
        config = non_uniform_fields(grid)
        kin = _kinetic_energy(grid)
        energy = 0.0
        for psi, v in zip(state.psi, config.potential_energy(grid)):
            psi_hat = np.fft.fftn(psi)
            energy += np.real(np.vdot(psi_hat, kin * psi_hat)) / psi.size
            energy += np.real(np.vdot(psi, v * psi))
        energy *= grid.cell_volume
        assert pauli.total_energy(state, config) == pytest.approx(energy, rel=1e-13)
        overlap = np.vdot(state.psi[0], state.psi[1])
        assert pauli.relative_phase(state) == pytest.approx(np.angle(overlap), abs=1e-14)


class TestTwoDimensional:
    grid = pauli.SpatialGrid(2, 64, 20.0)

    def test_norm_drift_with_non_uniform_fields(self):
        evolved = pauli.evolve(
            two_component_state(self.grid), non_uniform_fields(self.grid), 0.005, 400
        )
        assert abs(pauli.norm(evolved) - 1.0) <= 1e-10

    def test_energy_conserved_at_uniform_field(self):
        state = two_component_state(self.grid)
        config = pauli.FieldConfig(b_z=0.8)
        e0 = pauli.total_energy(state, config)
        evolved = pauli.evolve(state, config, 0.005, 400)
        assert abs(pauli.total_energy(evolved, config) - e0) <= 1e-9 * abs(e0)

    def test_larmor_relative_phase(self):
        x, y = self.grid.coordinates()
        psi = np.exp(-(x**2 + y**2) / 4.0 + 0.5j * x)
        state = pauli.SpinorField.normalized(self.grid, psi, psi)
        b_z, dt, steps = 0.8, 0.005, 400
        config = pauli.FieldConfig(
            b_z=b_z, scalar_potential=-0.05 * (x**2 + 2 * y**2)
        )
        delta = pauli.relative_phase(pauli.evolve(state, config, dt, steps))
        expected = b_z * dt * steps
        assert delta == pytest.approx(
            math.atan2(math.sin(expected), math.cos(expected)), abs=1e-9
        )


class TestLarmor:
    @pytest.mark.parametrize("b_z", [0.5, 1.0, 2.0])
    def test_relative_phase_rate(self, b_z):
        state = packet_state()
        config = pauli.FieldConfig(b_z=b_z)
        dt, steps = 0.0005, 2000
        phase0 = pauli.relative_phase(state)
        evolved = pauli.evolve(state, config, dt, steps)
        delta = pauli.relative_phase(evolved) - phase0
        delta = math.atan2(math.sin(delta), math.cos(delta))
        expected = b_z * dt * steps
        expected = math.atan2(math.sin(expected), math.cos(expected))
        assert delta == pytest.approx(expected, rel=0.01, abs=1e-9)

    # a uniform field's 10^6 steps are one step
    @pytest.mark.parametrize("b_z", [0.5, 1.0, 2.0])
    def test_relative_phase_at_the_steps_bound(self, b_z):
        dt, steps = 0.001, 10**6
        evolved = pauli.evolve(packet_state(), pauli.FieldConfig(b_z=b_z), dt, steps)
        error = pauli.relative_phase(evolved) - b_z * dt * steps
        assert abs(math.atan2(math.sin(error), math.cos(error))) <= 1e-12


class TestFreeMotion:
    def test_packet_drifts_at_group_velocity(self):
        state = packet_state(momentum=1.0)
        config = pauli.FieldConfig()
        t = 2.0
        evolved = pauli.evolve(state, config, 0.001, 2000)
        (x,) = evolved.grid.coordinates()
        rho = np.sum(np.abs(evolved.psi) ** 2, axis=0)
        center = float(np.sum(x * rho) / np.sum(rho))
        assert center == pytest.approx(t, abs=0.01)

    def test_packet_spreads_at_analytic_rate(self):
        state = packet_state(width=1.0)
        config = pauli.FieldConfig()
        t = 2.0
        evolved = pauli.evolve(state, config, 0.001, 2000)
        (x,) = evolved.grid.coordinates()
        rho = np.sum(np.abs(evolved.psi) ** 2, axis=0)
        var = float(np.sum(x**2 * rho) / np.sum(rho))
        # sigma^2(t) = w^2 + (t / 2 w)^2 for an initial width-w packet
        assert var == pytest.approx(1.0 + (t / 2.0) ** 2, abs=0.01)


def _component_mean_x(field, component):
    rho = np.abs(field.psi[component]) ** 2
    return float(np.sum(field.grid.axis() * rho) / np.sum(rho))


class TestAccuracy:
    """The Strang step against Ehrenfest's exact <x>(t): second order in a
    harmonic trap, exact for a linear field at any dt."""

    @pytest.mark.parametrize("dt", [0.1, 0.01])
    def test_harmonic_trap_is_second_order(self, dt):
        # V = x^2 / 2 moves <x> as x0 cos t for any state; at t = 3 the
        # error falls 100-fold when dt falls 10-fold
        grid = pauli.SpatialGrid(1, 256, 20.0)
        x = grid.axis()
        state = pauli.SpinorField.normalized(
            grid, np.exp(-((x - 2.0) ** 2) / 2.0), np.zeros_like(x)
        )
        config = pauli.FieldConfig(scalar_potential=-(x**2) / 2.0)
        errors = [
            _component_mean_x(pauli.evolve(state, config, step, round(3.0 / step)), 0)
            - 2.0 * math.cos(3.0)
            for step in (dt, dt / 10.0)
        ]
        assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.01)

    @pytest.mark.parametrize("eta", [0.25, 0.5])
    def test_linear_field_is_exact_at_a_coarse_step(self, eta):
        # B_z = 1 + eta x pushes Psi_+/- with force -/+ eta / 2, so
        # <x>_+/- = -/+ eta t^2 / 4; the nested commutators of p^2 / 2 and a
        # linear potential are c-numbers, so six steps of dt = 0.5 hit it
        grid = pauli.SpatialGrid(1, 2048, 60.0)
        psi = pauli.gaussian_packet(grid)
        state = pauli.SpinorField.normalized(grid, psi, 0.6 * psi)
        config = pauli.FieldConfig(b_z=1.0 + eta * grid.axis())
        evolved = pauli.evolve(state, config, 0.5, 6)
        shift = eta * 3.0**2 / 4.0
        assert _component_mean_x(evolved, 0) == pytest.approx(-shift, abs=1e-13)
        assert _component_mean_x(evolved, 1) == pytest.approx(shift, abs=1e-13)


class TestMadelung:
    def test_reconstruction(self):
        state = packet_state(momentum=0.5)
        rho, s = pauli.madelung(state)
        rebuilt = np.sqrt(rho) * np.exp(1j * s)
        assert np.allclose(rebuilt, state.psi, atol=1e-12)

    def test_continuity_residual_refines_at_scheme_order(self):
        config = pauli.FieldConfig()

        def residual(dt, t=2.0):
            state = packet_state(momentum=0.5)
            n = int(round(t / dt))
            snaps = [
                pauli.evolve(state, config, dt, n + k) for k in (-1, 0, 1)
            ]
            return pauli.continuity_residual(snaps, dt, config)

        coarse = residual(0.02)
        fine = residual(0.01)
        assert fine < coarse / 3.0

    def test_hamilton_jacobi_residual_small(self):
        config = pauli.FieldConfig()
        dt = 0.005
        state = packet_state(momentum=0.5)
        mid = pauli.evolve(state, config, dt, 200)
        before = pauli.evolve(state, config, dt, 199)
        after = pauli.evolve(state, config, dt, 201)
        res = pauli.hj_residual([before, mid, after], dt, config)
        scale = abs(pauli.total_energy(mid, config)) + 1.0
        assert res < 0.01 * scale

    @pytest.mark.parametrize("component", ["plus", "minus"])
    def test_residuals_small_per_component(self, component):
        # B_z gives each component its own potential +/- B_z / 2; the other
        # component's potential would leave an HJ residual of B_z = 1
        config = pauli.FieldConfig(b_z=1.0)
        dt = 0.005
        state = packet_state(momentum=0.5)
        snaps = [pauli.evolve(state, config, dt, n) for n in (199, 200, 201)]
        assert pauli.continuity_residual(snaps, dt, config, component) < 1e-6
        assert pauli.hj_residual(snaps, dt, config, component) < 1e-4

    # relative bounds only (abs=0): the residuals are ~3e-7 (continuity) and
    # ~3e-5 (HJ), where approx's default abs=1e-12 would allow ~3e-6 and
    # ~3e-8 relative.  Measured gaps: continuity <= 2.1e-9, since
    # Im(psi* lap psi) and the reference's div of the spectral current differ
    # by the current's aliasing; HJ <= 1.2e-9, as large from an fftn-based
    # current: round-off amplified by 1/sqrt(rho) near the mask's edge
    @pytest.mark.parametrize("dimension, nodes", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("component", ["plus", "minus"])
    def test_residuals_match_per_axis_reference(self, dimension, nodes, component):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        state = two_component_state(grid)
        config = pauli.FieldConfig(b_z=0.4 + 0.1 * grid.coordinates()[0])
        dt = 0.01
        snaps = [pauli.evolve(state, config, dt, n) for n in (19, 20, 21)]
        assert pauli.continuity_residual(
            snaps, dt, config, component
        ) == pytest.approx(
            _reference_continuity_residual(snaps, dt, config, component),
            rel=1e-8, abs=0,
        )
        assert pauli.hj_residual(snaps, dt, config, component) == pytest.approx(
            _reference_hj_residual(snaps, dt, config, component), rel=1e-8, abs=0
        )

    # eps (-1)^n, the Nyquist mode (the (N/2, N/2) corner in 2-D), on a moving
    # packet: div J taken as Im(psi* lap psi) with the solver's own -|k|^2 is
    # consistent with the step, so the residual falls as dt^2, by ~100 here
    # (measured 155 in 1-D, 102 in 2-D).  The divergence of the spectrally
    # differentiated current, Nyquist bin zeroed, stalls at ~0.2 (1-D) and
    # ~3e-3 (2-D) for both time steps.
    @pytest.mark.parametrize("dimension, nodes", [(1, 256), (2, 64)])
    def test_continuity_residual_with_nyquist_content_falls_as_dt_squared(
        self, dimension, nodes
    ):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        coords = grid.coordinates()
        nyquist = (-1.0) ** sum(np.indices(grid.shape))
        psi = np.exp(-sum(c**2 for c in coords) / 4.0 + 0.5j * coords[0])
        psi += 1e-3 * nyquist
        state = pauli.SpinorField.normalized(grid, psi, 0.5 * psi)
        config = pauli.FieldConfig(b_z=1.0)

        def residual(dt, component):
            snaps = [pauli.evolve(state, config, dt, n) for n in (0, 1, 2)]
            return pauli.continuity_residual(snaps, dt, config, component)

        for component in ("plus", "minus"):
            assert residual(1e-4, component) < residual(1e-3, component) / 50.0

    # the HJ residual is taken only where rho > HJ_FLOOR, so the floor decides
    # how much of the packet the residual tests.  On the benchmark's packets
    # (widths 0.8 to 1.5, a 0.3/0.7 split, momentum up to 2) the floor of
    # 1e-6 leaves out at most 4.6e-5 of a component's mass (2-D, width 1.5);
    # a floor of 1e-3 would leave out 6e-4 to 5e-2 of it, the packet's flanks
    @pytest.mark.parametrize("dimension, nodes", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("width", [0.8, 1.5])
    def test_hj_floor_keeps_the_packet(self, dimension, nodes, width):
        grid = pauli.SpatialGrid(dimension, nodes, 20.0)
        coords = grid.coordinates()
        packet = np.exp(
            -sum(c**2 for c in coords) / (4.0 * width**2) + 2.0j * coords[0]
        )
        state = pauli.SpinorField.normalized(
            grid, math.sqrt(0.3) * packet, math.sqrt(0.7) * packet
        )
        mid = pauli.evolve(state, pauli.FieldConfig(b_z=1.0), 0.01, 20)
        for psi in mid.psi:
            rho = np.abs(psi) ** 2
            assert np.sum(rho[rho <= pauli.HJ_FLOOR]) <= 1e-4 * np.sum(rho)

    def test_snapshot_rows_shape(self):
        rows = pauli.snapshot_rows(packet_state(), stride=16)
        assert len(rows) == 256 // 16
        assert len(rows[0]) == 5

    @pytest.mark.parametrize("stride", [0, -1])
    def test_snapshot_rows_rejects_bad_stride(self, stride):
        with pytest.raises(ValueError, match="stride"):
            pauli.snapshot_rows(packet_state(), stride)


def _cells(rows):
    return [[(type(v), repr(v)) for v in row] for row in rows]


def test_row_builders_match_per_index_loops():
    """The exported rows carry the same Python values as a per-index loop."""
    grid = pauli.SpatialGrid(1, 256, 20.0)
    state = pauli.evolve(
        two_component_state(grid), pauli.FieldConfig(b_z=0.7), 0.01, 40
    )
    x = grid.axis()
    rho = [np.abs(p) ** 2 for p in state.psi]
    s = [np.unwrap(np.angle(p)) for p in state.psi]
    for stride in (1, 3, 16):
        expected = [
            (float(x[i]), float(rho[0][i]), float(rho[1][i]),
             float(s[0][i]), float(s[1][i]))
            for i in range(0, grid.nodes, stride)
        ]
        assert _cells(pauli.snapshot_rows(state, stride)) == _cells(expected)
    for seed in (1, 2, 3):
        config = sg.ApparatusConfig(m=seed)
        rng = stream(seed, "rows-reference")
        _, edges, counts = sg.displacement_distribution(seed, config, 5000, rng)
        total, widths = counts.sum(), np.diff(edges)
        expected = [
            (float(left), float(right), int(c), float(c / (total * w)))
            for left, right, c, w in zip(edges[:-1], edges[1:], counts, widths)
        ]
        assert _cells(sg.histogram_rows(edges, counts)) == _cells(expected)
