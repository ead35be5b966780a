"""Two-component Schrodinger-Pauli solver on a periodic grid.

Integrates  i dPsi/dt = [ -(1/2) lap + (1/2) sigma_z B_z - phi ] Psi
in natural units (e = hbar = m_e = 1) by Strang splitting: the kinetic
factor acts in spectral space, the potential and Zeeman factors are
diagonal in real space.  Both factors are unitary, so the norm is preserved
to round-off.  The fields couple only through sigma_z B_z and phi.  There
is no vector potential: a uniform A has curl A = 0, so it is the gauge
e^{iAx}, not a field.

The Madelung decomposition Psi_pm = sqrt(rho_pm) exp(i S_pm) links
the spinor to density/phase-action fields and to the continuity and
extended Hamilton-Jacobi residual diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import _two_threads

NORM_TOL = 1e-8
DENSITY_FLOOR = 1e-12
# the Hamilton-Jacobi residual divides by sqrt(rho), which amplifies round-off
# in the tails far more than the continuity residual's rho does
HJ_FLOOR = 1e-6
# from this many nodes per component evolve advances Psi_- on a second
# thread: numpy's FFT and ufunc loops release the GIL, and on smaller grids
# the GIL handoffs cost more than the second core saves
_PARALLEL_NODES = 2**14


class ConvergenceError(RuntimeError):
    """Numerical non-convergence: the phase factors of `dt` and the field
    are not finite, so `evolve` cannot step the spinor."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid in 1 or 2 dimensions."""

    dimension: int
    nodes: int
    extent: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise ValueError("nodes must be a power of two >= 16")
        if not 0 < self.extent < math.inf:
            raise ValueError("extent must be positive and finite")

    @property
    def spacing(self) -> float:
        return self.extent / self.nodes

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def shape(self) -> tuple:
        return (self.nodes,) * self.dimension

    def axis(self) -> np.ndarray:
        return -self.extent / 2 + self.spacing * np.arange(self.nodes)

    def coordinates(self):
        return np.meshgrid(*[self.axis()] * self.dimension, indexing="ij")

    def wavenumbers(self):
        k = 2.0 * np.pi * np.fft.fftfreq(self.nodes, d=self.spacing)
        return np.meshgrid(*[k] * self.dimension, indexing="ij")


@dataclass(frozen=True)
class FieldConfig:
    """External fields of the Pauli equation: the solver couples sigma_z B_z
    and phi.  A uniform vector potential would be the gauge e^{iAx}, so
    there is none.  scalar_potential and b_z may be scalars or grid arrays.
    """

    scalar_potential: object = 0.0
    b_z: object = 0.0

    def potential_energy(self, grid: SpatialGrid) -> np.ndarray:
        """Diagonal potential V_pm = +/- B_z / 2 - phi, stacked (V_+, V_-)."""
        base = -self._as_field(self.scalar_potential, grid)
        zeeman = 0.5 * self._as_field(self.b_z, grid)
        return np.stack((base + zeeman, base - zeeman))

    @staticmethod
    def _as_field(value, grid: SpatialGrid):
        arr = np.broadcast_to(np.asarray(value, dtype=float), grid.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        return arr


@dataclass(frozen=True)
class SpinorField:
    """The spinor on the grid: psi[0] is Psi_+, psi[1] is Psi_-."""

    grid: SpatialGrid
    psi: np.ndarray

    def __post_init__(self):
        if self.psi.shape != (2, *self.grid.shape):
            raise ValueError("spinor shape must be (2, *grid.shape)")

    @staticmethod
    def normalized(grid, psi_plus, psi_minus) -> "SpinorField":
        psi = np.stack((psi_plus, psi_minus), dtype=complex)
        rho = np.abs(psi) ** 2
        # summing the two densities first keeps the scale's rounding
        scale = 1.0 / np.sqrt(np.sum(rho[0] + rho[1]) * grid.cell_volume)
        return SpinorField(grid, psi * scale)


def norm(field: SpinorField) -> float:
    """Total norm integral of |Psi_+|^2 + |Psi_-|^2."""
    return float(sum(spin_populations(field)))


def spin_populations(field: SpinorField) -> tuple[float, float]:
    dv = field.grid.cell_volume
    up, down = (float(np.sum(rho) * dv) for rho in np.abs(field.psi) ** 2)
    return up, down


def zeeman_energy(field: SpinorField, config: FieldConfig) -> float:
    """(1/2) integral of B_z (|Psi_+|^2 - |Psi_-|^2)."""
    bz = config._as_field(config.b_z, field.grid)
    rho = np.abs(field.psi) ** 2
    return float(0.5 * np.sum(bz * (rho[0] - rho[1])) * field.grid.cell_volume)


def _kinetic_energy(grid: SpatialGrid) -> np.ndarray:
    """Spectral kinetic energy k^2 / 2 of each plane wave."""
    return sum(k**2 for k in grid.wavenumbers()) / 2.0


def evolve(
    field: SpinorField, config: FieldConfig, dt: float, steps: int
) -> SpinorField:
    """Advance the spinor by `steps` Strang-split time steps."""
    if not abs(norm(field) - 1.0) <= NORM_TOL:  # also rejects a NaN norm
        raise ValueError("input field must be normalized")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (steps >= 0 and steps % 1 == 0):  # also rejects NaN and inf
        raise ValueError(f"steps must be a whole number >= 0, got {steps!r}")
    steps = int(steps)
    grid = field.grid
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(-0.5j * dt * config.potential_energy(grid))
        kinetic = np.exp(-1j * dt * _kinetic_energy(grid))
    # finite unit-modulus factors keep a finite spinor finite at every step
    if not (np.isfinite(half).all() and np.isfinite(kinetic).all()):
        raise ConvergenceError(f"non-finite phase factors of dt={dt!r} and the field")
    # fftn's axis order, last axis first, gives fftn's bits; not ifft2(out=):
    # numpy 2.4's ifft2 drops out, which would leave psi in k-space
    axes = range(-1, -grid.dimension - 1, -1)
    psi = np.array(field.psi, dtype=complex)  # a copy: the input stays unchanged
    if psi[0].size < _PARALLEL_NODES:
        _strang_steps(psi, half, kinetic, axes, steps)
    else:
        _strang_steps_split(psi, half, kinetic, axes, steps)
    if not np.isfinite(psi).all():
        raise ConvergenceError("non-finite amplitudes after the last step")
    return SpinorField(grid, psi)


def _strang_steps(psi, half, kinetic, axes, steps: int) -> None:
    """Advance psi by `steps` Strang steps in place."""
    for _ in range(steps):
        psi *= half
        for axis in axes:
            np.fft.fft(psi, axis=axis, out=psi)
        psi *= kinetic
        for axis in axes:
            np.fft.ifft(psi, axis=axis, out=psi)
        psi *= half


def _strang_steps_split(psi, half, kinetic, axes, steps: int) -> None:
    """_strang_steps with Psi_- advanced on a second thread.

    sigma_z B_z never mixes the components, so each one is stepped on its
    own, with the same bits as the stacked array.  `_two_threads` runs the
    worker in a copy of the caller's context, so the caller's np.errstate
    holds in it; its exception, if any, is raised here once both threads
    are done.
    """
    _two_threads(
        lambda: _strang_steps(psi[0], half[0], kinetic, axes, steps),
        lambda: _strang_steps(psi[1], half[1], kinetic, axes, steps),
    )


# ---------------------------------------------------------------------------
# Madelung diagnostics


def madelung(field: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """Density/phase-action split Psi_pm = sqrt(rho_pm) exp(i S_pm).

    Returns (rho, S), each stacked like field.psi, with S unwrapped along
    every grid axis.
    """
    phase = np.angle(field.psi)
    for axis in range(1, phase.ndim):
        phase = np.unwrap(phase, axis=axis)
    return np.abs(field.psi) ** 2, phase


def _component(component: str) -> int:
    """Index of the named component in SpinorField.psi."""
    if component not in ("plus", "minus"):
        raise ValueError("component must be 'plus' or 'minus'")
    return 0 if component == "plus" else 1


def _current(fields: list[SpinorField], component: str):
    """Each snapshot's component, and the middle one's rho, current and k.

    The per-axis probability current Im(psi* grad psi) equals rho grad S
    wherever the Madelung phase is defined, but needs no phase unwrapping.
    """
    if len(fields) != 3:
        raise ValueError("need three consecutive snapshots")
    grid = fields[0].grid
    index = _component(component)
    psis = [f.psi[index] for f in fields]
    psi = psis[1]
    rho = np.abs(psi) ** 2
    ks = grid.wavenumbers()
    psi_hat = np.fft.fftn(psi)
    current = [np.imag(np.conj(psi) * np.fft.ifftn(1j * k * psi_hat)) for k in ks]
    return psis, rho, current, ks


def continuity_residual(
    fields: list[SpinorField],
    dt: float,
    config: FieldConfig,
    component: str = "plus",
) -> float:
    """RMS of d(rho)/dt + div(rho grad S) over three snapshots.

    Evaluated at the middle snapshot with central time differencing, with
    the flux taken as the probability current.  Near-zero-density regions
    are masked out.  `config` is read by nothing: the continuity equation
    holds for any sigma_z B_z and phi.  It stays until ROADMAP item 1 drops
    it together with the bench's positional calls.
    """
    psis, rho, current, ks = _current(fields, component)
    drho_dt = (np.abs(psis[2]) ** 2 - np.abs(psis[0]) ** 2) / (2.0 * dt)
    div = sum(
        np.real(np.fft.ifftn(1j * k * np.fft.fftn(j))) for k, j in zip(ks, current)
    )
    residual = (drho_dt + div)[rho > DENSITY_FLOOR]
    return float(np.sqrt(np.mean(residual**2)))


def hj_residual(
    fields: list[SpinorField],
    dt: float,
    config: FieldConfig,
    component: str = "plus",
) -> float:
    """RMS residual of the extended Hamilton-Jacobi equation.

    dS/dt + (grad S)^2 / 2 + V - (1/2) lap(sqrt rho)/sqrt rho, with V the
    diagonal potential of the component.  dS/dt comes from the central
    phase difference arg(psi_after psi_before*)/(2 dt) and grad S from the
    probability current J/rho, so no global phase unwrapping is needed;
    masked where the density is below HJ_FLOOR.
    """
    psis, rho, current, ks = _current(fields, component)
    mask = rho > HJ_FLOOR
    rho_m = rho[mask]
    ds_dt = np.angle(psis[2] * np.conj(psis[0]))[mask] / (2.0 * dt)
    kinetic = 0.5 * sum((j[mask] / rho_m) ** 2 for j in current)
    grid = fields[0].grid
    v = config.potential_energy(grid)[_component(component)][mask]
    sqrt_rho = np.sqrt(rho)
    lap = np.real(np.fft.ifftn(-2.0 * _kinetic_energy(grid) * np.fft.fftn(sqrt_rho)))
    quantum = -0.5 * lap[mask] / sqrt_rho[mask]
    residual = ds_dt + kinetic + v + quantum
    return float(np.sqrt(np.mean(residual**2)))


def total_energy(field: SpinorField, config: FieldConfig) -> float:
    """<Psi|H|Psi>, used for the conservation diagnostic.

    The kinetic term is diagonal in k and the potential in x, so each is a
    real weighted sum of |amplitude|^2 (Parseval for the 1/N of the FFT).
    """
    grid = field.grid
    psi = field.psi
    psi_hat = np.fft.fftn(psi, axes=tuple(range(1, psi.ndim)))
    kinetic = np.sum(_kinetic_energy(grid) * np.abs(psi_hat) ** 2)
    kinetic /= psi[0].size
    potential = np.sum(config.potential_energy(grid) * np.abs(psi) ** 2)
    return float(kinetic + potential) * grid.cell_volume


def relative_phase(field: SpinorField) -> float:
    """arg of the overlap integral <Psi_+ | Psi_->."""
    return float(np.angle(np.sum(np.conj(field.psi[0]) * field.psi[1])))


def gaussian_packet(grid: SpatialGrid, width=1.0, momentum=0.0):
    """Gaussian centred at x = 0 on the grid (1D helper for tests and demos)."""
    if grid.dimension != 1:
        raise ValueError("gaussian_packet is 1D only")
    x = grid.axis()
    psi = np.exp(-(x**2) / (4.0 * width**2) + 1j * momentum * x)
    return psi.astype(complex)


def snapshot_rows(field: SpinorField, stride: int = 1):
    """(x, |psi_+|^2, |psi_-|^2, S_+, S_-) rows for export (1D)."""
    if field.grid.dimension != 1:
        raise ValueError("snapshot export is 1D only")
    if not stride >= 1:  # a negative slice step would reverse the rows
        raise ValueError("stride must be >= 1")
    rho, s = madelung(field)
    x = field.grid.axis()
    return np.column_stack((x, rho[0], rho[1], s[0], s[1]))[::stride].tolist()
