"""Two-component Schrodinger-Pauli solver on a periodic grid.

Integrates  i dPsi/dt = [ -(1/2) lap + (1/2) sigma_z B_z - phi ] Psi
in natural units (e = hbar = m_e = 1) by Strang splitting: the kinetic
factor acts in spectral space, the potential and Zeeman factors are
diagonal in real space.  Both factors are unitary, so the norm is preserved
to round-off.  The fields couple only through sigma_z B_z and phi.  There
is no vector potential: a uniform A has curl A = 0, so it is the gauge
e^{iAx}, not a field.

Each `evolve` call pays its fixed costs once: the potential phase is taken
on the fields' own shape (two complex exps for scalar fields), the kinetic
phase from one axis's factors (their outer product in 2-D), and the closing
half-potential of each step is fused with the opening one of the next.

The Madelung decomposition Psi_pm = sqrt(rho_pm) exp(i S_pm) links
the spinor to density/phase-action fields and to the continuity and
extended Hamilton-Jacobi residual diagnostics, whose real fields (the
current and sqrt(rho)) are transformed by rfftn.
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
        return np.meshgrid(*[_wavenumber_axis(self)] * self.dimension, indexing="ij")


def _wavenumber_axis(grid: SpatialGrid) -> np.ndarray:
    """The wavenumbers of one axis, in fftfreq's order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.nodes, d=grid.spacing)


def _along_axes(values: np.ndarray, dimension: int) -> list:
    """values (one per bin of an axis) shaped to broadcast along each axis."""
    return [values.reshape((-1,) + (1,) * (dimension - 1 - axis))
            for axis in range(dimension)]


@dataclass(frozen=True)
class FieldConfig:
    """External fields of the Pauli equation: the solver couples sigma_z B_z
    and phi.  A uniform vector potential would be the gauge e^{iAx}, so
    there is none.  scalar_potential and b_z may be scalars or grid arrays.
    """

    scalar_potential: object = 0.0
    b_z: object = 0.0

    def potential_energy(self, grid: SpatialGrid) -> np.ndarray:
        """Diagonal potential V_pm = +/- B_z / 2 - phi, stacked (V_+, V_-),
        as a read-only (2, *grid.shape) view of the stack on the fields' own
        shape."""
        return np.broadcast_to(self._potential(grid), (2, *grid.shape))

    def _potential(self, grid: SpatialGrid) -> np.ndarray:
        """potential_energy on the fields' own shape: (2, 1, ...) for scalar
        fields, so it costs what the fields hold, not the grid."""
        base = -self._as_field(self.scalar_potential, grid)
        zeeman = 0.5 * self._as_field(self.b_z, grid)
        return np.stack((base + zeeman, base - zeeman))

    @staticmethod
    def _as_field(value, grid: SpatialGrid):
        """value as a finite float array with the grid's number of axes that
        broadcasts to grid.shape."""
        arr = np.asarray(value, dtype=float)
        np.broadcast_to(arr, grid.shape)  # raises ValueError unless it does
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        return arr.reshape((1,) * (grid.dimension - arr.ndim) + arr.shape)


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
        half = np.exp(-0.5j * dt * config._potential(grid))
        kinetic = np.exp(-1j * dt * (_wavenumber_axis(grid) ** 2 / 2.0))
    # finite unit-modulus factors keep a finite spinor finite at every step
    if not (np.isfinite(half).all() and np.isfinite(kinetic).all()):
        raise ConvergenceError(f"non-finite phase factors of dt={dt!r} and the field")
    if grid.dimension == 2:
        kinetic = np.multiply.outer(kinetic, kinetic)
    # fftn's axis order, last axis first, gives fftn's bits; not ifft2(out=):
    # numpy 2.4's ifft2 drops out, which would leave psi in k-space
    axes = range(-1, -grid.dimension - 1, -1)
    psi = np.array(field.psi, dtype=complex)  # a copy: the input stays unchanged
    if psi[0].size < _PARALLEL_NODES:
        # copied to the grid's shape: on these cache-sized grids a broadcast
        # operand is slower in the loop than a contiguous one
        half = np.ascontiguousarray(np.broadcast_to(half, psi.shape))
        _strang_steps(psi, half, kinetic, axes, steps)
    else:
        # kept on the fields' shape: at these sizes a broadcast operand costs
        # the loop no more than a copy would, and holds no grid-sized arrays
        _strang_steps_split(psi, half, kinetic, axes, steps)
    if not np.isfinite(psi).all():
        raise ConvergenceError("non-finite amplitudes after the last step")
    return SpinorField(grid, psi)


def _strang_steps(psi, half, kinetic, axes, steps: int) -> None:
    """Advance psi by `steps` Strang steps in place.

    A step is half, kinetic, half; the closing half of one step and the
    opening half of the next are one multiply by full = half * half.
    """
    if not steps:
        return
    full = half * half
    psi *= half
    for step in range(steps, 0, -1):
        for axis in axes:
            np.fft.fft(psi, axis=axis, out=psi)
        psi *= kinetic
        for axis in axes:
            np.fft.ifft(psi, axis=axis, out=psi)
        psi *= full if step > 1 else half


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
    """Each snapshot's component, and the middle one's rho and current.

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
    psi_hat = np.fft.fftn(psi)
    current = [
        np.imag(np.conj(psi) * np.fft.ifftn(1j * k * psi_hat))
        for k in _along_axes(_wavenumber_axis(grid), grid.dimension)
    ]
    return psis, rho, current


def _half_spectrum(values: np.ndarray, grid: SpatialGrid) -> list:
    """values (one per fftfreq bin of an axis) along each axis of rfftn's
    half spectrum of a real field: the last axis keeps bins 0..nodes/2."""
    *rest, _ = _along_axes(values, grid.dimension)
    return [*rest, values[: grid.nodes // 2 + 1]]


def _real_inverse(spectrum: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """The real field of an rfftn half spectrum on the grid."""
    return np.fft.irfftn(spectrum, s=grid.shape, axes=range(grid.dimension))


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
    psis, rho, current = _current(fields, component)
    grid = fields[0].grid
    drho_dt = (np.abs(psis[2]) ** 2 - np.abs(psis[0]) ** 2) / (2.0 * dt)
    # a real field's derivative has no Nyquist term: the real part of the
    # complex transform drops it, and the half spectrum must too
    k = _wavenumber_axis(grid)
    k[grid.nodes // 2] = 0.0
    spectrum = sum(
        1j * k_axis * np.fft.rfftn(j)
        for k_axis, j in zip(_half_spectrum(k, grid), current)
    )
    residual = (drho_dt + _real_inverse(spectrum, grid))[rho > DENSITY_FLOOR]
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
    psis, rho, current = _current(fields, component)
    mask = rho > HJ_FLOOR
    rho_m = rho[mask]
    ds_dt = np.angle(psis[2] * np.conj(psis[0]))[mask] / (2.0 * dt)
    kinetic = 0.5 * sum((j[mask] / rho_m) ** 2 for j in current)
    grid = fields[0].grid
    v = config.potential_energy(grid)[_component(component)][mask]
    sqrt_rho = np.sqrt(rho)
    k_squared = sum(_half_spectrum(_wavenumber_axis(grid) ** 2, grid))
    lap = _real_inverse(-k_squared * np.fft.rfftn(sqrt_rho), grid)
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
    # (x / 2w)^2 rather than x^2 / 4w^2, whose 4w^2 underflows to 0 below
    # w ~ 1e-162; it overflows to inf instead, where the packet is 0
    with np.errstate(over="ignore"):
        exponent = -((x / (2.0 * width)) ** 2)
    psi = np.exp(exponent + 1j * momentum * x)
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
