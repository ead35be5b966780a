"""Two-component Schrodinger-Pauli solver on a periodic grid.

Integrates  i dPsi/dt = [ -(1/2) lap + (1/2) sigma_z B_z - phi ] Psi
in natural units (e = hbar = m_e = 1) by Strang splitting: the kinetic
factor acts in spectral space, the potential and Zeeman factors are
diagonal in real space.  Both factors are unitary, so the norm is preserved
to round-off.  The fields couple only through sigma_z B_z and phi.  There
is no vector potential: a uniform A has curl A = 0, so it is the gauge
e^{iAx}, not a field.

A uniform field (scalar B_z and phi) is a potential with one value per
component, which commutes with the kinetic term, [T, V] = 0: then n Strang
steps of dt are exactly one step of n dt, and `evolve` takes that one step.
A field that varies on the grid is stepped n times.

Each `evolve` call pays its fixed costs once: the potential phase is taken
on the fields' own shape (two complex exps for scalar fields), the kinetic
phase from one axis's factors (their outer product in 2-D) with the inverse
transform's 1/N^d folded in, and the closing half-potential of each step is
fused with the opening one of the next.

The Madelung decomposition Psi_pm = sqrt(rho_pm) exp(i S_pm) links
the spinor to the density/phase-action export and to the continuity and
extended Hamilton-Jacobi residual diagnostics.  The diagnostics take one
component at a time and hold about two component-sized arrays at most:
the continuity residual takes div J as Im(psi* lap psi) from one transform
pair with the solver's own spectral Laplacian, the Hamilton-Jacobi residual
builds each axis's current in one reused buffer, and the energy weighs each
axis's marginal of |psi_hat|^2 by k^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import (
    _require_count, _require_int, _require_normal, _require_real, _require_real_array,
)

NORM_TOL = 1e-8
DENSITY_FLOOR = 1e-12
# the Hamilton-Jacobi residual divides by sqrt(rho), which amplifies round-off
# in the tails far more than the continuity residual's rho does
HJ_FLOOR = 1e-6


class ConvergenceError(RuntimeError):
    """Numerical non-convergence: the phase factors of `dt` (of
    `steps * dt` for a uniform field) and the field are not finite, so
    `evolve` cannot step the spinor."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid in 1 or 2 dimensions."""

    dimension: int
    nodes: int
    extent: float

    def __post_init__(self):
        dimension, nodes = self.dimension, self.nodes
        # 1.0 == 1 would give no shape, and 64.0 no power-of-two test
        _require_int("dimension", dimension, 1, 2)
        _require_int("nodes", nodes, 16, 2**63 - 1)
        if nodes & (nodes - 1):
            raise ValueError(f"nodes must be a power of two >= 16, got {nodes!r}")
        _require_real("extent", self.extent, 0.0, open_low=True)
        # a subnormal spacing leaves the packet unnormalizable, and a cell
        # volume past the float range overflows spacing**2
        spacing = self.extent / nodes
        _require_normal(
            f"extent: at extent = {self.extent!r} over {nodes} nodes in "
            f"{dimension}-D, the node spacing and the cell volume",
            *(spacing, spacing * spacing)[:dimension],
        )
        # the Nyquist wavenumber pi / spacing, rounded as _wavenumber_axis
        # rounds it: the kinetic phase and the residuals need its square,
        # summed over the axes, finite, and no dt steps a grid where it is not
        nyquist = 2.0 * math.pi * ((nodes // 2) * (1.0 / (nodes * spacing)))
        if not math.isfinite(dimension * nyquist * nyquist):
            raise ValueError(
                f"extent: the squared wavenumber (pi / spacing)^2, summed over "
                f"the axes, overflows at extent = {self.extent!r} over "
                f"{nodes} nodes in {dimension}-D"
            )

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
    there is none.  scalar_potential and b_z may be scalars or grid arrays;
    a bool, str, None, complex or non-finite value is refused by name.
    """

    scalar_potential: object = 0.0
    b_z: object = 0.0

    def __post_init__(self):
        for name in ("scalar_potential", "b_z"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                _require_real_array(name, value)
            else:
                _require_real(name, value)

    def potential_energy(self, grid: SpatialGrid) -> np.ndarray:
        """Diagonal potential V_pm = +/- B_z / 2 - phi, stacked (V_+, V_-) on
        the fields' own shape, which broadcasts to (2, *grid.shape): (2, 1,
        ...) for scalar fields, so it costs what the fields hold, not the
        grid."""
        base = -self._as_field(self.scalar_potential, grid)
        zeeman = 0.5 * self._as_field(self.b_z, grid)
        return np.stack((base + zeeman, base - zeeman))

    @staticmethod
    def _as_field(value, grid: SpatialGrid):
        """value, a field the constructor found finite and real, as a float
        array with the grid's number of axes that broadcasts to grid.shape."""
        arr = np.asarray(value, dtype=float)
        np.broadcast_to(arr, grid.shape)  # raises ValueError unless it does
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

        def norm_integral():
            # summing the two densities first keeps the scale's rounding
            with np.errstate(over="ignore"):
                rho = _density(psi[0])
                rho += _density(psi[1])
                return np.sum(rho) * grid.cell_volume

        integral = norm_integral()
        if not 0 < integral < math.inf:
            # a density that under- or overflows sums again over psi scaled by
            # its largest real or imaginary part; a normal input never comes
            # here, so it keeps its bits
            largest = np.max(np.abs(psi.view(float)))
            if 0 < largest < math.inf:
                psi /= largest
                integral = norm_integral()
        if not 0 < integral < math.inf:  # also rejects a NaN norm
            raise ValueError(f"cannot normalize a spinor with norm {integral}")
        psi *= 1.0 / np.sqrt(integral)
        return SpinorField(grid, psi)


def _density(psi: np.ndarray, out=None) -> np.ndarray:
    """|psi|^2, squared in place in `out` or a new array: the bits of
    np.abs(psi) ** 2."""
    rho = np.abs(psi, out=out)
    rho *= rho
    return rho


def norm(field: SpinorField) -> float:
    """Total norm integral of |Psi_+|^2 + |Psi_-|^2."""
    return float(sum(spin_populations(field)))


def spin_populations(field: SpinorField) -> tuple[float, float]:
    dv = field.grid.cell_volume
    up, down = (float(np.sum(_density(psi)) * dv) for psi in field.psi)
    return up, down


def zeeman_energy(field: SpinorField, config: FieldConfig) -> float:
    """(1/2) integral of B_z (|Psi_+|^2 - |Psi_-|^2)."""
    bz = config._as_field(config.b_z, field.grid)
    polarization = _density(field.psi[0])
    polarization -= _density(field.psi[1])
    polarization *= bz
    return float(0.5 * np.sum(polarization) * field.grid.cell_volume)


def evolve(
    field: SpinorField, config: FieldConfig, dt: float, steps: int
) -> SpinorField:
    """Advance the spinor by `steps` Strang-split time steps.

    Scalar fields take them as one step of steps * dt: a potential with one
    value per component commutes with the kinetic term, [T, V] = 0, so the
    steps' factors multiply to that one step's.  Grid- and axis-shaped
    fields are stepped `steps` times.
    """
    if not abs(norm(field) - 1.0) <= NORM_TOL:  # also rejects a NaN norm
        raise ValueError("input field must be normalized")
    _require_real("dt", dt, 0.0, open_low=True)
    steps = _require_count("steps", steps, 0, math.inf)
    grid = field.grid
    potential = config.potential_energy(grid)
    step_dt, step_count = dt, steps
    if potential[0].size == 1 and steps:  # one value per component
        step_dt, step_count = dt * steps, 1
    # the kinetic phase of bins 0..N/2: fftfreq's other bins are their
    # values negated exactly, so bins N/2+1..N-1 mirror N/2-1..1 bit for bit
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.nodes, d=grid.spacing)
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.exp(-0.5j * step_dt * potential)
        kinetic = np.exp(-1j * step_dt * (k**2 / 2.0))
    # finite unit-modulus factors keep a finite spinor finite at every step
    if not (np.isfinite(half).all() and np.isfinite(kinetic).all()):
        raise ConvergenceError(
            f"non-finite phase factors of dt={dt!r}, steps={steps} and the field"
        )
    kinetic = np.concatenate((kinetic, kinetic[-2:0:-1]))
    if grid.dimension == 2:
        kinetic = np.multiply.outer(kinetic, kinetic)
    # the inverse transforms' 1/N per axis, folded in once per call: N is a
    # power of two, so the scaling is exact and keeps ifft's bits
    kinetic *= 1.0 / kinetic.size
    # fftn's axis order, last axis first, gives fftn's bits; not ifft2(out=):
    # numpy 2.4's ifft2 drops out, which would leave psi in k-space
    axes = range(-1, -grid.dimension - 1, -1)
    psi = np.array(field.psi, dtype=complex)  # a copy: the input stays unchanged
    _strang_steps(psi, half, kinetic, axes, step_count)
    if not np.isfinite(psi).all():
        raise ConvergenceError("non-finite amplitudes after the last step")
    return SpinorField(grid, psi)


def _strang_steps(psi, half, kinetic, axes, steps: int) -> None:
    """Advance psi by `steps` Strang steps in place.

    A step is half, kinetic, half; the closing half of one step and the
    opening half of the next are one multiply by full = half * half, built
    only when more than one step reads it.  The inverse transforms are
    unscaled: kinetic carries their 1/N^d.
    """
    if not steps:
        return
    full = half * half if steps > 1 else None
    psi *= half
    for step in range(steps, 0, -1):
        for axis in axes:
            np.fft.fft(psi, axis=axis, out=psi)
        psi *= kinetic
        for axis in axes:
            np.fft.ifft(psi, axis=axis, out=psi, norm="forward")
        psi *= full if step > 1 else half


# ---------------------------------------------------------------------------
# Madelung diagnostics


def _snapshots(fields: list[SpinorField], component: str) -> tuple:
    """(index, before, psi, after): the named component's index in
    SpinorField.psi and that component of three consecutive snapshots."""
    if len(fields) != 3:
        raise ValueError("need three consecutive snapshots")
    if component not in ("plus", "minus"):
        raise ValueError("component must be 'plus' or 'minus'")
    index = 0 if component == "plus" else 1
    return (index, *(f.psi[index] for f in fields))


def continuity_residual(
    fields: list[SpinorField],
    dt: float,
    config: FieldConfig,
    component: str = "plus",
) -> float:
    """RMS of d(rho)/dt + div(rho grad S) over three snapshots.

    Evaluated at the middle snapshot with central time differencing.  The
    flux is the probability current J = Im(psi* grad psi), whose divergence
    is Im(psi* lap psi), since |grad psi|^2 is real: one transform pair with
    the solver's own spectral Laplacian -|k|^2, Nyquist bin included, so the
    residual falls as dt^2 for any field the solver steps.  Near-zero-density
    regions are masked out.  `config` is read by nothing: the continuity
    equation holds for any sigma_z B_z and phi.  It stays until ROADMAP
    item 1 drops it together with the bench's positional calls.
    """
    _, before, psi, after = _snapshots(fields, component)
    grid = fields[0].grid
    residual = _density(after)
    residual -= _density(before)
    residual /= 2.0 * dt
    # minus the Laplacian, -lap psi = ifftn(|k|^2 psi_hat); conj(-lap psi) psi
    # is the conjugate of -psi* lap psi, so its imaginary part is div J
    neg_lap = np.fft.fftn(psi, out=np.empty(psi.shape, dtype=complex))
    neg_lap *= sum(_along_axes(_wavenumber_axis(grid) ** 2, grid.dimension))
    np.fft.ifftn(neg_lap, out=neg_lap)
    np.conjugate(neg_lap, out=neg_lap)
    neg_lap *= psi
    residual += neg_lap.imag
    del neg_lap
    residual = residual[_density(psi) > DENSITY_FLOOR]
    if not residual.size:  # the mean of no nodes would be NaN
        raise ValueError(f"no {component} density over DENSITY_FLOOR = {DENSITY_FLOOR}")
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
    every term is taken where the density is above HJ_FLOOR.  Each axis's
    current comes from one transform pair along that axis, in one buffer.
    """
    index, before, psi, after = _snapshots(fields, component)
    grid = fields[0].grid
    rho = _density(psi)
    mask = rho > HJ_FLOOR
    phase = after[mask]
    if not phase.size:  # the mean of no nodes would be NaN
        raise ValueError(f"no {component} density over HJ_FLOOR = {HJ_FLOOR}")
    phase *= np.conjugate(before[mask])
    residual = np.angle(phase) / (2.0 * dt)
    del phase
    residual += _velocity_term(psi, mask, rho[mask], grid)
    residual += np.broadcast_to(config.potential_energy(grid)[index], grid.shape)[mask]
    # -lap(sqrt rho) of a real field: rfftn's half spectrum keeps the last
    # axis's bins 0..nodes/2
    sqrt_rho = np.sqrt(rho, out=rho)
    k_squared = _along_axes(_wavenumber_axis(grid) ** 2, grid.dimension)
    k_squared[-1] = k_squared[-1][: grid.nodes // 2 + 1]
    spectrum = np.fft.rfftn(sqrt_rho)
    spectrum *= sum(k_squared)
    quantum = np.fft.irfftn(spectrum, s=grid.shape, axes=range(grid.dimension))[mask]
    quantum *= 0.5
    quantum /= sqrt_rho[mask]
    residual += quantum
    return float(np.sqrt(np.mean(residual**2)))


def _velocity_term(psi, mask, rho_m, grid: SpatialGrid) -> np.ndarray:
    """(grad S)^2 / 2 where mask holds, with grad S = J / rho and each axis's
    current J from one transform pair along that axis, in one buffer."""
    gradient = np.empty(psi.shape, dtype=complex)
    kinetic = 0.0
    ik = _along_axes(1j * _wavenumber_axis(grid), grid.dimension)
    for axis, ik_axis in enumerate(ik):
        np.fft.fft(psi, axis=axis, out=gradient)
        gradient *= ik_axis
        np.fft.ifft(gradient, axis=axis, out=gradient)
        # conj(grad psi) psi: its imaginary part is -J, whose sign squares away
        np.conjugate(gradient, out=gradient)
        gradient *= psi
        velocity = gradient.imag[mask]
        velocity /= rho_m
        velocity *= velocity
        kinetic += velocity
    kinetic *= 0.5
    return kinetic


def total_energy(field: SpinorField, config: FieldConfig) -> float:
    """<Psi|H|Psi>, used for the conservation diagnostic.

    The kinetic term is diagonal in k and the potential in x, so each is a
    real weighted sum of |amplitude|^2 (Parseval for the 1/N of the FFT),
    taken one component at a time.  k^2 / 2 is a sum over the axes, so the
    kinetic term weighs each axis's marginal of |psi_hat|^2 by its k^2 / 2.
    """
    grid = field.grid
    half_k_squared = _wavenumber_axis(grid) ** 2 / 2.0
    spectrum = np.empty(grid.shape, dtype=complex)
    density = np.empty(grid.shape)
    kinetic = potential = 0.0
    for psi, v in zip(field.psi, config.potential_energy(grid)):
        _density(np.fft.fftn(psi, out=spectrum), out=density)
        for axis in range(grid.dimension):
            others = tuple(a for a in range(grid.dimension) if a != axis)
            kinetic += np.sum(half_k_squared * density.sum(axis=others))
        _density(psi, out=density)
        density *= v
        potential += np.sum(density)
    kinetic /= field.psi[0].size
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
    # a negative slice step would reverse the rows
    stride = _require_count("stride", stride, 1, math.inf)
    # Psi_pm = sqrt(rho_pm) exp(i S_pm): each S unwrapped along the whole grid,
    # then strided; rho is pointwise, so formed for the exported rows only
    phase = [np.unwrap(np.angle(psi))[::stride] for psi in field.psi]
    rho = _density(field.psi[:, ::stride])
    columns = (field.grid.axis()[::stride], *rho, *phase)
    return np.column_stack(columns).tolist()
