"""Two-component Schrodinger-Pauli solver on a periodic grid.

Integrates  i hbar dPsi/dt = [ (1/2m)(i hbar grad + e A)^2
                               + (e hbar / 2m) sigma_z B_z - e phi ] Psi
by Strang splitting: the kinetic factor acts in spectral space with the
minimal-coupling shift, the potential and Zeeman factors are diagonal in
real space.  Both factors are unitary, so the norm is preserved to
round-off.  The field B_z enters only through the Zeeman term; the default
configurations use uniform B_z with A = 0 (the same decoupling the model
derivation adopts).

The Madelung decomposition Psi_pm = sqrt(rho_pm) exp(i S_pm / hbar) links
the spinor to density/phase-action fields and to the continuity and
extended Hamilton-Jacobi residual diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-8
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid in 1 or 2 dimensions."""

    dimension: int = 1
    nodes: int = 256
    extent: float = 20.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.nodes < 16 or self.nodes & (self.nodes - 1):
            raise ValueError("nodes must be a power of two >= 16")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

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
        if self.dimension == 1:
            return (self.axis(),)
        return np.meshgrid(self.axis(), self.axis(), indexing="ij")

    def wavenumbers(self):
        k = 2.0 * np.pi * np.fft.fftfreq(self.nodes, d=self.spacing)
        if self.dimension == 1:
            return (k,)
        return np.meshgrid(k, k, indexing="ij")


@dataclass(frozen=True)
class FieldConfig:
    """External fields and physical constants (natural units by default).

    vector_potential is one uniform value per axis; the spectral
    minimal-coupling shift requires a spatially constant A, which the
    model's test configurations (A = 0) satisfy.  scalar_potential and
    b_z may be scalars or grid arrays.
    """

    vector_potential: tuple = (0.0,)
    scalar_potential: object = 0.0
    b_z: object = 0.0
    charge: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    def potential_energy(self, grid: SpatialGrid):
        """Diagonal potential V_pm = +/- (e hbar / 2m) B_z - e phi."""
        phi = self._as_field(self.scalar_potential, grid)
        bz = self._as_field(self.b_z, grid)
        zeeman = self.charge * self.hbar / (2.0 * self.mass) * bz
        base = -self.charge * phi
        return base + zeeman, base - zeeman

    @staticmethod
    def _as_field(value, grid: SpatialGrid):
        if callable(value):
            value = value(*grid.coordinates())
        arr = np.broadcast_to(np.asarray(value, dtype=float), grid.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        return arr


@dataclass(frozen=True)
class SpinorField:
    """Two complex component fields on the grid."""

    grid: SpatialGrid
    psi_plus: np.ndarray
    psi_minus: np.ndarray

    def __post_init__(self):
        for psi in (self.psi_plus, self.psi_minus):
            if psi.shape != self.grid.shape:
                raise ValueError("component shape does not match grid")

    @staticmethod
    def normalized(grid, psi_plus, psi_minus) -> "SpinorField":
        psi_plus = np.asarray(psi_plus, dtype=complex)
        psi_minus = np.asarray(psi_minus, dtype=complex)
        total = (
            np.sum(np.abs(psi_plus) ** 2 + np.abs(psi_minus) ** 2)
            * grid.cell_volume
        )
        scale = 1.0 / np.sqrt(total)
        return SpinorField(grid, psi_plus * scale, psi_minus * scale)


def norm(field: SpinorField) -> float:
    """Total norm integral of |Psi_+|^2 + |Psi_-|^2."""
    return float(sum(spin_populations(field)))


def spin_populations(field: SpinorField) -> tuple[float, float]:
    dv = field.grid.cell_volume
    up = float(np.sum(np.abs(field.psi_plus) ** 2) * dv)
    down = float(np.sum(np.abs(field.psi_minus) ** 2) * dv)
    return up, down


def zeeman_energy(field: SpinorField, config: FieldConfig) -> float:
    """(e hbar / 2m) integral of B_z (|Psi_+|^2 - |Psi_-|^2)."""
    bz = config._as_field(config.b_z, field.grid)
    dv = field.grid.cell_volume
    diff = np.abs(field.psi_plus) ** 2 - np.abs(field.psi_minus) ** 2
    return float(
        config.charge * config.hbar / (2.0 * config.mass) * np.sum(bz * diff) * dv
    )


def _kinetic_energy(grid: SpatialGrid, config: FieldConfig) -> np.ndarray:
    """Spectral kinetic energy (-hbar k + e A)^2 / 2m of each plane wave."""
    a = _padded_vector_potential(config, grid)
    hbar, e, m = config.hbar, config.charge, config.mass
    # plane wave e^{ikx}: (i hbar grad + eA) -> (-hbar k + e A)
    return sum(
        (-hbar * k + e * ai) ** 2 for k, ai in zip(grid.wavenumbers(), a)
    ) / (2.0 * m)


def evolve(
    field: SpinorField, config: FieldConfig, dt: float, steps: int
) -> SpinorField:
    """Advance the spinor by `steps` Strang-split time steps."""
    if abs(norm(field) - 1.0) > NORM_TOL:
        raise ValueError("input field must be normalized")
    if dt <= 0 or steps < 0:
        raise ValueError("dt must be positive and steps non-negative")
    grid = field.grid
    v_plus, v_minus = config.potential_energy(grid)
    half_plus = np.exp(-0.5j * dt / config.hbar * v_plus)
    half_minus = np.exp(-0.5j * dt / config.hbar * v_minus)
    kinetic = np.exp(-1j * dt / config.hbar * _kinetic_energy(grid, config))

    psi_p = field.psi_plus.copy()
    psi_m = field.psi_minus.copy()
    for step in range(steps):
        psi_p *= half_plus
        psi_m *= half_minus
        psi_p = np.fft.ifftn(np.fft.fftn(psi_p) * kinetic)
        psi_m = np.fft.ifftn(np.fft.fftn(psi_m) * kinetic)
        psi_p *= half_plus
        psi_m *= half_minus
        if not (np.all(np.isfinite(psi_p.real)) and np.all(np.isfinite(psi_m.real))):
            raise RuntimeError(f"non-finite amplitudes at step {step}")
    return SpinorField(grid, psi_p, psi_m)


# ---------------------------------------------------------------------------
# Madelung diagnostics


@dataclass(frozen=True)
class MadelungDecomposition:
    rho_plus: np.ndarray
    rho_minus: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray


def _unwrapped_phase(psi: np.ndarray) -> np.ndarray:
    phase = np.angle(psi)
    phase = np.unwrap(phase, axis=0)
    if phase.ndim == 2:
        phase = np.unwrap(phase, axis=1)
    return phase


def madelung(field: SpinorField, hbar: float = 1.0) -> MadelungDecomposition:
    """Density/phase-action split Psi_pm = sqrt(rho_pm) exp(i S_pm / hbar)."""
    return MadelungDecomposition(
        rho_plus=np.abs(field.psi_plus) ** 2,
        rho_minus=np.abs(field.psi_minus) ** 2,
        s_plus=hbar * _unwrapped_phase(field.psi_plus),
        s_minus=hbar * _unwrapped_phase(field.psi_minus),
    )


def _component(field: SpinorField, component: str) -> np.ndarray:
    if component not in ("plus", "minus"):
        raise ValueError("component must be 'plus' or 'minus'")
    return field.psi_plus if component == "plus" else field.psi_minus


def _complex_gradient(psi: np.ndarray, grid: SpatialGrid):
    ks = grid.wavenumbers()
    psi_hat = np.fft.fftn(psi)
    return [np.fft.ifftn(1j * k * psi_hat) for k in ks]


def _padded_vector_potential(config: FieldConfig, grid: SpatialGrid):
    a = config.vector_potential
    if len(a) < grid.dimension:
        a = tuple(a) + (0.0,) * (grid.dimension - len(a))
    return a


def continuity_residual(
    fields: list[SpinorField],
    dt: float,
    config: FieldConfig,
    component: str = "plus",
    floor: float = DENSITY_FLOOR,
) -> float:
    """RMS of d(rho)/dt + div(rho (grad S + eA))/m over three snapshots.

    Evaluated at the middle snapshot with central time differencing.  The
    flux rho grad(S)/m is computed as the probability current
    hbar Im(psi* grad psi)/m, which equals rho grad(S)/m wherever the
    Madelung phase is defined but needs no phase unwrapping.
    Near-zero-density regions are masked out.
    """
    if len(fields) != 3:
        raise ValueError("need three consecutive snapshots")
    grid = fields[0].grid
    psis = [_component(f, component) for f in fields]
    rho = [np.abs(p) ** 2 for p in psis]
    drho_dt = (rho[2] - rho[0]) / (2.0 * dt)
    a = _padded_vector_potential(config, grid)
    div = np.zeros(grid.shape)
    grads = _complex_gradient(psis[1], grid)
    for axis, (g, ai) in enumerate(zip(grads, a)):
        flux = (
            config.hbar * np.imag(np.conj(psis[1]) * g)
            + config.charge * ai * rho[1]
        ) / config.mass
        k = grid.wavenumbers()[axis]
        div += np.real(np.fft.ifftn(1j * k * np.fft.fftn(flux)))
    mask = rho[1] > floor
    residual = (drho_dt + div)[mask]
    return float(np.sqrt(np.mean(residual**2)))


def hj_residual(
    fields: list[SpinorField],
    dt: float,
    config: FieldConfig,
    component: str = "plus",
    floor: float = 1e-6,
) -> float:
    """RMS residual of the extended Hamilton-Jacobi equation.

    dS/dt + (grad S + eA)^2 / 2m + V - (hbar^2/2m) lap(sqrt rho)/sqrt rho,
    with V the diagonal potential of the component.  dS/dt comes from the
    central phase difference arg(psi_after psi_before*)/(2 dt) and grad S
    from the probability current, so no global phase unwrapping is
    needed; masked where the density is below the floor.
    """
    if len(fields) != 3:
        raise ValueError("need three consecutive snapshots")
    grid = fields[0].grid
    psis = [_component(f, component) for f in fields]
    rho_mid = np.abs(psis[1]) ** 2
    ds_dt = config.hbar * np.angle(psis[2] * np.conj(psis[0])) / (2.0 * dt)
    a = _padded_vector_potential(config, grid)
    mask = rho_mid > floor
    grads = _complex_gradient(psis[1], grid)
    kinetic = np.zeros(grid.shape)
    for g, ai in zip(grads, a):
        grad_s = np.zeros(grid.shape)
        grad_s[mask] = (
            config.hbar * np.imag(np.conj(psis[1]) * g)[mask] / rho_mid[mask]
        )
        kinetic += (grad_s + config.charge * ai) ** 2
    kinetic /= 2.0 * config.mass
    v_plus, v_minus = config.potential_energy(grid)
    v = v_plus if component == "plus" else v_minus
    sqrt_rho = np.sqrt(np.clip(rho_mid, 0.0, None))
    lap = np.zeros(grid.shape)
    for k in grid.wavenumbers():
        lap += np.real(np.fft.ifftn(-(k**2) * np.fft.fftn(sqrt_rho)))
    quantum = np.zeros(grid.shape)
    quantum[mask] = (
        -config.hbar**2 / (2.0 * config.mass) * lap[mask] / sqrt_rho[mask]
    )
    residual = (ds_dt + kinetic + v + quantum)[mask]
    return float(np.sqrt(np.mean(residual**2)))


def total_energy(field: SpinorField, config: FieldConfig) -> float:
    """<Psi|H|Psi>, used for the conservation diagnostic."""
    grid = field.grid
    v_plus, v_minus = config.potential_energy(grid)
    kin = _kinetic_energy(grid, config)
    dv = grid.cell_volume
    energy = 0.0
    for psi, v in ((field.psi_plus, v_plus), (field.psi_minus, v_minus)):
        psi_hat = np.fft.fftn(psi)
        kin_term = np.vdot(psi_hat, kin * psi_hat) / psi.size
        energy += float(np.real(kin_term)) * dv
        energy += float(np.real(np.vdot(psi, v * psi))) * dv
    return energy


def relative_phase(field: SpinorField) -> float:
    """arg of the overlap integral <Psi_+ | Psi_->."""
    overlap = np.vdot(field.psi_plus, field.psi_minus)
    return float(np.angle(overlap))


def gaussian_packet(grid: SpatialGrid, center=0.0, width=1.0, momentum=0.0):
    """Normalized Gaussian on the grid (1D helper for tests and demos)."""
    (x,) = grid.coordinates() if grid.dimension == 1 else (None,)
    if x is None:
        raise ValueError("gaussian_packet is 1D only")
    psi = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * momentum * x)
    return psi.astype(complex)


def snapshot_rows(field: SpinorField, stride: int = 1):
    """(x, |psi_+|^2, |psi_-|^2, S_+, S_-) rows for export (1D)."""
    if field.grid.dimension != 1:
        raise ValueError("snapshot export is 1D only")
    deco = madelung(field)
    x = field.grid.axis()
    rows = []
    for i in range(0, field.grid.nodes, stride):
        rows.append(
            (
                float(x[i]),
                float(deco.rho_plus[i]),
                float(deco.rho_minus[i]),
                float(deco.s_plus[i]),
                float(deco.s_minus[i]),
            )
        )
    return rows
