"""Orientation densities of the intrinsic angular momentum.

The polar angle theta between the angular momentum and the field axis
carries a family of stationary densities  p_m(theta) = cos^{2m}(theta)/Z_m
on [0, pi], indexed by a non-negative integer order m (m = 0 is the
uniform, field-free case).  `total_action` evaluates the model's action
functional, a precession energy term plus a relative-entropy penalty
(Tsallis or Renyi of order alpha = 1 + 1/(2m), or Kullback-Leibler);
`variational_solve` returns the closed-form density of each divergence,
cos^{2m}(theta)/Z_m for Tsallis and Renyi and an exponential of
cos(theta) for Kullback-Leibler, without solving a stationarity condition.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

import numpy as np

from .streams import BLOCK, _run_blocks

_NORM_TOL = 1e-10


# ---------------------------------------------------------------------------
# density representations


@dataclass(frozen=True)
class GridDensity:
    """Non-negative density on a uniform theta grid over [0, pi].

    Integration uses the composite trapezoid rule on the stored grid.
    """

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if thetas.shape != values.shape or thetas.ndim != 1:
            raise ValueError("thetas and values must be matching 1-d arrays")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be non-negative")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)
        if abs(self.integral() - 1.0) > _NORM_TOL:
            raise ValueError(
                f"grid density not normalized: integral={self.integral()!r}"
            )

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.thetas))

    def expectation(self, f) -> float:
        """Trapezoid integral of f(theta) against the density."""
        return float(np.trapezoid(self.values * f(self.thetas), self.thetas))

    @staticmethod
    def from_unnormalized(thetas, values) -> "GridDensity":
        z = np.trapezoid(values, thetas)
        if z <= 0:
            raise ValueError("cannot normalize a density with zero mass")
        return GridDensity(thetas, values / z)


@dataclass(frozen=True)
class TwoPointDensity:
    """Quantized limit: all mass at theta = 0 (up) and theta = pi (down)."""

    weight_up: float
    weight_down: float

    def __post_init__(self):
        if not (0.0 <= self.weight_up <= 1.0 and 0.0 <= self.weight_down <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(self.weight_up + self.weight_down - 1.0) > _NORM_TOL:
            raise ValueError("weights must sum to 1")


def theta_grid(n_nodes: int) -> np.ndarray:
    return np.linspace(0.0, np.pi, n_nodes)


# ---------------------------------------------------------------------------
# the cos^{2m} family


def _require_order(m) -> None:
    """The order m of the family is a whole number >= 0, and small enough
    that the Gamma shape m + 1/2 of `sample_theta` is exact in a float."""
    if isinstance(m, bool) or not (isinstance(m, numbers.Integral) and 0 <= m < 2**52):
        raise ValueError(
            f"m must be non-negative and a whole number below 2**52, got {m!r}"
        )


def normalization_constant(m: int) -> float:
    """Z_m = integral of cos^{2m}(theta) over [0, pi] = sqrt(pi) Gamma(m + 1/2) / m!.

    Below m = 100 by the Wallis product pi * prod_{k=1}^{m} (2k - 1) / (2k);
    from there in O(1) by the asymptotic series of Gamma(m + 1/2) / m!, whose
    first omitted term is below 2e-17 relative at m = 100 (math.lgamma
    differences lose ~1e-9 at m = 1e6).
    """
    _require_order(m)
    if m < 100:
        return math.pi * math.prod((2 * k - 1) / (2 * k) for k in range(1, m + 1))
    t = 1.0 / m
    series = 1.0 + t * (-1 / 8 + t * (1 / 128 + t * (5 / 1024 + t * (
        -21 / 32768 + t * (-399 / 262144 + t * (869 / 4194304))))))
    return math.sqrt(math.pi / m) * series


def eval_density(m: int, theta) -> np.ndarray:
    """p_m(theta) = cos^{2m}(theta) / Z_m; the uniform 1/pi for m = 0."""
    z_m = normalization_constant(m)
    return np.cos(np.asarray(theta, dtype=float)) ** (2 * m) / z_m


def closed_form_density(m: int, n_nodes: int) -> GridDensity:
    thetas = theta_grid(n_nodes)
    return GridDensity.from_unnormalized(thetas, eval_density(m, thetas))


def _gamma_normal(m: int, rng: np.random.Generator, size, transform):
    """An array of the given size (a scalar if None) turned in place, block
    by block, by transform(g, z): g holds the block's G ~ Gamma(m + 1/2) and
    z its Z ~ N(0, 1), drawn from the block's child in that order, z into
    one reused array on each thread.

    cos^2(theta) = G / (G + Z^2 / 2) ~ Beta(m + 1/2, 1/2), the law of
    cos^2(theta) under p_m, since B(m + 1/2, 1/2) = Z_m (Devroye 1986,
    ch. IX); the sign of Z, independent of Z^2, picks the hemisphere.
    """
    _require_order(m)
    out = np.empty(() if size is None else size)
    flat = out.reshape(-1)

    def kernel(blocks):
        z = np.empty(min(BLOCK, flat.size))
        for child, start, stop in blocks:
            g = flat[start:stop]
            child.standard_gamma(m + 0.5, out=g)
            yield transform(g, child.standard_normal(out=z[:stop - start]))

    _run_blocks(rng, flat.size, kernel)
    return out[()]


def _theta(g, z) -> None:
    """theta = arctan2(|Z|, sign(Z) sqrt(2 G)), into g; z is overwritten."""
    g *= 2.0
    np.sqrt(g, out=g)
    np.copysign(g, z, out=g)
    np.abs(z, out=z)
    np.arctan2(z, g, out=g)


def _cos_theta(g, z) -> None:
    """cos(theta) = sign(Z) sqrt(G / (G + Z^2 / 2)), into g; z is overwritten.

    The sign of Z is kept in g while z turns into sign(Z) (G + Z^2 / 2), so
    no third array is needed; rounding is symmetric in sign, so every bit is
    that of the formula.
    """
    np.copysign(g, z, out=g)
    z *= z
    z *= 0.5
    np.copysign(z, g, out=z)
    z += g
    g /= z
    np.sqrt(g, out=g)
    np.copysign(g, z, out=g)


def sample_theta(m: int, rng: np.random.Generator, size):
    """Draw theta ~ p_m exactly, for any order m >= 0.

    arctan2(|Z|, sign(Z) sqrt(2 G)), computed in place one block at a time;
    arctan2 keeps the angle's full resolution near the poles, where the mass
    sits at large m.
    """
    return _gamma_normal(m, rng, size, _theta)


def sample_cos_theta(m: int, rng: np.random.Generator, size):
    """cos(theta) for theta ~ p_m, from the same draws as `sample_theta`.

    sign(Z) sqrt(G / (G + Z^2 / 2)), computed in place one block at a time
    with no scratch beyond Z, so neither arctan2 nor cos is evaluated.
    """
    return _gamma_normal(m, rng, size, _cos_theta)


# ---------------------------------------------------------------------------
# action functional


TSALLIS = "tsallis"
RENYI = "renyi"
KULLBACK_LEIBLER = "kl"

_DIVERGENCES = (TSALLIS, RENYI, KULLBACK_LEIBLER)


@dataclass(frozen=True)
class ActionSpec:
    """Parameters of the orientation action functional.

    g_s is the gyromagnetic factor, L_s the angular-momentum magnitude
    (hbar/2 = 1/2 by default), delta_phi the precession-angle window.  The
    stationary family is independent of delta_phi, which therefore
    defaults to 1.
    """

    g_s: float = 2.0
    L_s: float = 0.5
    delta_phi: float = 1.0
    divergence: str = TSALLIS
    m: int = 1

    def __post_init__(self):
        if not math.isfinite(self.g_s):
            raise ValueError("g_s must be finite")
        if not 0 < self.delta_phi < math.inf:
            raise ValueError("delta_phi must be positive and finite")
        if not 0 < self.L_s < math.inf:
            raise ValueError("L_s must be positive and finite")
        if self.divergence not in _DIVERGENCES:
            raise ValueError(f"divergence must be one of {_DIVERGENCES}")
        _require_order(self.m)
        if self.m < 1:
            raise ValueError(f"the action's order m must be >= 1, got {self.m!r}")

    @property
    def alpha(self) -> float:
        """1 + 1/(2m); Tsallis and Renyi, which read it, have m >= 1."""
        return 1.0 + 1.0 / (2 * self.m)


def divergence_term(density: GridDensity, spec: ActionSpec) -> float:
    """Information metric I_f of the density against the uniform s = 1/pi.

    Tsallis: ( dphi * int p^a / s^(a-1) - 1 ) / (a - 1)
    Renyi:   ln( dphi * int p^a / s^(a-1) ) / (a - 1)
    K-L:     dphi * int p ln(p / s)
    """
    thetas, p = density.thetas, density.values
    sigma = 1.0 / np.pi
    if spec.divergence == KULLBACK_LEIBLER:
        mask = p > 0
        integrand = np.zeros_like(p)
        integrand[mask] = p[mask] * np.log(p[mask] / sigma)
        return spec.delta_phi * float(np.trapezoid(integrand, thetas))
    a = spec.alpha
    f = spec.delta_phi * float(np.trapezoid(p**a / sigma ** (a - 1.0), thetas))
    if spec.divergence == TSALLIS:
        return (f - 1.0) / (a - 1.0)
    return np.log(f) / (a - 1.0)


def total_action(density: GridDensity, spec: ActionSpec) -> float:
    """A_t = -(1/2) g_s L_s dphi <cos theta> + (1/2) I_f."""
    classical = (
        -0.5 * spec.g_s * spec.L_s * spec.delta_phi * density.expectation(np.cos)
    )
    return classical + 0.5 * divergence_term(density, spec)


def variational_solve(spec: ActionSpec, n_nodes: int) -> GridDensity:
    """The closed-form density of the spec's divergence, normalized on the grid.

    Tsallis and Renyi of order m give cos^{2m}(theta)/Z_m, the
    `closed_form_density`; Kullback-Leibler gives the strictly positive
    exp(g_s L_s cos theta).  No stationarity condition is solved.
    """
    if spec.divergence != KULLBACK_LEIBLER:
        return closed_form_density(spec.m, n_nodes)
    thetas = theta_grid(n_nodes)
    return GridDensity.from_unnormalized(
        thetas, np.exp(spec.g_s * spec.L_s * np.cos(thetas))
    )


def limit_density(initial: GridDensity) -> TwoPointDensity:
    """Collapse a grid density to its halved-sphere two-point weights."""
    thetas, values = initial.thetas, initial.values
    up_mask = thetas <= np.pi / 2
    w_up = float(np.trapezoid(values[up_mask], thetas[up_mask]))
    w_down = initial.integral() - w_up
    total = w_up + w_down
    return TwoPointDensity(w_up / total, w_down / total)
