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

import numpy as np

from .streams import BLOCK, _require_int, _require_real, _run_blocks

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
    """The order m of the family is an int >= 0, and small enough
    that m + 1/2, the power of cos^2(theta) in a displacement, is exact in a
    float."""
    _require_int("m", m, 0, 2**52 - 1)


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


def _sin2_block(m: int, child: np.random.Generator, s, c, cos2=None) -> None:
    """One block of theta ~ p_m from child, two uniforms per value: V into
    c, then U into s (none at m = 0).  Turned in place into
    s = -sign(t) sin^2(theta), a signed zero where sin^2(theta) = 0, and
    c = 1 + t^2, and, if given, cos2 = cos^2(theta); s, c and cos2 are of
    one size.

    sin^2(theta) ~ Beta(1/2, m + 1/2) = Beta(1/2, 1/2) Beta(1, m), the law
    of sin^2(theta) under p_m (Devroye 1986, ch. IX): with
    t = tan(pi (1 - 2V) / 2), A = t^2 / (1 + t^2) is the arcsine factor, and
    W = 1 - (1 - U)^{1/m} = -expm1(log1p(-U) / m) the Beta(1, m) one (W = 1
    at m = 0).  cos^2(theta) = 1 / (1 + t^2) + A (1 - U)^{1/m} adds
    non-negative terms, so neither square loses its small values to
    cancellation.  The sign of -t, that of 2V - 1 since 1 - 2V is exact and
    tan is odd, is independent of |t| and picks the hemisphere.
    """
    child.random(out=c)
    # pi (1/2 - V) = pi (1 - 2V) / 2 bit for bit; 1/2 - V is +0 at V = 1/2
    np.subtract(0.5, c, out=c)
    c *= np.pi
    np.tan(c, out=c)
    if m:
        child.random(out=s)
        np.negative(s, out=s)
        np.log1p(s, out=s)
        s /= m
        if cos2 is not None:
            np.exp(s, out=cos2)
        np.expm1(s, out=s)  # -W
    else:
        s.fill(-1.0)
        if cos2 is not None:
            cos2.fill(0.0)
    s *= c  # -W t
    np.abs(c, out=c)
    s *= c
    c *= c
    if cos2 is not None:
        cos2 *= c
    c += 1.0
    s /= c
    if cos2 is not None:
        cos2 += 1.0
        cos2 /= c


def sample_theta(m: int, rng: np.random.Generator, size):
    """Draw theta ~ p_m exactly, for any order m >= 0.

    arctan2(|sin(theta)|, cos(theta)) of the roots of `_sin2_block`'s
    squares, computed in place one block at a time; arctan2 keeps the
    angle's full resolution near the poles, where the mass sits at large m.
    """
    _require_order(m)
    out = np.empty(() if size is None else size)
    flat = out.reshape(-1)

    def kernel(blocks):
        scratch = np.empty((2, min(BLOCK, flat.size)))
        for child, start, stop in blocks:
            s, c = scratch[:, :stop - start]
            theta = flat[start:stop]
            _sin2_block(m, child, s, c, theta)
            np.sqrt(theta, out=theta)
            np.copysign(theta, s, out=theta)
            np.abs(s, out=s)
            np.sqrt(s, out=s)
            np.arctan2(s, theta, out=theta)

    _run_blocks(rng, flat.size, kernel)
    return out[()]


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
        _require_real("g_s", self.g_s)
        _require_real("delta_phi", self.delta_phi, 0.0, open_low=True)
        _require_real("L_s", self.L_s, 0.0, open_low=True)
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
    """Collapse a grid density to its halved-sphere two-point weights.

    The up weight is the trapezoid integral over [0, pi/2]: over the nodes
    up to pi/2 and, on an even grid, over the part below pi/2 of the panel
    that straddles it, under the trapezoid's linear interpolant.
    """
    thetas, values = initial.thetas, initial.values
    k = int(np.searchsorted(thetas, np.pi / 2, side="right"))  # nodes <= pi/2
    w_up = float(np.trapezoid(values[:k], thetas[:k]))
    if 0 < k < thetas.size:  # panel k - 1 ends past pi/2; a node at pi/2 adds 0
        panel = slice(k - 1, k + 1)
        middle = np.interp(np.pi / 2, thetas[panel], values[panel])
        w_up += float(np.trapezoid([values[k - 1], middle], [thetas[k - 1], np.pi / 2]))
    w_down = initial.integral() - w_up
    total = w_up + w_down
    return TwoPointDensity(w_up / total, w_down / total)
