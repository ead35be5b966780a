"""Vacuum-fluctuation models behind the spin magnitude and uncertainty.

In natural units (hbar = 1), translational fluctuations follow a Gaussian
transition kernel whose per-component variance dt / 2m reproduces
<dx dp> = 1/2.  The rotational model samples the radius u of random
circular motion as |N(0, 1 / 2 m omega)|, so the Monte Carlo average of
m omega u^2 lands on <L_s> = 1/2 independent of mass and frequency.
The Kullback-Leibler metric, averaged over the shift by Gauss-Hermite
quadrature, converges to (1/4m) int (grad rho)^2 / rho as dt -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TranslationParams:
    mass: float = 1.0
    dt: float = 1.0

    def __post_init__(self):
        if not (0 < self.mass < math.inf and 0 < self.dt < math.inf):
            raise ValueError("all parameters must be positive and finite")

    @property
    def component_variance(self) -> float:
        return self.dt / (2.0 * self.mass)


@dataclass(frozen=True)
class RotationParams:
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if not (0 < self.mass < math.inf and 0 < self.omega < math.inf):
            raise ValueError("all parameters must be positive and finite")

    @property
    def radius_scale(self) -> float:
        """Standard deviation scale sqrt(1 / 2 m omega) of the radius."""
        return math.sqrt(1.0 / (2.0 * self.mass * self.omega))


# ---------------------------------------------------------------------------
# translational kernel


def sample_displacement(params: TranslationParams, rng: np.random.Generator, size):
    """`size` Gaussian displacement vectors, an array of shape (size, 3), with
    per-component variance dt/2m."""
    return rng.normal(0.0, math.sqrt(params.component_variance), (int(size), 3))


def uncertainty_product(samples: np.ndarray, params: TranslationParams) -> float:
    """Estimate <dx_i dp_i> with p_i = m w_i / dt; expected 1/2."""
    w = np.asarray(samples, dtype=float)
    if w.ndim != 2 or w.shape[0] < 10**4:
        raise ValueError("need at least 1e4 displacement samples")
    # sum of w_i^2 without the two n x 3 temporaries of w * (m w / dt); einsum
    # rather than a BLAS dot, whose threads keep spinning after the call
    return params.mass / params.dt * float(np.einsum("ij,ij->", w, w)) / w.size


# ---------------------------------------------------------------------------
# rotational model


def expected_angular_momentum(
    params: RotationParams, n: int, rng: np.random.Generator
) -> float:
    """Monte Carlo <m omega u^2>; 1/2 for any (m, omega)."""
    if n < 10**4:
        raise ValueError("need at least 1e4 samples")
    u = np.abs(rng.normal(0.0, params.radius_scale, n))
    return float(np.mean(params.mass * params.omega * u**2))


# ---------------------------------------------------------------------------
# Fisher-functional limit


def fisher_functional(x, rho, params: TranslationParams) -> float:
    """(1/4m) int (grad rho)^2 / rho dx, per unit time."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("density must be strictly positive")
    grad = np.gradient(rho, x)
    return float(1.0 / (4.0 * params.mass) * np.trapezoid(grad**2 / rho, x))


def kl_shift_rate(
    x,
    rho,
    params: TranslationParams,
    rng: np.random.Generator | None = None,
    n_shifts: int = 32,
) -> float:
    """Average KL divergence between rho and its fluctuation-shifted copy,
    per unit time: <D_KL(rho(x) || rho(x+w))>_w / dt with w ~ the
    translational kernel (1D).  Converges to fisher_functional as dt -> 0.
    The average over w is an n_shifts-node probabilists' Gauss-Hermite rule,
    so it is deterministic; 32 nodes reach the grid's interpolation error.
    rng is unused, kept for callers that pass one.
    """
    if not (1 <= n_shifts < 2**63 and n_shifts % 1 == 0):  # int(inf) overflows
        raise ValueError(
            f"n_shifts must be a whole number in [1, 2**63), got {n_shifts!r}"
        )
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("density must be strictly positive")
    x = np.asarray(x, dtype=float)
    # Golub & Welsch (Math. Comp. 23, 1969): nodes are the eigenvalues of the
    # He_n Jacobi matrix, weights the squared first eigenvector components
    k = np.sqrt(np.arange(1.0, n_shifts))
    nodes, vectors = np.linalg.eigh(np.diag(k, 1) + np.diag(k, -1))
    weights = vectors[0] ** 2
    w = math.sqrt(params.component_variance) * nodes
    s = np.interp(x + w[:, None], x, rho, left=rho[0], right=rho[-1])
    # log rho(x) - log rho(x + w) per element, before the weighted sum, so two
    # summed totals never cancel; einsum, not BLAS, as in uncertainty_product
    np.log(s, out=s)
    np.subtract(np.log(rho), s, out=s)
    return float(np.trapezoid(rho * np.einsum("i,ij->j", weights, s), x)) / params.dt
