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
from functools import lru_cache

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
    # u = |N(0, 1/2 m omega)|, but only u**2 enters and the sign does not
    # change it, so the draws are squared and scaled in place as they come:
    # one pass less and no n-sized temporary
    u = rng.normal(0.0, params.radius_scale, n)
    u *= u
    u *= params.mass * params.omega
    return float(np.mean(u))


# ---------------------------------------------------------------------------
# Fisher-functional limit


def fisher_functional(x, rho, params: TranslationParams) -> float:
    """(1/4m) int (grad rho)^2 / rho dx, per unit time."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("density must be strictly positive")
    grad = np.gradient(rho, x)
    return float(1.0 / (4.0 * params.mass) * np.trapezoid(grad**2 / rho, x))


def _he_ratios(x, n: int):
    """The orthonormal He recurrence sqrt(i+1) p_{i+1} = x p_i - sqrt(i) p_{i-1}
    at each x > 0, carried as ratios r_i = p_i / p_{i-1} so that nothing
    overflows.  Returns (count, r_n, log|p_{n-1}|): count is the number of
    roots of He_n below x, the Sturm count of its Jacobi matrix (diagonal 0,
    off-diagonal sqrt(i)), whose sequence is -sqrt(i) r_i.  A ratio of +0 (x a
    root of p_i; x > 0 rules out -0) counts once, the -inf after it not."""
    count = np.zeros(x.shape, dtype=np.intp)
    log_p = np.zeros_like(x)
    r = x.copy()
    for i in range(1, n):
        count += r >= 0.0
        log_p += np.log(np.abs(r))
        r = (x - math.sqrt(i) / r) / math.sqrt(i + 1)
    count += r >= 0.0
    return count, r, log_p


@lru_cache(maxsize=None)
def _gauss_hermite(n: int):
    """Nodes and weights of the n-node probabilists' Gauss-Hermite rule for the
    unit-mass weight e^{-x^2/2} / sqrt(2 pi), as read-only arrays.

    The nodes are the roots of He_n, symmetric about 0, so only the h = n // 2
    positive ones are found: bisection on the Sturm count brackets root k
    alone in [0, 2 sqrt(n - 1)] (Gershgorin), then Newton steps
    x -= p_n / p_n' = r_n / sqrt(n) finish it, each kept inside its bracket.
    A node's weight is 1 / (n p_{n-1}(x)^2), taken through log|p_{n-1}| so
    that it underflows to 0 rather than overflowing; for odd n the node 0
    has the exact weight 2^{n-1} / (n C(n-1, (n-1)/2)).  No LAPACK call: its
    eigensolver maps ~1.3 MiB on first use.
    """
    h = n // 2
    k = np.arange(n - h, n)  # index of each positive root among all n
    lo, count_lo = np.zeros(h), np.full(h, n - h)
    hi, count_hi = np.full(h, 2.0 * math.sqrt(n - 1)), np.full(h, n)
    x = 0.5 * hi
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            count, r = _he_ratios(x, n)[:2]
            step = r / math.sqrt(n)
            below = count > k  # root k lies below x
            hi, count_hi = np.where(below, x, hi), np.where(below, count, count_hi)
            lo, count_lo = np.where(below, lo, x), np.where(below, count_lo, count)
            alone = count_hi - count_lo == 1  # count_lo <= k < count_hi
            if alone.all() and np.all(np.abs(step) <= 1e-12 * x):
                break
            newton = x - step
            inside = alone & (lo <= newton) & (newton <= hi)
            x = np.where(inside, newton, 0.5 * (lo + hi))
        else:
            raise RuntimeError(f"Gauss-Hermite nodes for n = {n} did not converge")
        x = x - step  # quadratically small: x is now exact to rounding
        weights = np.exp(-2.0 * _he_ratios(x, n)[2]) / n
    middle = [] if n % 2 == 0 else [2 ** (n - 1) / (n * math.comb(n - 1, n // 2))]
    nodes = np.concatenate((-x[::-1], [0.0] * len(middle), x))
    weights = np.concatenate((weights[::-1], middle, weights))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
    The average over w is an n_shifts-node probabilists' Gauss-Hermite rule
    (`_gauss_hermite`, built once per n_shifts), so it is deterministic;
    32 nodes reach the grid's interpolation error.
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
    nodes, weights = _gauss_hermite(int(n_shifts))
    w = math.sqrt(params.component_variance) * nodes
    s = np.interp(x + w[:, None], x, rho, left=rho[0], right=rho[-1])
    # log rho(x) - log rho(x + w) per element, before the weighted sum, so two
    # summed totals never cancel; einsum, not BLAS, as in uncertainty_product
    np.log(s, out=s)
    np.subtract(np.log(rho), s, out=s)
    return float(np.trapezoid(rho * np.einsum("i,ij->j", weights, s), x)) / params.dt
