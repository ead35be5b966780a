"""Vacuum-fluctuation models behind the spin magnitude and uncertainty.

In natural units (hbar = 1), translational fluctuations follow a Gaussian
transition kernel whose per-component variance dt / 2m reproduces
<dx dp> = 1/2.  The rotational model takes the radius u of random circular
motion as |N(0, 1 / 2 m omega)|, so m omega u^2 averages to <L_s> = 1/2
independent of mass and frequency.  Each Monte Carlo average is a weight
times the mean of squared normals, drawn as one variate of that mean's
exact law.  The Kullback-Leibler metric, averaged over the shift by
Gauss-Hermite quadrature, converges to (1/4m) int (grad rho)^2 / rho as
dt -> 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .streams import BLOCK, _require_count, _run_blocks, _spans


def _require_normal(what: str, *scales):
    """Raise, saying `what` the scales are, unless each is a positive normal
    float: one that overflowed to inf or fell below 2**-1022 turned the
    estimates into NaN, inf or 0."""
    if not all(sys.float_info.min <= s <= sys.float_info.max for s in scales):
        got = " and ".join(map(repr, scales))
        raise ValueError(f"{what} must be positive normal floats, got {got}")


@dataclass(frozen=True)
class TranslationParams:
    mass: float = 1.0
    dt: float = 1.0

    def __post_init__(self):
        if not (0 < self.mass < math.inf and 0 < self.dt < math.inf):
            raise ValueError("all parameters must be positive and finite")
        _require_normal(
            "mass and dt: dt / (2 mass) and mass / dt",
            self.component_variance,
            self.mass / self.dt,
        )

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
        # m omega first: once it is normal, 1 / (2 m omega) divides by no 0
        weight = self.mass * self.omega
        _require_normal("mass and omega: mass * omega", weight)
        _require_normal("mass and omega: 1 / (2 mass omega)", 0.5 / weight)

    @property
    def radius_scale(self) -> float:
        """Standard deviation scale sqrt(1 / 2 m omega) of the radius."""
        return math.sqrt(1.0 / (2.0 * self.mass * self.omega))


# ---------------------------------------------------------------------------
# translational kernel


def sample_displacement(params: TranslationParams, rng: np.random.Generator, size):
    """`size` Gaussian displacement vectors, an array of shape (size, 3), with
    per-component variance dt/2m.  Its flat 3 size components are drawn by
    the block rule of `streams`."""
    out = np.empty((_require_count("size", size), 3))
    flat = out.reshape(-1)
    sd = math.sqrt(params.component_variance)

    def kernel(blocks):
        for child, start, stop in blocks:
            w = child.standard_normal(out=flat[start:stop])
            w *= sd

    _run_blocks(rng, flat.size, kernel)
    return out


def uncertainty_product(samples: np.ndarray, params: TranslationParams) -> float:
    """Estimate <dx_i dp_i> with p_i = m w_i / dt; expected 1/2."""
    w = np.asarray(samples, dtype=float)
    if w.ndim != 2 or w.shape[0] < 10**4:
        raise ValueError("need at least 1e4 displacement samples")
    return params.mass / params.dt * float(_square_sum(w.reshape(-1))) / w.size


def expected_uncertainty_product(
    params: TranslationParams, n: int, rng: np.random.Generator
) -> float:
    """Monte Carlo <dx_i dp_i> over n displacement vectors, expected 1/2:
    m / dt times the mean square of their 3n components, each of variance
    `component_variance`, the mean drawn by `_mean_of_squares`."""
    mean = _mean_of_squares(3 * _require_count("n", n), rng)
    return params.mass / params.dt * params.component_variance * mean


def _square_sum(v):
    """The sum of the squares of the flat array v: einsum rather than a BLAS
    dot, whose threads keep spinning after the call, and without the
    temporaries of v * v."""
    return np.einsum("i,i->", v, v)


def _mean_of_squares(count: int, rng: np.random.Generator) -> float:
    """The mean of `count` squared standard normals, drawn as one variate of
    its exact law chi^2_count / count = 2 Gamma(count / 2) / count."""
    return 2.0 * float(rng.standard_gamma(count / 2)) / count


# ---------------------------------------------------------------------------
# rotational model


def expected_angular_momentum(
    params: RotationParams, n: int, rng: np.random.Generator
) -> float:
    """Monte Carlo <m omega u^2> over n radii u = |N(0, 1/2 m omega)|; 1/2
    for any (m, omega).  Only u^2 enters, so the mean is m omega
    `radius_scale`^2 times the mean of n squared standard normals, drawn by
    `_mean_of_squares`."""
    weight = params.mass * params.omega
    mean = _mean_of_squares(_require_count("n", n), rng)
    return weight * params.radius_scale**2 * mean


# ---------------------------------------------------------------------------
# Fisher-functional limit


def _require_grid(x, rho):
    """x and rho as float arrays, if they are a 1-D grid and a density on it."""
    x, rho = np.asarray(x, dtype=float), np.asarray(rho, dtype=float)
    if x.ndim != 1 or x.size < 2 or rho.shape != x.shape:
        raise ValueError(f"x, rho must be 1-D, one length >= 2: {x.shape}, {rho.shape}")
    # a NaN fails every comparison, and an inf inside a rising x fails one
    if not (math.isfinite(x[0]) and math.isfinite(x[-1]) and (x[1:] > x[:-1]).all()):
        raise ValueError("x must be finite and strictly increasing")
    if not 0 < rho.min() <= rho.max() < math.inf:
        raise ValueError("rho must be finite and strictly positive")
    return x, rho


def fisher_functional(x, rho, params: TranslationParams) -> float:
    """(1/4m) int (grad rho)^2 / rho dx, per unit time."""
    x, rho = _require_grid(x, rho)
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
    n_shifts = _require_count("n_shifts", n_shifts)
    x, rho = _require_grid(x, rho)
    nodes, weights = _gauss_hermite(n_shifts)
    w = math.sqrt(params.component_variance) * nodes
    left, right, log_rho = rho[0], rho[-1], np.log(rho)
    # per node, sum_i weight_i (log rho(x) - log rho(x + w_i)): the difference
    # is taken per element, before the weighted sum, so two summed totals
    # never cancel.  The nodes go in blocks of about `BLOCK` shifted values,
    # so no n_shifts x nodes scratch is held; einsum, not BLAS, as in
    # uncertainty_product
    divergence = np.empty_like(x)
    for start, stop in _spans(x.size, max(1, BLOCK // n_shifts)):
        part = slice(start, stop)
        s = np.interp(x[part] + w[:, None], x, rho, left=left, right=right)
        np.log(s, out=s)
        np.subtract(log_rho[part], s, out=s)
        np.einsum("i,ij->j", weights, s, out=divergence[part])
    return float(np.trapezoid(rho * divergence, x)) / params.dt
