"""Single-electron Stern-Gerlach measurement simulation.

Covers the quantized two-outcome regime (strong gradient, order m -> inf),
the rotated second-apparatus statistics, and the weak-gradient regime
where the beam displacement stays continuous because the orientation
density has not collapsed to the poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orientation import (
    GridDensity,
    TwoPointDensity,
    _require_order,
    _sin2_block,
    normalization_constant,
)
from .streams import (
    BLOCK, MAX_DRAWS, _require_count, _require_normal, _require_real, _run_blocks, _spans
)

UP = +1
DOWN = -1


@dataclass(frozen=True)
class ApparatusConfig:
    """Field gradient and order of one Stern-Gerlach apparatus, crossed in
    the unit transit time: the displacement scale eta T^2 / (4 Z_m) has one
    degree of freedom, eta."""

    gradient: float = 1.0
    m: int = 1

    def __post_init__(self):
        _require_real("gradient", self.gradient, 0.0, open_low=True)
        _require_order(self.m)


def measure_many(density: TwoPointDensity, rng: np.random.Generator, n: int):
    """Vectorized outcomes (+1/-1) for n independent measurements."""
    n = _require_count("n", n)
    return np.where(rng.random(n) < density.weight_up, UP, DOWN)


def up_count(density: TwoPointDensity, rng: np.random.Generator, n: int) -> int:
    """The number of UP outcomes among n independent measurements, drawn as
    one binomial variate: the exact law of the count of `measure_many`'s
    UPs, with no n-sized array."""
    n = _require_count("n", n, high=MAX_DRAWS)
    return int(rng.binomial(n, density.weight_up))


def conditional_density(prior: GridDensity, m: int) -> GridDensity:
    """Post-apparatus density proportional to prior(theta) * cos^{2m}(theta).

    The prior is expressed in the apparatus frame; any tilt between the
    first and second apparatus is the caller's frame shift.
    """
    _require_order(m)
    weights = prior.values * np.cos(prior.thetas) ** (2 * m)
    return GridDensity.from_unnormalized(prior.thetas, weights)


def two_apparatus_up_probability(beta1: float, beta2: float) -> float:
    """Up-probability when the apparatuses are tilted by beta1, beta2."""
    return math.cos((beta2 - beta1) / 2.0) ** 2


# ---------------------------------------------------------------------------
# weak-gradient displacement regime


def displacement(theta, m: int, eta: float):
    """Screen displacement (eta / 4 Z_m) cos^{2m+1}(theta), in the unit
    transit time."""
    _require_real("eta", eta, 0.0, open_low=True)
    prefactor = eta / (4.0 * normalization_constant(m))
    if prefactor == math.inf:
        raise ValueError(f"eta: displacement scale overflows at eta = {eta!r}")
    return prefactor * np.cos(theta) ** (2 * m + 1)


def _log_fraction(z, k: float):
    """log(|z| / k) for |z| <= k, -inf at z = 0.  From k/2 up it is
    log1p((|z| - k) / k), since |z| - k is exact there (Sterbenz) and a
    rounded |z| / k would lose the distance from the edge k."""
    a = np.abs(z)
    with np.errstate(divide="ignore"):  # log(0) = log1p(-1) = -inf
        return np.where(a >= 0.5 * k, np.log1p((a - k) / k), np.log(a / k))


def displacement_density(z, m: int, eta: float):
    """Analytic pushforward density of the displacement under theta ~ p_m.

    With x = cos(theta) and dz_max the displacement scale, the map
    z = dz_max * x^{2m+1} is monotone, so the density follows from a
    change of variables; used as the independent oracle for the sampled
    histogram.  1 - x^2 is taken as -expm1(2 log|z / dz_max| / (2m + 1)),
    which keeps its small values where x^2 rounds to 1 at large m.
    """
    k = displacement(0.0, m, eta)
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < k
    z_m = normalization_constant(m)
    sin2 = -np.expm1(2.0 * _log_fraction(z[inside], k) / (2 * m + 1))
    out[inside] = 1.0 / (z_m * k * (2 * m + 1) * np.sqrt(sin2))
    return out


def _scale_and_edges(config: ApparatusConfig, bins):
    """(k, edges): the displacement scale k of config and np.histogram's
    bins + 1 evenly spaced edges of [-k, k], if the bin width 2k/bins is a
    normal float."""
    bins = _require_count("bins", bins)
    k = displacement(0.0, config.m, config.gradient)
    # numpy widens a zero range, rejects an infinite one and gives bins of
    # subnormal width infinite densities; k itself is finite
    _require_normal(f"eta: the bin width 2k / {bins} at displacement scale k = {k:g}",
                    2.0 * float(k) / bins)
    return k, np.linspace(-k, k, bins + 1)


def displacement_distribution(
    m: int,
    config: ApparatusConfig,
    n_samples: int,
    rng: np.random.Generator,
):
    """Sample the continuous displacement distribution of the weak regime.

    Returns (samples, bin_edges, counts), in 200 bins: the counts are
    np.histogram's of the samples.  m must equal config.m, and the bin
    width 2k/200, with k the displacement scale, a normal float.  Each
    block is drawn by `_sin2_block`, on two threads by the `streams` rule,
    and binned where it is drawn.  k |cos(theta)|^{2m+1}
    = k exp((m + 1/2) log1p(-sin^2(theta))) keeps the displacement's
    precision at every order m >= 1: cos(theta) lies within ~1/m of 1,
    where float64 has too few bits for its power 2m + 1 from m ~ 1e11.  At
    m = 0, where 1 - sin^2(theta) would cancel near pi/2, |cos(theta)| is
    1 / sqrt(1 + t^2).  Each thread sums the counts of the blocks it draws.
    """
    if m != config.m:
        raise ValueError(f"m = {m!r} disagrees with config.m = {config.m!r}")
    n_samples = _require_count("n_samples", n_samples)
    k, edges = _scale_and_edges(config, 200)
    dz = np.empty(n_samples)

    def kernel(blocks):
        s = np.empty(min(BLOCK, n_samples))
        counts = np.zeros(edges.size - 1, np.intp)
        for child, start, stop in blocks:
            sin2, out = s[:stop - start], dz[start:stop]
            _sin2_block(m, child, sin2, out)
            if m:
                np.copysign(sin2, -1.0, out=out)
                with np.errstate(divide="ignore"):  # -inf if sin^2 rounds to 1
                    np.log1p(out, out=out)
                out *= m + 0.5
                np.exp(out, out=out)
                out *= k
            else:  # k / sqrt(1 + t^2), which keeps the small |cos(theta)|
                np.sqrt(out, out=out)
                np.divide(k, out, out=out)
            np.copysign(out, sin2, out=out)
            counts += np.histogram(out, edges)[0]
        return counts

    return dz, edges, sum(_run_blocks(rng, n_samples, kernel))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes and weights of the n-node Gauss-Legendre rule on [0, 1], as
    read-only arrays: the roots x of P_n by Newton steps on the Legendre
    recurrence from their estimates cos(pi (i + 3/4) / (n + 1/2)), and the
    weights 1 / ((1 - x^2) P_n'(x)^2).  No LAPACK call, as in
    `fluctuations._gauss_hermite`."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):  # quadratic from these estimates: rounding in ~4 steps
        p_before, p = np.ones(n), x
        for j in range(2, n + 1):
            p_before, p = p, ((2 * j - 1) * x * p - (j - 1) * p_before) / j
        slope = n * (x * p - p_before) / (x * x - 1.0)
        x = x - p / slope
    nodes, weights = 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * slope**2)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _bin_law(m: int, edges):
    """The probability of each bin of the evenly spaced edges of [-k, k]
    under theta ~ p_m: the exact law of the bin of one displacement.

    In v = sqrt(-log(|z| / k)) the displacements of either sign have the
    density f(v) = 2 v e^{-v^2} / ((2m + 1) Z_m sqrt(-expm1(-2 v^2 / (2m + 1)))),
    smooth and finite at every order, of mass 1/2 over v >= 0.  So
    P(z <= edge) is f's outer mass from v = 0 to the edge's v below 0, 1/2
    at 0, and one minus that above 0.  Each gap between two edges of one
    sign takes a 24-node `_gauss_legendre` rule, in spans of gaps, so that
    no gaps x nodes array is held.
    """
    nodes, weights = _gauss_legendre(24)
    a = 2.0 / (2 * m + 1)

    def outer(v):  # f's integral from v[0] = 0 to each of the increasing v
        gaps = np.empty(v.size - 1)
        for start, stop in _spans(gaps.size, BLOCK // nodes.size):
            width = np.diff(v[start:stop + 1])
            x = v[start:stop] + width * nodes[:, None]
            f = x * np.exp(-x * x) / np.sqrt(-np.expm1(-a * x * x))
            gaps[start:stop] = width * np.einsum("i,ij->j", weights, f)
        return a / normalization_constant(m) * np.concatenate(([0.0], np.cumsum(gaps)))

    v = np.sqrt(-_log_fraction(edges, edges[-1]))  # inf at an edge of 0
    cdf = np.full(edges.size, 0.5)
    cdf[edges < 0] = outer(v[edges < 0])
    cdf[edges > 0] = 1.0 - outer(v[edges > 0][::-1])[::-1]
    return np.diff(cdf)


def displacement_histogram(
    config: ApparatusConfig, n_samples: int, rng: np.random.Generator, bins: int
):
    """(bin_edges, counts) of n_samples displacements of the weak regime at
    order config.m.  The counts of n independent displacements are
    Multinomial(n, p), p being `_bin_law`, so they are one multinomial draw
    from rng, O(bins) work at any n_samples."""
    n_samples = _require_count("n_samples", n_samples, high=MAX_DRAWS)
    _, edges = _scale_and_edges(config, bins)
    return edges, rng.multinomial(n_samples, _bin_law(config.m, edges))


def histogram_rows(edges: np.ndarray, counts: np.ndarray):
    """(bin_left, bin_right, count, density) rows for CSV export."""
    n, widths = counts.sum(), np.diff(edges)
    with np.errstate(over="ignore"):
        scale = n * widths
    # n times a bin width can pass the float range at the top of eta (bins
    # ~6e305 wide at m = 1); the fractions n_i / n then divide by the width
    density = counts / scale if np.isfinite(scale).all() else counts / n / widths
    return list(zip(
        edges[:-1].tolist(), edges[1:].tolist(), counts.tolist(), density.tolist()
    ))
