"""Single-electron Stern-Gerlach measurement simulation.

Covers the quantized two-outcome regime (strong gradient, order m -> inf),
the rotated second-apparatus statistics, and the weak-gradient regime
where the beam displacement stays continuous because the orientation
density has not collapsed to the poles.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .orientation import (
    GridDensity,
    TwoPointDensity,
    _require_order,
    _sin2_block,
    normalization_constant,
)
from .streams import BLOCK, _blocks, _require_count, _run_blocks

UP = +1
DOWN = -1


@dataclass(frozen=True)
class ApparatusConfig:
    """Field, transit time and order of one Stern-Gerlach apparatus."""

    gradient: float = 1.0
    transit_time: float = 1.0
    m: int = 1

    def __post_init__(self):
        if not 0 < self.gradient < math.inf:
            raise ValueError("gradient must be positive and finite")
        if not 0 < self.transit_time < math.inf:
            raise ValueError("transit_time must be positive and finite")
        _require_order(self.m)


def measure_many(density: TwoPointDensity, rng: np.random.Generator, n: int):
    """Vectorized outcomes (+1/-1) for n independent measurements."""
    n = _require_count("n", n)
    return np.where(rng.random(n) < density.weight_up, UP, DOWN)


def up_count(density: TwoPointDensity, rng: np.random.Generator, n: int) -> int:
    """The number of UP outcomes among n independent measurements, drawn as
    one binomial variate: the exact law of the count of `measure_many`'s
    UPs, with no n-sized array."""
    n = _require_count("n", n)
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


def displacement(theta, m: int, eta: float, transit_time: float):
    """Screen displacement (eta / 4 Z_m) dT^2 cos^{2m+1}(theta)."""
    if not (0 < eta < math.inf and 0 < transit_time < math.inf):
        raise ValueError("eta and transit_time must be positive and finite")
    z_m = normalization_constant(m)
    try:
        prefactor = eta / (4.0 * z_m) * transit_time**2
    except OverflowError:  # transit_time**2 beyond the float range
        prefactor = math.inf
    if prefactor == math.inf:
        raise ValueError("eta and transit_time: displacement scale overflows")
    return _odd_power(np.cos(theta), m, prefactor)


def _odd_power(c, m: int, scale: float):
    """scale * c**(2m+1), in place on the fresh float array c (returned, a
    scalar if c is one), one block of `BLOCK` values at a time by repeated
    squaring, each square taken in one reused block of scratch; a float
    power call costs ~10x more."""
    out = np.asarray(c, dtype=float, order="C")
    scratch = np.empty(min(BLOCK, out.size))
    for block in _blocks(out.reshape(-1)):
        square = np.multiply(block, block, out=scratch[:block.size])
        k = m
        while k:
            if k & 1:
                block *= square
            k >>= 1
            if k:
                square *= square
        block *= scale
    return out[()]


def displacement_density(z, m: int, eta: float, transit_time: float):
    """Analytic pushforward density of the displacement under theta ~ p_m.

    With x = cos(theta) and dz_max the displacement scale, the map
    z = dz_max * x^{2m+1} is monotone, so the density follows from a
    change of variables; used as the independent oracle for the sampled
    histogram.  1 - x^2 is taken as -expm1(2 log|z / dz_max| / (2m + 1)),
    which keeps its small values where x^2 rounds to 1 at large m.
    """
    k = displacement(0.0, m, eta, transit_time)
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < k
    with np.errstate(divide="ignore"):  # log(0) = -inf at z = 0, where x = 0
        log_frac = np.log(np.abs(z[inside]) / k)
    z_m = normalization_constant(m)
    sin2 = -np.expm1(2.0 * log_frac / (2 * m + 1))
    out[inside] = 1.0 / (z_m * k * (2 * m + 1) * np.sqrt(sin2))
    return out


def _scale_and_edges(config: ApparatusConfig, bins):
    """(k, edges): the displacement scale k of config and np.histogram's
    bins + 1 evenly spaced edges of [-k, k], if the bin width 2k/bins is a
    normal float."""
    bins = _require_count("bins", bins)
    k = displacement(0.0, config.m, config.gradient, config.transit_time)
    # numpy widens a zero range, rejects an infinite one and gives bins of
    # subnormal width infinite densities; k itself is finite
    width = 2.0 * float(k) / bins
    if not sys.float_info.min <= width <= sys.float_info.max:
        raise ValueError(
            f"eta and transit_time: displacement scale {k:g} gives bins of "
            f"width {width:g}, not a normal float"
        )
    return k, np.linspace(-k, k, bins + 1)


def _displacement_counts(m: int, k: float, edges, rng, n: int, out=None):
    """The counts, in the bins of edges, of n displacements
    k cos^{2m+1}(theta) for theta ~ p_m, each block drawn by `_sin2_block`
    and binned where it is drawn, on two threads by the `streams` rule.
    Block b's displacements go into out[start:stop] if out is given, else
    into a block of scratch.

    k |cos(theta)|^{2m+1} = k exp((m + 1/2) log1p(-sin^2(theta))) keeps the
    displacement's precision at every order m >= 1: cos(theta) lies within
    ~1/m of 1, where float64 has too few bits for its power 2m + 1 from
    m ~ 1e11.  At m = 0, where 1 - sin^2(theta) would cancel near pi/2,
    |cos(theta)| is 1 / sqrt(1 + t^2).
    """
    counts = np.zeros(edges.size - 1, dtype=np.intp)
    lock = threading.Lock()

    def kernel(blocks):
        size = min(BLOCK, n)
        s, index = np.empty(size), np.empty(size, dtype=np.intp)
        scratch = np.empty(size) if out is None else None
        for child, start, stop in blocks:
            sin2 = s[:stop - start]
            dz = scratch[:sin2.size] if out is None else out[start:stop]
            _sin2_block(m, child, sin2, dz)
            if m:
                np.abs(sin2, out=dz)
                np.negative(dz, out=dz)
                with np.errstate(divide="ignore"):  # -inf if sin^2 rounds to 1
                    np.log1p(dz, out=dz)
                dz *= m + 0.5
                np.exp(dz, out=dz)
                dz *= k
            else:  # k / sqrt(1 + t^2), which keeps the small |cos(theta)|
                np.sqrt(dz, out=dz)
                np.divide(k, dz, out=dz)
            np.copysign(dz, sin2, out=dz)
            part = _bin_counts(dz, edges, sin2, index[:sin2.size])
            with lock:
                np.add(counts, part, out=counts)
            yield

    _run_blocks(rng, n, kernel)
    return counts


def displacement_distribution(
    m: int,
    config: ApparatusConfig,
    n_samples: int,
    rng: np.random.Generator,
):
    """Sample the continuous displacement distribution of the weak regime.

    Returns (samples, bin_edges, counts), in 200 bins.  m must equal
    config.m, and the bin width 2k/200, with k the displacement scale, a
    normal float.
    """
    if m != config.m:
        raise ValueError(f"m = {m!r} disagrees with config.m = {config.m!r}")
    n_samples = _require_count("n_samples", n_samples)
    k, edges = _scale_and_edges(config, 200)
    dz = np.empty(n_samples)
    return dz, edges, _displacement_counts(m, k, edges, rng, n_samples, dz)


def _bin_counts(x, edges, scratch, index):
    """Counts of the values x, all within [edges[0], edges[-1]], in the bins
    of the evenly spaced edges, by np.histogram's rule: bin i holds
    edges[i] <= x < edges[i + 1], and the last bin its right edge too.

    As np.histogram does, the bin is estimated from the bin width and then
    moved by one where x falls on the wrong side of an edge, but in scratch
    and index, a float and an intp array of x's size, where np.histogram
    holds ~34 bytes of temporaries per value.
    """
    bins = edges.size - 1
    f = np.subtract(x, edges[0], out=scratch)
    f /= edges[-1] - edges[0]
    f *= bins
    np.copyto(index, f, casting="unsafe")  # truncated, as by astype
    # mode="clip", though every index is in range: "raise" buffers out;
    # the few moved indices are set through the mask, since adding the mask
    # would cast it to intp through a 64 KiB buffer
    wrong = x < np.take(edges, index, out=f, mode="clip")
    index[wrong] -= 1
    right = np.take(edges[1:], index, out=f, mode="clip")
    np.greater_equal(x, right, out=wrong)
    index[wrong] += 1
    np.minimum(index, bins - 1, out=index)  # x = edges[-1], in the last bin
    return np.bincount(index, minlength=bins)


def displacement_histogram(
    config: ApparatusConfig, n_samples: int, rng: np.random.Generator, bins: int
):
    """(bin_edges, counts) of n_samples displacements of the weak regime at
    order config.m, without an n-sized array: each block's displacements
    are binned where they are drawn, in a block of scratch.  At 200 bins the
    counts are those of `displacement_distribution` on the same stream."""
    n_samples = _require_count("n_samples", n_samples)
    k, edges = _scale_and_edges(config, bins)
    return edges, _displacement_counts(config.m, k, edges, rng, n_samples)


def histogram_rows(edges: np.ndarray, counts: np.ndarray):
    """(bin_left, bin_right, count, density) rows for CSV export."""
    density = counts / (counts.sum() * np.diff(edges))
    return list(zip(
        edges[:-1].tolist(), edges[1:].tolist(), counts.tolist(), density.tolist()
    ))
