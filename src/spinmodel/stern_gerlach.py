"""Single-electron Stern-Gerlach measurement simulation.

Covers the quantized two-outcome regime (strong gradient, order m -> inf),
the rotated second-apparatus statistics, and the weak-gradient regime
where the beam displacement stays continuous because the orientation
density has not collapsed to the poles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .orientation import (
    GridDensity,
    TwoPointDensity,
    _require_order,
    normalization_constant,
    sample_cos_theta,
)
from .streams import BLOCK, _blocks, _require_count, _spans, _split

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
    scalar if c is one), one block of `BLOCK` values at a time, each squared
    into one reused block of scratch."""
    out = np.asarray(c, dtype=float, order="C")
    scratch = np.empty(min(BLOCK, out.size))
    for block in _blocks(out.reshape(-1)):
        _odd_power_block(block, m, scale, scratch)
    return out[()]


def _odd_power_block(block, m: int, scale: float, scratch) -> None:
    """block = scale * block**(2m+1) by repeated squaring, the square taken
    in scratch, an array at least as long; a float power call costs ~10x
    more."""
    square = np.multiply(block, block, out=scratch[:block.size])
    k = m
    while k:
        if k & 1:
            block *= square
        k >>= 1
        if k:
            square *= square
    block *= scale


def displacement_density(z, m: int, eta: float, transit_time: float):
    """Analytic pushforward density of the displacement under theta ~ p_m.

    With x = cos(theta) and dz_max the displacement scale, the map
    z = dz_max * x^{2m+1} is monotone, so the density follows from a
    change of variables; used as the independent oracle for the sampled
    histogram.
    """
    k = displacement(0.0, m, eta, transit_time)
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    inside = np.abs(z) < k
    frac = np.clip(np.abs(z[inside]) / k, 0.0, 1.0)
    x = np.sign(z[inside]) * frac ** (1.0 / (2 * m + 1))
    z_m = normalization_constant(m)
    out[inside] = 1.0 / (z_m * k * (2 * m + 1) * np.sqrt(1.0 - x**2))
    return out


def displacement_distribution(
    m: int,
    config: ApparatusConfig,
    n_samples: int,
    rng: np.random.Generator,
    bins: int = 200,
):
    """Sample the continuous displacement distribution of the weak regime.

    Returns (samples, bin_edges, counts).  m must equal config.m, and the
    bin width 2k/bins, with k the displacement scale, a normal float.
    """
    if m != config.m:
        raise ValueError(f"m = {m!r} disagrees with config.m = {config.m!r}")
    n_samples = _require_count("n_samples", n_samples)
    bins = _require_count("bins", bins)
    k = displacement(0.0, m, config.gradient, config.transit_time)
    # numpy widens a zero range, rejects an infinite one and gives bins of
    # subnormal width infinite densities; k itself is finite
    width = 2.0 * float(k) / bins
    if not sys.float_info.min <= width <= sys.float_info.max:
        raise ValueError(
            f"eta and transit_time: displacement scale {k:g} gives bins of "
            f"width {width:g}, not a normal float"
        )
    dz = sample_cos_theta(m, rng, n_samples)
    edges = np.linspace(-k, k, bins + 1)  # np.histogram's edges

    # k * cos^{2m+1}(theta), the product `displacement` forms, and its bins,
    # block by block on two threads
    def kernel(blocks):
        scratch = np.empty(min(BLOCK, n_samples))
        index = np.empty(scratch.size, dtype=np.intp)
        for block in blocks:
            n = block.size
            _odd_power_block(block, m, k, scratch)
            yield _bin_counts(block, edges, scratch[:n], index[:n])

    return dz, edges, sum(_split(list(_blocks(dz)), kernel))


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
    np.minimum(index, bins - 1, out=index)  # x = edges[-1]
    # mode="clip", though every index is in range: "raise" buffers out
    index -= x < np.take(edges, index, out=f, mode="clip")
    index += 1  # to the right edge of x's bin and back, in place
    right = np.take(edges, index, out=f, mode="clip")
    index -= 1
    index += (x >= right) & (index != bins - 1)
    return np.bincount(index, minlength=bins)


def displacement_histogram(
    config: ApparatusConfig, n_samples: int, rng: np.random.Generator, bins: int
):
    """(bin_edges, counts) of n_samples displacements of the weak regime at
    order config.m, without an n-sized array: the added counts of consecutive
    `displacement_distribution` calls of `BLOCK` samples each (the last one
    shorter), each call's samples discarded.  Each call spawns the next
    child of rng, so the counts are those of one call on the same stream."""
    n_samples = _require_count("n_samples", n_samples)
    counts = 0
    for start, stop in _spans(n_samples):
        # no name keeps the samples, so each call's go before the next
        edges, part = displacement_distribution(
            config.m, config, stop - start, rng, bins
        )[1:]
        counts = counts + part
    return edges, counts


def histogram_rows(edges: np.ndarray, counts: np.ndarray):
    """(bin_left, bin_right, count, density) rows for CSV export."""
    density = counts / (counts.sum() * np.diff(edges))
    return list(zip(
        edges[:-1].tolist(), edges[1:].tolist(), counts.tolist(), density.tolist()
    ))
