"""Reproducible random streams: SFC64 seeded through SeedSequence.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are keyed by ``(seed, *ids)``, so
independent sub-streams for parallel ensembles can be derived without any
coordination: the same key always yields the same stream, and distinct keys
yield statistically independent streams.  The key is the ``repr`` of
``(seed, *ids)``, so ``"1"`` and ``1`` are distinct keys; SeedSequence
hashes its bytes into the SFC64 state.

The samplers share the rules of their draws here: `_require_count`, the one
check of a count of draws, and one block-traversal rule, so that no sampler
holds an n-sized scratch array.  Values go in consecutive blocks of `BLOCK`,
the last one shorter (`_spans`, `_blocks`); normals are drawn block by block
into one reused array (`_normal_blocks`); a float sum adds the block sums in
block order, so a streamed estimate and its array form agree to the bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]

# values per block of the blocked kernels (the samplers, kl_shift_rate): a
# float64 block is 128 KiB, so a few of them stay in a core's L2 cache
BLOCK = 2**14


def stream(seed: int, *ids) -> np.random.Generator:
    """Generator keyed by ``(seed, *ids)``.

    ``ids`` can mix strings (experiment names) and integers (trial indices).
    """
    key = int.from_bytes(repr((int(seed), *ids)).encode(), "little")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


def _require_count(name: str, n) -> int:
    """n as an int, if it is a whole number in [1, 2**63): a count of draws."""
    # n % 1, unlike float(n), takes any int; numpy takes an int64 count, no bool
    if isinstance(n, (bool, np.bool_)) or not (1 <= n < 2**63 and n % 1 == 0):
        raise ValueError(f"{name} must be a whole number in [1, 2**63), got {n!r}")
    return int(n)


def _spans(n: int, size: int = BLOCK):
    """The (start, stop) spans of range(n), in order, each of `size` values
    but the last."""
    for start in range(0, n, size):
        yield start, min(start + size, n)


def _blocks(values: np.ndarray):
    """Consecutive views of at most `BLOCK` values of the flat array values."""
    for start, stop in _spans(values.size):
        yield values[start:stop]


def _normal_blocks(rng: np.random.Generator, n: int):
    """The next n standard normals of rng, in the blocks of `_spans(n)`, each
    drawn into one reused array over the last: the stream is used as by one
    rng.standard_normal(n) call."""
    z = np.empty(min(BLOCK, n))
    for start, stop in _spans(n):
        yield rng.standard_normal(out=z[:stop - start])
