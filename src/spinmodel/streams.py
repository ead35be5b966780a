"""Reproducible random streams: SFC64 seeded through SeedSequence.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are keyed by ``(seed, *ids)``, so
independent sub-streams for parallel ensembles can be derived without any
coordination: the same key always yields the same stream, and distinct keys
yield statistically independent streams.  The key is the ``repr`` of
``(seed, *ids)``, so ``"1"`` and ``1`` are distinct keys; SeedSequence
hashes its bytes into the SFC64 state.

The samplers share two rules of their draws here: `_require_count`, the one
check of a count of draws, and `BLOCK`, the number of draws they transform
at a time, so that no sampler holds an n-sized scratch array.
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
    # n % 1, unlike float(n), takes any int; numpy takes an int64 count
    if not (1 <= n < 2**63 and n % 1 == 0):
        raise ValueError(f"{name} must be a whole number in [1, 2**63), got {n!r}")
    return int(n)
