"""Reproducible random streams: SFC64 seeded through SeedSequence.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are keyed by ``(seed, *ids)``, so
independent sub-streams for parallel ensembles can be derived without any
coordination: the same key always yields the same stream, and distinct keys
yield statistically independent streams.  The key is the ``repr`` of
``(seed, *ids)``, so ``"1"`` and ``1`` are distinct keys; SeedSequence
hashes its bytes into the SFC64 state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, *ids) -> np.random.Generator:
    """Generator keyed by ``(seed, *ids)``.

    ``ids`` can mix strings (experiment names) and integers (trial indices).
    """
    key = int.from_bytes(repr((int(seed), *ids)).encode(), "little")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
