"""Reproducible counter-based random streams.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are built on the Philox counter-based
bit generator keyed by ``(seed, *ids)``, so independent sub-streams for
parallel ensembles can be derived without any coordination: the same key
always yields the same stream, and distinct keys yield statistically
independent streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def _key_words(seed: int, ids: tuple) -> list[int]:
    # Philox accepts a 128-bit key as two 64-bit words; fold the seed and
    # arbitrary string/int identifiers through BLAKE2 so experiment names
    # are usable.
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(int(seed)).encode())
    h.update(b"\x00")
    for part in ids:
        h.update(repr(part).encode())
        h.update(b"\x00")
    digest = h.digest()
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 16, 8)]


def stream(seed: int, *ids) -> np.random.Generator:
    """Generator keyed by ``(seed, *ids)``.

    ``ids`` can mix strings (experiment names) and integers (trial indices).
    """
    return np.random.Generator(np.random.Philox(key=_key_words(seed, ids)))
