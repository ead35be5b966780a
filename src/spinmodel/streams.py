"""Reproducible random streams: SFC64 seeded through SeedSequence.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are keyed by ``(seed, *ids)``, so
independent sub-streams for parallel ensembles can be derived without any
coordination: the same key always yields the same stream, and distinct keys
yield statistically independent streams.  The key is the ``repr`` of
``(seed, *ids)``, so ``"1"`` and ``1`` are distinct keys; SeedSequence
hashes its bytes into the SFC64 state.

The samplers share the rules of their draws here: `_require_count`, the one
check of a count of draws, and one block rule, so that no blocked sampler
holds an n-sized scratch array and each runs on two cores with the bits it
has on one:

- Blocks.  A call's n values go in consecutive blocks of `BLOCK`, the last
  one shorter (`_spans`), and block b is drawn from child b of one
  ``rng.spawn(ceil(n / BLOCK))`` (`_run_blocks`).  The caller's generator
  only spawns: its own draws are untouched, and the next call spawns the
  next children.
- Threads.  `_run_blocks` keeps one queue of the call's blocks, in order,
  and the caller and one worker thread each take the next block left,
  keeping their scratch from block to block.  The worker comes from
  `_two_threads`, the package's one place that starts a thread; a call
  starts it once, or not at all if it has one block.
  Block b holds the same values whichever thread draws it, so a result
  does not depend on the thread count.  A worker calls only private
  kernels, never a public function.
"""

from __future__ import annotations

import contextvars
import threading

import numpy as np

__all__ = ["stream"]

# values per block of the blocked kernels (the samplers, kl_shift_rate): a
# float64 block is 128 KiB, so a few of them stay in a core's L2 cache; a
# sampler spawns one child stream per block, in ~20 us, ~3 % of its draws,
# and holds all of a call's children (~0.9 KiB each, 0.7 % of the output)
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


def _run_blocks(rng: np.random.Generator, n: int, kernel) -> list:
    """The results kernel yields for the blocks of range(n), in block order.

    kernel is a generator function: given an iterable of blocks (child,
    start, stop), block b being span b of `_spans(n)` drawn from child b of
    one rng.spawn(ceil(n / BLOCK)), it yields one result for each, in order.
    It runs on the caller's thread and, if there are two or more blocks, on
    one worker, each fed the next block no thread has taken, so a thread
    slowed by other load on its core takes fewer.  Each run keeps its
    scratch to itself, from block to block, and writes only where its blocks
    say.
    """
    spans = list(_spans(n))
    blocks = [(child, *span) for child, span in zip(rng.spawn(len(spans)), spans)]
    results = [None] * len(blocks)
    order = iter(range(len(blocks)))
    lock = threading.Lock()

    def run():
        taken = []

        def take():
            while True:
                with lock:
                    b = next(order, None)
                if b is None:
                    return
                taken.append(b)
                yield blocks[b]

        for j, result in enumerate(kernel(take())):
            results[taken[j]] = result

    if len(blocks) < 2:
        run()
    else:
        _two_threads(run, run)
    return results


def _two_threads(first, second):
    """(first(), second()), second() run on a worker thread.

    Its one caller is `_run_blocks`, which passes its two queue runs.  The
    worker runs in a copy of the caller's context, so the caller's
    np.errstate holds in it.  It is joined before this returns or raises,
    and its exception, if any, is raised here once both are done.
    """
    outcome = {}

    def run_second():
        try:
            outcome["value"] = second()
        except BaseException as exc:  # re-raised in the caller
            outcome["error"] = exc

    worker = threading.Thread(
        target=contextvars.copy_context().run, args=(run_second,)
    )
    worker.start()
    try:
        value = first()
    finally:
        worker.join()
    if "error" in outcome:
        raise outcome["error"]
    return value, outcome["value"]
