"""Reproducible random streams: SFC64 seeded through SeedSequence.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are keyed by ``(seed, *ids)``, so
independent sub-streams for parallel ensembles can be derived without any
coordination: the same key always yields the same stream, and distinct keys
yield statistically independent streams.  The key is the ``repr`` of
``(seed, *ids)``, so ``"1"`` and ``1`` are distinct keys; SeedSequence
hashes its bytes into the SFC64 state.

The samplers share the rules of their draws here: `_require_count`, the one
check of a count of draws, and one block rule, so that no sampler holds an
n-sized scratch array and every sampler runs on two cores with the bits it
has on one:

- Blocks.  A call's n values go in consecutive blocks of `BLOCK`, the last
  one shorter (`_spans`, `_blocks`), and block b is drawn from child b of
  ``rng.spawn(ceil(n / BLOCK))`` (`_run_blocks`).  The caller's generator
  only spawns: its own draws are untouched, and the next call spawns the
  next children.  Normals are drawn block by block into one reused array
  (`_normal_blocks`).
- Threads.  `_split` hands the blocks, in order, to the caller and one
  worker thread, each taking the next block left and keeping its scratch
  from block to block.  The worker comes from `_two_threads`, the package's
  one two-thread helper (`pauli.evolve` steps its two spinor components
  through it too).  A call of one block starts no thread.
  Block b holds the same values whichever thread draws it, so a result
  does not depend on the thread count.  A worker calls only private
  kernels, never a public function.
- Sums.  A float sum adds its block sums in block order, so a streamed
  estimate and its array form agree to the bit.
"""

from __future__ import annotations

import contextvars
import itertools
import threading

import numpy as np

__all__ = ["stream"]

# values per block of the blocked kernels (the samplers, kl_shift_rate): a
# float64 block is 128 KiB, so a few of them stay in a core's L2 cache; a
# sampler spawns one child stream per block, in ~20 us, ~3 % of its draws
BLOCK = 2**14
# blocks per spawn: a sampler holds the child streams (~0.9 KiB each) of at
# most this many blocks at a time, and starts one worker thread for each
_WINDOW = 64


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


def _run_blocks(rng: np.random.Generator, n: int, kernel) -> list:
    """The results of kernel for the blocks of range(n), in block order,
    computed by `_split`: kernel's items are (child, start, stop), block b
    being span b of `_spans(n)`, drawn from child b of rng.spawn.

    The blocks go in windows of `_WINDOW`, and each window's children are
    spawned at once.  Each spawn goes on from the last, so the children are
    those of rng.spawn(ceil(n / BLOCK)).
    """
    results = []
    spans = _spans(n)
    while window := list(itertools.islice(spans, _WINDOW)):
        children = rng.spawn(len(window))
        results += _split([(c, *span) for c, span in zip(children, window)], kernel)
    return results


def _normal_blocks(blocks):
    """The standard normals of each (child, start, stop) of blocks, in order,
    drawn from the child into one reused array, as long as the first block."""
    z = None
    for child, start, stop in blocks:
        if z is None:
            z = np.empty(stop - start)
        yield child.standard_normal(out=z[:stop - start])


def _split(items: list, kernel) -> list:
    """The results kernel yields for items, in item order.

    kernel is a generator function: given an iterable of items, it yields
    one result for each, in order.  It runs on the caller's thread and, if
    there are two or more items, on one worker, each fed the next item no
    thread has taken, so a thread slowed by other load on its core takes
    fewer.  Each run keeps its scratch to itself, from item to item, and
    writes only where its items say.
    """
    results = [None] * len(items)
    order = iter(range(len(items)))
    lock = threading.Lock()

    def run():
        taken = []

        def take():
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                taken.append(i)
                yield items[i]

        for j, result in enumerate(kernel(take())):
            results[taken[j]] = result

    if len(items) < 2:
        run()
    else:
        _two_threads(run, run)
    return results


def _two_threads(first, second):
    """(first(), second()), second() run on a worker thread.

    The worker runs in a copy of the caller's context, so the caller's
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
