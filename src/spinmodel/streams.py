"""Reproducible random streams: SFC64 seeded through SeedSequence.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Streams are keyed by ``(seed, *ids)``, so
independent sub-streams for parallel ensembles can be derived without any
coordination: the same key always yields the same stream, and distinct keys
yield statistically independent streams.  The key is the ``repr`` of
``(seed, *ids)``, so ``"1"`` and ``1`` are distinct keys; SeedSequence
hashes its bytes into the SFC64 state.

The package's argument rules are stated here, once each, each refusing a
value with a `ValueError` that names the field and the value, and none
taking a bool as a number: `_require_count`, a whole-valued count returned
as an int; `_require_int`, an int that a frozen dataclass keeps as given;
`_require_normal`, positive normal floats; `_require_real`, a finite real
in a range, returned as a float; `_require_real_array`, an integer or
float array of finite values.  `cli` parses its numeric keys with the
count and real rules.  The samplers also share one block rule, so that no
blocked sampler holds an n-sized scratch array and each runs on two cores
with the bits it has on one:

- Blocks.  A call's n values go in consecutive blocks of `BLOCK`, the last
  one shorter (`_spans`), and block b is drawn from child b of one
  ``rng.spawn(ceil(n / BLOCK))`` (`_run_blocks`).  The caller's generator
  only spawns: its own draws are untouched, and the next call spawns the
  next children.
- Threads.  `_run_blocks` keeps one queue of the call's blocks, in order,
  and the caller and one worker thread each take the next block left,
  keeping their scratch from block to block.  A kernel returns one value
  per run, not per block: the two runs share only the queue, and write
  only where their blocks say.  The worker comes from `_two_threads`, the
  package's one place that starts a thread; a call starts it once, or not
  at all if it has one block.  Block b holds the same values whichever
  thread draws it, so a result does not depend on the thread count.  A
  worker calls only private kernels, never a public function.
"""

from __future__ import annotations

import contextvars
import math
import sys
import threading

import numpy as np

__all__ = ["stream"]

# values per block of the blocked kernels (the samplers, kl_shift_rate): a
# float64 block is 128 KiB, so a few of them stay in a core's L2 cache; a
# sampler spawns one child stream per block, in ~20 us, ~3 % of its draws,
# and holds all of a call's children (~0.9 KiB each, 0.7 % of the output)
BLOCK = 2**14

# the largest count that numpy's binomial (BTPE, which its multinomial calls
# per cell) draws exactly: it forms a count in double precision; cells of
# p = 0.1 drew exact counts at n = 2**56 and multiples of 16 at n = 2**60
MAX_DRAWS = 2**53

# the rules' constants, bound once: looked up per call, they cost a third of
# a real check (~0.12 of ~0.37 us on a 2-core x86-64 host)
_FLOAT_MAX = sys.float_info.max
_NOT_REALS = (bool, np.bool_, np.complexfloating)


def stream(seed: int, *ids) -> np.random.Generator:
    """Generator keyed by ``(seed, *ids)``.

    ``ids`` can mix strings (experiment names) and integers (trial indices).
    """
    key = int.from_bytes(repr((int(seed), *ids)).encode(), "little")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


def _require_count(name: str, n, low: int = 1, high=2**63 - 1) -> int:
    """n as an int, if it is a whole number in [low, high]: by default a
    count of draws, which numpy takes as an int64."""
    if not (_within(n, low, high) and n % 1 == 0):
        raise ValueError(
            f"{name} must be a whole number in [{low}, {high}], got {n!r}"
        )
    return int(n)


def _require_real(name: str, x, low=-math.inf, high=math.inf, *, open_low=False) -> float:
    """x as a float, if it is a finite real in [low, high], or in (low, high]
    if open_low."""
    if not _within(x, low, high, open_low):
        interval = f"{'(' if open_low else '['}{low}, {high}]"
        raise ValueError(f"{name} must be a finite real in {interval}, got {x!r}")
    return float(x)


def _within(x, low, high, open_low=False) -> bool:
    """Whether x is a real in [low, high], or (low, high] if open_low, that
    a float holds: a str, None or a list raise TypeError in the comparison,
    an array of more than one element ValueError in taking its truth, NaN,
    inf or a larger int fail it, and a bool, an int, and a numpy complex,
    which numpy orders, are refused before it."""
    if isinstance(x, _NOT_REALS):
        return False
    try:
        above = low < x if open_low else low <= x
        return above and x <= high and abs(x) <= _FLOAT_MAX
    except (TypeError, ValueError):
        return False


def _require_real_array(name: str, values: np.ndarray) -> None:
    """Raise unless values is an array of finite reals: of an integer or
    float dtype, so neither bool, complex nor object, and free of NaN and
    inf."""
    if not (values.dtype.kind in "iuf" and np.isfinite(values).all()):
        raise ValueError(f"{name} must be an array of finite reals, got {values!r}")


def _require_int(name: str, n, low: int, high: int) -> None:
    """Raise unless n is an int in [low, high]: a value that a frozen
    dataclass keeps as given, so a whole float such as 2.0 is refused, and
    a bool, which is an int, by name."""
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and low <= n <= high):
        raise ValueError(f"{name} must be an int in [{low}, {high}], got {n!r}")


def _require_normal(what: str, *scales):
    """Raise, saying `what` the scales are, unless each is a positive normal
    float: one that overflowed to inf or fell below 2**-1022 turned the
    estimates into NaN, inf or 0."""
    if not all(_within(s, sys.float_info.min, _FLOAT_MAX) for s in scales):
        got = " and ".join(map(repr, scales))
        raise ValueError(f"{what} must be positive normal floats, got {got}")


def _spans(n: int, size: int = BLOCK):
    """The (start, stop) spans of range(n), in order, each of `size` values
    but the last."""
    for start in range(0, n, size):
        yield start, min(start + size, n)


def _run_blocks(rng: np.random.Generator, n: int, kernel) -> list:
    """The values kernel returns for its runs over the blocks of range(n):
    one run if range(n) has fewer than two blocks, else two.

    kernel is a plain function: given an iterable of blocks (child, start,
    stop), block b being span b of `_spans(n)` drawn from child b of one
    rng.spawn(ceil(n / BLOCK)), it draws each and returns one value for its
    run.  It runs on the caller's thread and, if there are two or more
    blocks, on one worker, each fed the next block no thread has taken, so a
    thread slowed by other load on its core takes fewer.  Each run keeps its
    scratch to itself, from block to block, and writes only where its blocks
    say.
    """
    spans = list(_spans(n))
    blocks = [(child, *span) for child, span in zip(rng.spawn(len(spans)), spans)]
    if len(blocks) < 2:
        return [kernel(iter(blocks))]
    queue, lock = iter(blocks), threading.Lock()

    def take():
        while True:
            with lock:
                block = next(queue, None)
            if block is None:
                return
            yield block

    return list(_two_threads(lambda: kernel(take()), lambda: kernel(take())))


def _two_threads(first, second):
    """(first(), second()), second() run on a worker thread.

    Its one caller is `_run_blocks`, which passes its two kernel runs.  The
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
