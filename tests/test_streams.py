import math
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmodel import entanglement as ent
from spinmodel import fluctuations as fl
from spinmodel import orientation as om
from spinmodel import stern_gerlach as sg
from spinmodel import streams
from spinmodel import telegraph as tg
from spinmodel.streams import BLOCK, _run_blocks, _spans, stream


def test_same_key_same_sequence():
    a = stream(42, "experiment", 0).random(16)
    b = stream(42, "experiment", 0).random(16)
    assert np.array_equal(a, b)


def test_different_trials_differ():
    a = stream(42, "experiment", 0).random(16)
    b = stream(42, "experiment", 1).random(16)
    assert not np.array_equal(a, b)


def test_different_experiments_differ():
    a = stream(42, "alpha").random(16)
    b = stream(42, "beta").random(16)
    assert not np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_any_seed_builds_generator(seed):
    assert 0.0 <= stream(seed, "x").random() < 1.0


def test_streams_are_sfc64():
    assert isinstance(stream(42, "experiment", 0).bit_generator, np.random.SFC64)


def test_first_draws_are_pinned():
    # a change of bit generator or of key encoding shows up here as a diff
    got = stream(42, "experiment", 0).random(4).tolist()
    assert got == [
        0.4180488840232106,
        0.6493034265543313,
        0.5378569099374663,
        0.5562077877389523,
    ]


def test_string_and_integer_ids_differ():
    a = stream(42, "1").random(16)
    b = stream(42, 1).random(16)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("i", range(4))
def test_neighbouring_trials_are_uncorrelated(i):
    n = 10**5
    a = stream(7, "x", i).standard_normal(n)
    b = stream(7, "x", i + 1).standard_normal(n)
    assert abs(np.corrcoef(a, b)[0, 1]) <= 5 / np.sqrt(n)


SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


@pytest.mark.parametrize("size", [BLOCK, 7])
@pytest.mark.parametrize("n", SIZES)
def test_spans_tile_the_range_in_order(n, size):
    spans = list(_spans(n) if size == BLOCK else _spans(n, size))
    assert [i for start, stop in spans for i in range(start, stop)] == list(range(n))
    assert all(stop - start == size for start, stop in spans[:-1])
    assert 1 <= spans[-1][1] - spans[-1][0] <= size


def _blocks_of(rng, n):
    """(child, start, stop) of each block of range(n), child b of rng.spawn."""
    return [(child, *span) for child, span in zip(rng.spawn(-(-n // BLOCK)), _spans(n))]


def test_one_spawn_gives_block_b_child_b():
    # all of a call's children come from one rng.spawn: block b gets child b
    n = 130 * BLOCK + 5
    got = _run_blocks(
        stream(3, "one-spawn"), n,
        lambda blocks: ((child.random(), start, stop) for child, start, stop in blocks),
    )
    expected = [(c.random(), start, stop) for c, start, stop in _blocks_of(stream(3, "one-spawn"), n)]
    assert got == expected


# every sampler that takes a count of draws, called with the count n
COUNTED = {
    "sample_displacement": lambda rng, n: fl.sample_displacement(
        fl.TranslationParams(), rng, n
    ),
    "expected_angular_momentum": lambda rng, n: fl.expected_angular_momentum(
        fl.RotationParams(), n, rng
    ),
    "measure_many": lambda rng, n: sg.measure_many(
        om.TwoPointDensity(0.75, 0.25), rng, n
    ),
    "displacement_distribution": lambda rng, n: sg.displacement_distribution(
        1, sg.ApparatusConfig(), n, rng
    ),
    "expected_uncertainty_product": lambda rng, n: fl.expected_uncertainty_product(
        fl.TranslationParams(), n, rng
    ),
    "up_count": lambda rng, n: sg.up_count(om.TwoPointDensity(0.75, 0.25), rng, n),
    "displacement_histogram": lambda rng, n: sg.displacement_histogram(
        sg.ApparatusConfig(), n, rng, 200
    ),
    "flip_parity": lambda rng, n: tg.flip_parity(tg.DwellModel(1.0, 3.0), 2.0, rng, n),
    "sample_pair_outcomes": lambda rng, n: ent.sample_pair_outcomes(
        ent.PSI_MINUS, 0.1, 0.7, n, rng
    ),
}


@pytest.mark.parametrize("name", COUNTED)
def test_whole_float_count_draws_as_the_int(name):
    got = COUNTED[name](stream(5, "count", name), 1e4)
    expected = COUNTED[name](stream(5, "count", name), 10**4)
    for a, b in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, expected))):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", COUNTED)
@pytest.mark.parametrize(
    "n", [10000.7, 10000.5, math.nan, math.inf, 0, 2**63, True, np.True_]
)
def test_non_count_raises_naming_the_value(name, n):
    # int(10000.7) would silently draw 10000; True drew one sample, and
    # np.True_ raised an OverflowError
    with pytest.raises(ValueError, match=re.escape(repr(n))):
        COUNTED[name](stream(5, "count", name), n)


# every blocked sampler, called with a count n
BLOCKED = {
    "sample_theta": lambda rng, n: om.sample_theta(3, rng, n),
    "displacement_distribution": lambda rng, n: sg.displacement_distribution(
        1, sg.ApparatusConfig(), n, rng
    ),
    "sample_displacement": lambda rng, n: fl.sample_displacement(
        fl.TranslationParams(), rng, n
    ),
}


def _bits(result):
    """The bytes of each part of a sampler's result."""
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(part).tobytes() for part in parts]


def _one_after_the_other(first, second):
    return first(), second()


class TestThreadedBlocks:
    """The samplers split their blocks over two threads; no result depends
    on it."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", BLOCKED)
    def test_same_bits_on_one_thread(self, name, n, monkeypatch):
        two = BLOCKED[name](stream(9, "threads", name, n), n)
        monkeypatch.setattr(streams, "_two_threads", _one_after_the_other)
        one = BLOCKED[name](stream(9, "threads", name, n), n)
        assert _bits(two) == _bits(one)

    @pytest.mark.parametrize("size", [None, (3, 5), (3, BLOCK + 1)])
    @pytest.mark.parametrize("name", ["sample_theta"])
    def test_same_bits_on_one_thread_in_any_shape(self, name, size, monkeypatch):
        sampler = getattr(om, name)
        two = sampler(1, stream(9, "threads-shape", name), size)
        monkeypatch.setattr(streams, "_two_threads", _one_after_the_other)
        one = sampler(1, stream(9, "threads-shape", name), size)
        assert np.shape(two) == np.shape(one) == (() if size is None else size)
        assert _bits(two) == _bits(one)

    @staticmethod
    def _workers_started(monkeypatch, n):
        calls = []

        def counted(first, second):
            calls.append(1)
            return _one_after_the_other(first, second)

        monkeypatch.setattr(streams, "_two_threads", counted)
        om.sample_theta(1, stream(9, "threads-count"), n)
        return len(calls)

    @pytest.mark.parametrize("n, threads", [(BLOCK, 0), (BLOCK + 1, 1)])
    def test_one_block_starts_no_thread(self, n, threads, monkeypatch):
        assert self._workers_started(monkeypatch, n) == threads

    def test_one_worker_per_call(self, monkeypatch):
        # one queue of all the call's blocks, so one worker however many
        # blocks the call has
        assert self._workers_started(monkeypatch, 130 * BLOCK + 5) == 1

    @pytest.mark.parametrize("name", BLOCKED)
    def test_no_thread_outlives_the_call(self, name):
        threads = threading.active_count()
        BLOCKED[name](stream(9, "threads-alive", name), 3 * BLOCK + 5)
        assert threading.active_count() == threads

    def test_worker_exception_reaches_the_caller(self):
        def fail():
            raise ZeroDivisionError("worker")

        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="worker"):
            streams._two_threads(lambda: None, fail)
        assert threading.active_count() == threads

    def test_kernel_exception_reaches_the_caller(self):
        def kernel(blocks):
            for _, start, _ in blocks:
                if start == 2 * BLOCK:
                    raise ZeroDivisionError("kernel")
                yield start

        threads = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="kernel"):
            _run_blocks(stream(9, "kernel-error"), 4 * BLOCK, kernel)
        assert threading.active_count() == threads

    def test_worker_keeps_the_callers_errstate(self):
        # a plain thread starts with numpy's default errstate, which warns
        def invalid():
            return np.geterr()["invalid"]

        with np.errstate(all="raise"):
            assert streams._two_threads(invalid, invalid) == ("raise", "raise")

    def test_a_slow_thread_takes_fewer_items(self):
        # blocks go to whichever thread is free; results stay in block order
        caller, taken = threading.current_thread(), []

        def kernel(blocks):
            for _, start, _ in blocks:
                if threading.current_thread() is not caller:
                    time.sleep(0.2)
                taken.append(threading.current_thread() is caller)
                yield start // BLOCK

        got = _run_blocks(stream(9, "slow-thread"), 20 * BLOCK, kernel)
        assert got == list(range(20))
        assert sum(taken) >= 18

    def test_concurrent_callers_keep_the_bits(self):
        # more sampling threads than cores, switching as often as possible
        n = 3 * BLOCK + 5
        names = ["sample_theta", "displacement_distribution", "sample_displacement"]
        expected = [_bits(BLOCKED[name](stream(9, "threads-race", name), n))
                    for name in names]
        results = [None] * 4

        def call(i):
            results[i] = [_bits(BLOCKED[name](stream(9, "threads-race", name), n))
                          for name in names]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(result == expected for result in results)
