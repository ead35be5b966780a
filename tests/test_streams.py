import hashlib
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
    drawn = []

    def kernel(blocks):
        for child, start, stop in blocks:
            drawn.append((child.random(), start, stop))

    _run_blocks(stream(3, "one-spawn"), n, kernel)
    expected = [(c.random(), start, stop) for c, start, stop in _blocks_of(stream(3, "one-spawn"), n)]
    assert sorted(drawn, key=lambda block: block[1]) == expected


@pytest.mark.parametrize(
    "n, runs", [(1, 1), (BLOCK, 1), (BLOCK + 1, 2), (20 * BLOCK, 2)]
)
def test_one_value_per_run(n, runs):
    # a kernel returns one value for its run: one run on the caller's
    # thread for one block, and one more on a worker for two or more
    caller = threading.current_thread()
    threads = threading.active_count()

    def kernel(blocks):
        return threading.current_thread() is caller, [start for _, start, _ in blocks]

    got = _run_blocks(stream(9, "runs", n), n, kernel)
    assert threading.active_count() == threads
    assert len(got) == runs
    assert [on_caller for on_caller, _ in got] == [True, False][:runs]
    starts = sorted(start for _, taken in got for start in taken)
    assert starts == list(range(0, n, BLOCK))


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
    "displacement_distribution_m0": lambda rng, n: sg.displacement_distribution(
        0, sg.ApparatusConfig(m=0), n, rng
    ),
    "sample_displacement": lambda rng, n: fl.sample_displacement(
        fl.TranslationParams(), rng, n
    ),
}

# the first 16 hex digits of the sha256 of each blocked sampler's result on
# stream(9, "threads", name, n), in the column `_pinned_column` picks: a
# change to the block rule, the spawn or a kernel's arithmetic that moves a
# seeded bit shows up here.  np.tan, log1p, expm1 and exp pick their kernel by
# the CPU's SIMD level, so sample_theta and displacement_distribution have
# one column for numpy's AVX-512 kernels (X86_V4) and one for its AVX2
# (X86_V3) and baseline (X86_V2) kernels, which give the same bits here
DIGESTS = {
    ("sample_theta", 1): ("160f046be4e9178f", "160f046be4e9178f"),
    ("sample_theta", BLOCK - 1): ("25b1ebcdbaf02a4e", "f1119b664856b3d2"),
    ("sample_theta", BLOCK): ("83335f62cb3acfe5", "08871043679e06fb"),
    ("sample_theta", BLOCK + 1): ("6de05ce6e8b9a8ed", "7d2190c0a94bfbfa"),
    ("sample_theta", 3 * BLOCK + 5): ("0c0dc1f9e4559512", "87ee0070df3c284c"),
    ("sample_theta", 130 * BLOCK + 5): ("3723eab3a0a3bb10", "0ea5ba45af913c7a"),
    ("displacement_distribution", 1): ("82feebbcf46408b8", "82feebbcf46408b8"),
    ("displacement_distribution", BLOCK - 1):
        ("18d52709bff126ee", "1809210202ed944f"),
    ("displacement_distribution", BLOCK):
        ("46c3353321596178", "713de0aada433433"),
    ("displacement_distribution", BLOCK + 1):
        ("5c16689c37335450", "bcdeda5c8282d0d1"),
    ("displacement_distribution", 3 * BLOCK + 5):
        ("d95601fb6ad6c678", "70a8d04249274706"),
    ("displacement_distribution", 130 * BLOCK + 5):
        ("01779634791453e1", "d31e74fdb01de514"),
    ("displacement_distribution_m0", 1):
        ("c58f0ae8588454f5", "c58f0ae8588454f5"),
    ("displacement_distribution_m0", BLOCK - 1):
        ("15be47a80e221865", "43b3f6a0d128b753"),
    ("displacement_distribution_m0", BLOCK):
        ("6b24e5c43a99d1e4", "f2fb420129af1a14"),
    ("displacement_distribution_m0", BLOCK + 1):
        ("6b8f309c3bc6038c", "fd045f59735cf89d"),
    ("displacement_distribution_m0", 3 * BLOCK + 5):
        ("2042d4519b41ffe9", "e1461c53fcfe4ee6"),
    ("displacement_distribution_m0", 130 * BLOCK + 5):
        ("886be98e395c38d9", "41a82c98f5a4186f"),
    ("sample_displacement", 1): ("498ab98f64c6a821", "498ab98f64c6a821"),
    ("sample_displacement", BLOCK - 1): ("00f5490a7b97fea2", "00f5490a7b97fea2"),
    ("sample_displacement", BLOCK): ("3f19f6d38987ab17", "3f19f6d38987ab17"),
    ("sample_displacement", BLOCK + 1): ("1c7b07fff1c5b031", "1c7b07fff1c5b031"),
    ("sample_displacement", 3 * BLOCK + 5):
        ("bf921503e2950f62", "bf921503e2950f62"),
    ("sample_displacement", 130 * BLOCK + 5):
        ("a76044a2b4166de7", "a76044a2b4166de7"),
}

# the same for sample_theta(1, stream(9, "threads-shape", "sample_theta"), size)
SHAPE_DIGESTS = {
    None: ("aa6f51c64c259f5f", "313122ab9f46fef0"),
    (3, 5): ("3685c96fb0fd050d", "d3aed6970555594e"),
    (3, BLOCK + 1): ("c57feb778ce5268e", "8dee94ba9e853ad5"),
}

# the digest column of each numpy version and set of enabled SIMD dispatch
# targets the digests were taken at (NPY_DISABLE_CPU_FEATURES reaches the
# lower two); elsewhere only the one-thread checks run
PINNED_AT = {
    ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): 0,
    ("2.4.6", ("X86_V3",)): 1,
    ("2.4.6", ()): 1,
}


def _pinned_column():
    """The digest column of this numpy and CPU, or None if unrecorded."""
    from numpy._core import _multiarray_umath as umath

    enabled = tuple(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    return PINNED_AT.get((np.__version__, enabled))


def _bits(result):
    """The bytes of each part of a sampler's result."""
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(part).tobytes() for part in parts]


def _assert_pinned(result, digests):
    """result's sha256 starts with its recorded digest, where one is."""
    column = _pinned_column()
    if column is not None:
        digest = hashlib.sha256()
        for part in _bits(result):
            digest.update(part)
        assert digest.hexdigest()[:16] == digests[column]


def _one_after_the_other(first, second):
    return first(), second()


class TestThreadedBlocks:
    """The samplers split their blocks over two threads; no result depends
    on it."""

    @pytest.mark.parametrize("n", SIZES + [130 * BLOCK + 5])
    @pytest.mark.parametrize("name", BLOCKED)
    def test_same_bits_on_one_thread(self, name, n, monkeypatch):
        two = BLOCKED[name](stream(9, "threads", name, n), n)
        monkeypatch.setattr(streams, "_two_threads", _one_after_the_other)
        one = BLOCKED[name](stream(9, "threads", name, n), n)
        assert _bits(two) == _bits(one)
        _assert_pinned(two, DIGESTS[name, n])

    @pytest.mark.parametrize("size", [None, (3, 5), (3, BLOCK + 1)])
    @pytest.mark.parametrize("name", ["sample_theta"])
    def test_same_bits_on_one_thread_in_any_shape(self, name, size, monkeypatch):
        sampler = getattr(om, name)
        two = sampler(1, stream(9, "threads-shape", name), size)
        monkeypatch.setattr(streams, "_two_threads", _one_after_the_other)
        one = sampler(1, stream(9, "threads-shape", name), size)
        assert np.shape(two) == np.shape(one) == (() if size is None else size)
        assert _bits(two) == _bits(one)
        _assert_pinned(two, SHAPE_DIGESTS[size])

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
        # blocks go to whichever thread is free, each to one thread
        caller = threading.current_thread()

        def kernel(blocks):
            taken = []
            for _, start, _ in blocks:
                if threading.current_thread() is not caller:
                    time.sleep(0.2)
                taken.append(start // BLOCK)
            return threading.current_thread() is caller, taken

        got = _run_blocks(stream(9, "slow-thread"), 20 * BLOCK, kernel)
        assert sorted(b for _, taken in got for b in taken) == list(range(20))
        assert sum(len(taken) for on_caller, taken in got if not on_caller) <= 2

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
