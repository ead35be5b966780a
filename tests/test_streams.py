import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinmodel import entanglement as ent
from spinmodel import fluctuations as fl
from spinmodel import orientation as om
from spinmodel import stern_gerlach as sg
from spinmodel import telegraph as tg
from spinmodel.streams import BLOCK, _normal_blocks, _spans, stream


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


@pytest.mark.parametrize("n", SIZES)
def test_normal_blocks_use_the_stream_as_one_call(n):
    rng, ref = stream(3, "normal-blocks", n), stream(3, "normal-blocks", n)
    # each block is overwritten by the next, so it is copied as it comes
    got = np.concatenate([block.copy() for block in _normal_blocks(rng, n)])
    assert np.array_equal(got, ref.standard_normal(n))
    assert np.array_equal(rng.standard_normal(4), ref.standard_normal(4))


def test_normal_blocks_share_one_buffer():
    blocks = list(_normal_blocks(stream(3, "normal-buffer"), 3 * BLOCK + 5))
    assert [b.size for b in blocks] == [BLOCK] * 3 + [5]
    assert all(np.shares_memory(blocks[0], b) for b in blocks[1:])


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
