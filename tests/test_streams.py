import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from spinmodel.streams import stream


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
