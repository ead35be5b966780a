"""Peak memory of the blocked kernels, traced by tracemalloc.

Each sampler transforms its draws one block of `streams.BLOCK` at a time, so
at 10**6 draws it holds its output and a few blocks of scratch: at most
~1 MiB besides the output, or ~2.5 MiB for `displacement_distribution`, whose
histogram works in blocks of its own.  A sampler that allocates an n-sized
scratch array (8 MB at this n) fails.  `kl_shift_rate` on the CLI's 4001-node
grid holds no 32 x 4001 array (1 MB) either.  The streamed reductions,
`displacement_histogram`, `expected_uncertainty_product` and
`expected_angular_momentum`, hold no n-sized array at all: ~1 MiB besides
their output at 10**6 and at 4 * 10**6 draws.
"""

import math


import tracemalloc

import numpy as np
import pytest

from spinmodel import fluctuations as fl
from spinmodel import orientation as om
from spinmodel import stern_gerlach as sg
from spinmodel.streams import stream

N = 10**6
MIB = 2**20
X = np.linspace(-10.0, 10.0, 4001)
RHO = np.exp(-(X**2) / 2.0) / math.sqrt(2.0 * math.pi)

# name -> (call on a stream, bytes allowed beyond the output)
KERNELS = {
    "sample_theta": (lambda rng: om.sample_theta(1, rng, N), MIB),
    "sample_cos_theta": (lambda rng: om.sample_cos_theta(1, rng, N), MIB),
    "displacement_distribution": (
        lambda rng: sg.displacement_distribution(1, sg.ApparatusConfig(), N, rng),
        2.5 * MIB,
    ),
    "expected_angular_momentum": (
        lambda rng: fl.expected_angular_momentum(fl.RotationParams(3.0, 7.0), N, rng),
        MIB,
    ),
    "kl_shift_rate": (
        lambda rng: fl.kl_shift_rate(X, RHO, fl.TranslationParams(1.0, 0.01)),
        MIB,
    ),
}


# the streamed reductions, called with a count of draws: their output does
# not grow with it, and neither may their peak
STREAMED = {
    "displacement_histogram": lambda rng, n: sg.displacement_histogram(
        sg.ApparatusConfig(), n, rng, 200
    ),
    "expected_uncertainty_product": lambda rng, n: fl.expected_uncertainty_product(
        fl.TranslationParams(), n, rng
    ),
    "expected_angular_momentum": lambda rng, n: fl.expected_angular_momentum(
        fl.RotationParams(3.0, 7.0), n, rng
    ),
}


def _peak_beyond_output(call, name):
    call(stream(5, "memory-warm-up", name))  # one-off first-call allocations
    rng = stream(5, "memory", name)
    tracemalloc.start()
    try:
        result = call(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parts = result if isinstance(result, tuple) else (result,)
    return peak - sum(np.asarray(part).nbytes for part in parts)


@pytest.mark.parametrize("name", KERNELS)
def test_peak_is_the_output_and_a_few_blocks(name):
    call, allowed = KERNELS[name]
    assert _peak_beyond_output(call, name) <= allowed


@pytest.mark.parametrize("n", [N, 4 * N])
@pytest.mark.parametrize("name", STREAMED)
def test_streamed_peak_does_not_grow_with_n(name, n):
    assert _peak_beyond_output(lambda rng: STREAMED[name](rng, n), name) <= MIB
