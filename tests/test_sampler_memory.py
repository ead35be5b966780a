"""Peak memory of the blocked kernels, traced by tracemalloc.

Each sampler transforms its draws one block of `streams.BLOCK` at a time, so
at 10**6 draws it holds its output and a few blocks of scratch: at most
~1 MiB besides the output, or ~2.5 MiB for `displacement_distribution`, whose
histogram works in blocks of its own.  A sampler that allocates an n-sized
scratch array (8 MB at this n) fails.  `kl_shift_rate` on the CLI's 4001-node
grid holds no 32 x 4001 array (1 MB) either.
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


@pytest.mark.parametrize("name", KERNELS)
def test_peak_is_the_output_and_a_few_blocks(name):
    call, allowed = KERNELS[name]
    call(stream(5, "memory-warm-up", name))  # one-off first-call allocations
    rng = stream(5, "memory", name)
    tracemalloc.start()
    try:
        result = call(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parts = result if isinstance(result, tuple) else (result,)
    output = sum(np.asarray(part).nbytes for part in parts)
    assert peak - output <= allowed
