"""Peak memory of the Pauli solver and diagnostics, traced by tracemalloc.

At 2-D 256^2 one spinor component, a complex grid array, is 1 MiB, and a
real grid array is half of that.  Each diagnostic takes one component at a
time, so it holds about two component arrays at most; one that takes the
stacked spinor, or keeps a complex temporary per axis or per term, holds
four to seven (4.5 to 6.5 MiB before the diagnostics were rebuilt in place).
A one-step `evolve` holds its phase factors on the fields' own shape and
the kinetic phase on the grid's, besides the stepped copy it returns.
"""

import math
import tracemalloc

import numpy as np
import pytest

from spinmodel import pauli

GRID = pauli.SpatialGrid(2, 256, 20.0)
COMPONENT = 16 * GRID.nodes**2  # bytes of one complex component array
DT = 1e-3


def _packet():
    x, y = GRID.coordinates()
    return np.exp(-(x**2 + y**2) / 4.0 + 0.5j * x)


def _snapshots():
    packet = _packet()
    state = pauli.SpinorField.normalized(
        GRID, math.sqrt(0.6) * packet, math.sqrt(0.4) * packet
    )
    config = pauli.FieldConfig(b_z=1.0)
    snaps = [state]
    for _ in range(2):
        snaps.append(pauli.evolve(snaps[-1], config, DT, 1))
    return snaps, config


SNAPS, CONFIG = _snapshots()
PACKET = _packet()
GRID_FIELD = pauli.FieldConfig(b_z=np.exp(-GRID.coordinates()[0] ** 2))

# name -> (call, bound in component arrays beyond the output, and why)
DIAGNOSTICS = {
    # the kinetic phase (1) and the finiteness mask of the stepped spinor
    # (1/8); a scalar field's potential phase holds two values
    "evolve": (lambda: pauli.evolve(SNAPS[0], CONFIG, DT, 1), 1.25),
    # the grid-shaped potential (1), its phase factors (2), the kinetic phase
    # (1) and the mask (1/8); full = half * half (2 more) only from two steps
    "evolve_grid_field": (lambda: pauli.evolve(SNAPS[0], GRID_FIELD, DT, 1), 4.25),
    # the spectrum of the middle snapshot (1), the density difference and
    # |k|^2 (1/2 each), and the mask's index arrays
    "continuity_residual": (
        lambda: pauli.continuity_residual(SNAPS, DT, CONFIG), 2.25
    ),
    # one gradient buffer (1) and rho (1/2), and the masked terms, each at
    # most 1/2 (here rho > HJ_FLOOR holds on 18 % of the grid)
    "hj_residual": (lambda: pauli.hj_residual(SNAPS, DT, CONFIG), 2.5),
    # one spectrum buffer (1) and one density buffer (1/2), shared by both
    # components
    "total_energy": (lambda: pauli.total_energy(SNAPS[1], CONFIG), 1.75),
    # one density at a time (1/2)
    "spin_populations": (lambda: pauli.spin_populations(SNAPS[1]), 0.75),
    # the two densities (1/2 each); the difference and the product with the
    # grid-shaped B_z are taken in place in the first
    "zeeman_energy": (lambda: pauli.zeeman_energy(SNAPS[1], GRID_FIELD), 1.25),
    # the two densities, summed in place (1); the output is the spinor itself
    "normalized": (lambda: pauli.SpinorField.normalized(GRID, PACKET, PACKET), 1.25),
}


def _peak_beyond_output(call):
    call()  # one-off first-call allocations
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - (result.psi.nbytes if isinstance(result, pauli.SpinorField) else 0)


@pytest.mark.parametrize("name", DIAGNOSTICS)
def test_peak_is_about_two_component_arrays(name):
    call, components = DIAGNOSTICS[name]
    assert _peak_beyond_output(call) <= components * COMPONENT
