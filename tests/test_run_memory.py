"""Peak memory of the grid runners, traced by tracemalloc.

A run holds an array only until its last use: `run_variational` solves
each order once and releases its grid before the next order's, and
`run_pauli` releases the packet and the initial spinor once consumed and
reads the populations in one pass.  Holding each order's two solves, or
every array to the end of the run, peaks at 8 grid arrays and 11 spinor
components.
"""

import tracemalloc

from spinmodel import cli

VARIATIONAL_NODES = 200_000  # a grid array is 8 bytes a node
PAULI_NODES = 2**16  # a spinor component is 16 bytes a node


def _peak(runner, subcommand, **given):
    config = cli.merge_config(cli.SCHEMA[subcommand], {}, given)
    runner(config, 42)  # one-off first-call allocations
    tracemalloc.start()
    try:
        runner(config, 42)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_variational_holds_one_order_at_a_time():
    # one solve's theta grid and density, its closed-form error and the
    # solve's own temporaries: 5.0 grid arrays
    peak = _peak(cli.run_variational, "variational", nodes=VARIATIONAL_NODES)
    assert peak <= 5.5 * 8 * VARIATIONAL_NODES


def test_pauli_holds_the_spinor_it_reports():
    # the stepped spinor (2 components) and the row export at the default
    # stride of 8 (3.7): 5.7 complex component arrays
    assert _peak(cli.run_pauli, "pauli", nodes=PAULI_NODES) <= 6 * 16 * PAULI_NODES
