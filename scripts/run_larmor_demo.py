#!/usr/bin/env python3
"""Larmor precession demo for the two-component field solver.

Evolves an equal-superposition Gaussian packet in a uniform B_z field and
reports the relative phase between the spin components, which should grow
linearly at the rate B_z, alongside norm and population drift.
"""

import argparse

import numpy as np

from spinmodel import pauli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b-z", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=0.001)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--report-every", type=int, default=200)
    args = parser.parse_args()

    grid = pauli.SpatialGrid(1, 256, 20.0)
    packet = pauli.gaussian_packet(grid)
    state = pauli.SpinorField.normalized(grid, packet, packet)
    config = pauli.FieldConfig(b_z=args.b_z)
    expected_rate = args.b_z

    print(f"expected relative-phase rate: {expected_rate:.6f}")
    print("t, relative_phase, norm_drift, population_up")
    phase0 = pauli.relative_phase(state)
    for block in range(args.steps // args.report_every):
        state = pauli.evolve(state, config, args.dt, args.report_every)
        t = (block + 1) * args.report_every * args.dt
        phase = np.unwrap([phase0, pauli.relative_phase(state)])[1]
        drift = abs(pauli.norm(state) - 1.0)
        up, _ = pauli.spin_populations(state)
        print(f"{t:.3f}, {phase - phase0:.6f}, {drift:.3e}, {up:.12f}")


if __name__ == "__main__":
    main()
