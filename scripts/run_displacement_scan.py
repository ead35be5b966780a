#!/usr/bin/env python3
"""Beam-displacement histograms in the weak-gradient regime.

For each order m, samples the continuous screen displacement and compares
the histogram against the analytic change-of-variables density; as m
grows the distribution concentrates at the two extreme displacements,
approaching the quantized two-spot pattern.
"""

import argparse
import csv
import sys

from spinmodel import stern_gerlach as sg
from spinmodel.streams import stream


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", default="1,3,10,50")
    parser.add_argument("--samples", type=int, default=200000)
    parser.add_argument("--bins", type=int, default=101)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args()

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["order_m", "bin_center", "empirical_density", "analytic_density"])
    for m in (int(v) for v in args.orders.split(",")):
        config = sg.ApparatusConfig(m=m)
        rng = stream(args.seed, "displacement-scan", m)
        edges, counts = sg.displacement_histogram(
            config, args.samples, rng, args.bins
        )
        rows = sg.histogram_rows(edges, counts)
        centers = [0.5 * (left + right) for left, right, _, _ in rows]
        analytic = sg.displacement_density(centers, m, config.gradient, config.transit_time)
        for c, (_, _, _, e), a in zip(centers, rows, analytic.tolist()):
            writer.writerow([m, c, e, a])
    if args.out:
        out.close()
        print(f"wrote histograms to {args.out}")


if __name__ == "__main__":
    main()
