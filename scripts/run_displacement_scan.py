#!/usr/bin/env python3
"""Beam-displacement histograms in the weak-gradient regime.

For each order m, samples the continuous screen displacement and compares
the histogram against the analytic change-of-variables density.  In units
of its scale k the displacement does not become two spots as m grows:
(m + 1/2) sin^2(theta) tends to a Gamma(1/2, 1) variate G, so |z|/k tends to
e^-G, and P(|z|/k < 1/2) tends to erfc(sqrt(ln 2)) = 0.2390 at every large m.
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
