#!/usr/bin/env python3
"""Measure how the bivector residual of the standard-score average shrinks.

For each trial count n, the residual norm |mean(lam) * (a x b)| is averaged
over a family of seeds; the fitted log-log slope against n should sit at
-1/2 (fair-coin cancellation rate).
"""

import argparse
import math

import numpy as np

from cliffsphere.epr import mean_residual_norms, residual_convergence_slope


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds (0..k-1)")
    parser.add_argument(
        "--sizes", default="100,1000,10000,100000,1000000",
        help="comma-separated trial counts",
    )
    return parser.parse_args()


def run():
    args = parse_args()
    sizes = sorted(int(s) for s in args.sizes.split(","))
    seeds = range(args.seeds)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    residuals = mean_residual_norms(a, b, seeds, sizes)

    print(f"{'n':>10}  {'mean residual':>14}  {'1/sqrt(n)':>12}")
    for n, residual in zip(sizes, residuals):
        print(f"{n:10d}  {residual:14.6e}  {1 / math.sqrt(n):12.6e}")

    slope = residual_convergence_slope(sizes, residuals)
    print(f"\nfitted log-log slope over {args.seeds} seeds: {slope:+.4f} (target -0.5)")


if __name__ == "__main__":
    run()
