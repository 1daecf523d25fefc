#!/usr/bin/env python3
"""Run both correlation estimators over an angle sweep and print the table.

The standard-score column traces -cos(theta); the raw-score column is -1 at
every angle.  Pass --out to also write correlations.csv and manifest.json
through the CLI.
"""

import argparse

from cliffsphere.cli import main as cli_main
from cliffsphere.epr import SweepSpec, orientation_counts, sweep


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--start", type=float, default=0.0)
    parser.add_argument("--stop", type=float, default=180.0)
    parser.add_argument("--steps", type=int, default=19)
    parser.add_argument("--out", default=None, help="also write CSV + manifest here")
    return parser.parse_args()


def run():
    args = parse_args()
    spec = SweepSpec(start_deg=args.start, stop_deg=args.stop, steps=args.steps)
    rows = sweep(spec, orientation_counts(args.seed, args.trials))
    print(f"{'theta':>8}  {'raw':>6}  {'standard':>20}  {'resid norm':>12}  {'3*stderr':>12}")
    for r in rows:
        print(
            f"{r['theta_deg']:8.2f}  {r['raw_mean']:6.1f}  {r['std_scalar']:20.16f}  "
            f"{r['resid_norm']:12.3e}  {3 * r['stderr']:12.3e}"
        )
    if args.out is not None:
        # "--sweep=" keeps argparse from reading a negative start as a flag
        code = cli_main(
            ["simulate", "--trials", str(args.trials), "--seed", str(args.seed),
             f"--sweep={args.start}:{args.stop}:{args.steps}", "--out", args.out]
        )
        raise SystemExit(code)


if __name__ == "__main__":
    run()
