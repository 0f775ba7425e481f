#!/usr/bin/env python3
"""Map the Stable/Sweeping boundary of the two-birth-rate switching model.

Scans a (b0, b1) grid at fixed c = mu = 1 with unit switching intensities and
writes one CSV row per point: r0, the small-population growth rate, the
integrability verdict, and the divergence exponent.  The zero crossing of r0
traces the extinction boundary.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from pdmpkit import BirthSwitchParams, classify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/stability_sweep.csv")
    parser.add_argument("--n", type=int, default=15, help="grid points per axis")
    args = parser.parse_args()

    b0s = np.linspace(0.05, 0.95, args.n)
    b1s = np.linspace(1.05, 3.0, args.n)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b0", "b1", "r0", "lambda_mean", "verdict",
                         "divergence_exponent"])
        for b0 in b0s:
            for b1 in b1s:
                p = BirthSwitchParams(b0=float(b0), b1=float(b1), c=1.0,
                                      mu=1.0, q0=1.0, q1=1.0)
                rep = classify(p.fields())
                writer.writerow([f"{b0:.17g}", f"{b1:.17g}", f"{rep.r0:.17g}",
                                 f"{rep.lambda_mean:.17g}", rep.verdict,
                                 f"{rep.divergence_exponent:.17g}"])
    print(f"wrote {out} ({args.n * args.n} parameter points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
