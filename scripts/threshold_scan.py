#!/usr/bin/env python3
"""Sweep the carrier wavenumber through the instability threshold.

For beta > 0 the {-1,0} eigenvalue collision switches on at
k = (4*gamma/beta)**(1/4); above it, ``predicted`` is its leading-order
growth rate k^2*a*sqrt(xi0*(1 - xi0)).  Below it ``predicted`` is 0, but
``growth`` need not be: the sweep can catch the modulational bubble
next to xi = 0, of order a^2, when a grid point falls inside it (whether
one does depends on a and k).  So growth does not jump from zero at the
threshold.  Writes one CSV row per k.

Example:
    python scripts/threshold_scan.py --beta 1 --gamma 1 --a 0.005 \
        --k-lo 1.2 --k-hi 2.4 --num 25 --out threshold_scan.csv
"""

import argparse
import csv
import sys

import numpy as np

from ostro_stab import (
    NotUnstable,
    PhysicalParams,
    TruncationConfig,
    collision_xi,
    instability_threshold_dn1,
    max_growth,
    predicted_growth_rate,
    stokes_coefficients,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--a", type=float, default=0.005)
    ap.add_argument("--k-lo", type=float, default=1.2)
    ap.add_argument("--k-hi", type=float, default=2.4)
    ap.add_argument("--num", type=int, default=25)
    ap.add_argument("--N", type=int, default=32)
    ap.add_argument("--out", default="-")
    args = ap.parse_args(argv)

    k_star = instability_threshold_dn1(args.beta, args.gamma)
    print(f"threshold k = {k_star:.6f}", file=sys.stderr)

    cfg = TruncationConfig(N=args.N)
    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(fh)
    writer.writerow(["k", "growth", "xi_star", "predicted"])
    for k in np.linspace(args.k_lo, args.k_hi, args.num):
        wave = stokes_coefficients(PhysicalParams(args.beta, args.gamma, float(k)))
        xi_star, growth, _ = max_growth(wave, args.a, cfg)
        predicted = 0.0
        xis = collision_xi(wave.params, -1, 0)
        if xis:
            try:
                predicted = predicted_growth_rate(wave, -1, xis[0], args.a)
            except NotUnstable:
                pass
        writer.writerow([f"{k:.6f}", repr(growth), f"{xi_star:.6f}",
                         repr(predicted)])
    if fh is not sys.stdout:
        fh.close()
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
