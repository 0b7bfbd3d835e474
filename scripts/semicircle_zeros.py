#!/usr/bin/env python3
"""Convergence of scaled generating-chain zeros to the half-semicircle law.

For the logistic map with multiplier lam, the real zeros of H_n(y) scaled
by t = lam*sqrt(y/n)/2 approach the semicircle density on (0, 1) as n
grows.  This script tabulates the KS distance for n = 8, 16, 32, 64 and
128 (roots at 128 bits above n = 40) and writes the scaled samples to CSV.
The whole run takes about 2 s on a 2-vCPU host (Python 3.11, mpmath 1.3
without gmpy2); n = 128 dominates, almost all of it its 128-bit root solve.

Usage: python scripts/semicircle_zeros.py [outdir]
"""

import sys
import time
from pathlib import Path

from pfdensity.bell import MapSpec1D, bell_sequence_exact
from pfdensity.empirical import (EmpiricalCDF, half_semicircle_cdf,
                                 ks_distance, zeros_to_scaled_sample)
from pfdensity.poly import poly_roots, real_zeros

LAM = 2.0
ORDERS = (8, 16, 32, 64, 128)


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    f = MapSpec1D.logistic(LAM)
    print(f"{'n':>4} {'kept':>5} {'dropped':>7} {'KS':>10} {'secs':>7}")
    for n in ORDERS:
        t0 = time.perf_counter()
        poly = bell_sequence_exact(f, n)[n]
        zeros = real_zeros(poly_roots(poly, 128 if n > 40 else 53))
        sample = zeros_to_scaled_sample(zeros, n, LAM)
        d = ks_distance(EmpiricalCDF.from_sample(sample.values),
                        half_semicircle_cdf)
        dt = time.perf_counter() - t0
        print(f"{n:>4} {len(sample.values):>5} {sample.dropped:>7} "
              f"{d:>10.5f} {dt:>7.2f}")
        path = outdir / f"scaled_zeros_n{n}.csv"
        with path.open("w") as fh:
            fh.write("index,t\n")
            for i, t in enumerate(sample.values):
                fh.write(f"{i},{t:.17g}\n")
    print(f"samples written to {outdir}/")


if __name__ == "__main__":
    main()
