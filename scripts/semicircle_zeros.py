#!/usr/bin/env python3
"""Convergence of scaled generating-chain zeros to the half-semicircle law.

For the logistic map with multiplier lam, the real zeros of H_n(y) scaled
by t = lam*sqrt(y/n)/2 approach the semicircle density on (0, 1) as n
grows.  This script tabulates the KS distance for n = 8, 16, ..., 2048,
fits log KS on log n by least squares and writes the scaled samples to
CSV.  The zeros come from bell.chain_roots, each certified to 2^-40.  The
whole run takes about 1.4 s on a 2-vCPU host (Python 3.11, numpy 2.4);
n = 2048 takes about 0.8 s of it, n = 1024 about 0.2 s and n <= 512
together about 0.2 s.

Usage: python scripts/semicircle_zeros.py [outdir]
"""

import sys
import time
from pathlib import Path

import numpy as np

from pfdensity.bell import MapSpec1D, chain_roots
from pfdensity.empirical import (EmpiricalCDF, half_semicircle_cdf,
                                 ks_distance, zeros_to_scaled_sample)
from pfdensity.poly import real_zeros

LAM = 2.0
ORDERS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    f = MapSpec1D.logistic(LAM)
    print(f"{'n':>4} {'kept':>5} {'dropped':>7} {'KS':>10} {'secs':>7}")
    ks = []
    for n in ORDERS:
        t0 = time.perf_counter()
        zeros = real_zeros(chain_roots(f, n))
        sample = zeros_to_scaled_sample(zeros, n, LAM)
        d = ks_distance(EmpiricalCDF.from_sample(sample.values),
                        half_semicircle_cdf)
        dt = time.perf_counter() - t0
        ks.append(d)
        print(f"{n:>4} {len(sample.values):>5} {sample.dropped:>7} "
              f"{d:>10.5f} {dt:>7.2f}")
        path = outdir / f"scaled_zeros_n{n}.csv"
        with path.open("w") as fh:
            fh.write("index,t\n")
            for i, t in enumerate(sample.values):
                fh.write(f"{i},{t:.17g}\n")
    slope, intercept = np.polyfit(np.log(ORDERS), np.log(ks), 1)
    print(f"least-squares fit: KS ~ {np.exp(intercept):.4f} * n^{slope:.3f}")
    print(f"samples written to {outdir}/")


if __name__ == "__main__":
    main()
