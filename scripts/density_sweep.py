#!/usr/bin/env python3
"""Sweep the saddle-point zero density q(s) and the invariant density
p(s) = -s q'(s) for a logistic-family map, against the closed forms,
and cross-check the orbit histogram of the chaotic member.

Usage: python scripts/density_sweep.py [lam] [outdir]
"""

import sys
from pathlib import Path

from pfdensity.bell import MapSpec1D
from pfdensity.empirical import (Histogram, arcsine_cdf, histogram_ks,
                                 iterate_orbit, rescale)
from pfdensity.saddle import (logistic_closed_p, logistic_closed_q,
                              logistic_p_mass, saddle_sweep)

GRID = 199


def main() -> None:
    lam = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    outdir = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    f = MapSpec1D.logistic(lam)
    hi = 4.0 / (lam * lam)

    worst_q = worst_p = 0.0
    grid = [hi * k / (GRID + 1) for k in range(1, GRID + 1)]
    sweep = saddle_sweep(f, grid)
    path = outdir / f"density_lam{lam:g}.csv"
    with path.open("w") as fh:
        fh.write("s,q,q_closed,p,p_closed\n")
        for s, q, p in zip(grid, sweep.q.tolist(), sweep.p.tolist()):
            qc = logistic_closed_q(lam, s)
            pc = logistic_closed_p(lam, s)
            worst_q = max(worst_q, abs(q - qc))
            worst_p = max(worst_p, abs(p - pc) / max(1.0, pc))
            fh.write(f"{s:.17g},{q:.17g},{qc:.17g},{p:.17g},{pc:.17g}\n")
    print(f"lam={lam:g}: worst |q - closed| = {worst_q:.3e}, "
          f"worst rel p error = {worst_p:.3e}")
    print(f"raw p mass over (0, {hi:g}) = {logistic_p_mass(lam):.9f} "
          "(the closed form carries mass 1/2)")

    if abs(lam - 4.0) < 1e-12:
        hist = iterate_orbit(f, 1.7, burn=1000, keep=1_000_000)
        scaled = Histogram(edges=rescale(hist.edges, 0.0, 1.0),
                           counts=hist.counts, total=hist.total)
        print(f"chaotic orbit KS vs arcsine: "
              f"{histogram_ks(scaled, arcsine_cdf):.5f}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
