#!/usr/bin/env python3
"""End-to-end Lorenz study: fixed points and spectra, the orthogonal
decomposition along a grid of projection axes, admissibility of the cycle
density, and a long Euler trajectory for comparison.

Usage: python scripts/lorenz_study.py [sigma rho beta] [outpath.json]
"""

import json
import sys

import numpy as np

from pfdensity.lorenz import (LorenzParams, cycle_sample, lorenz_report,
                              lorenz_system, q_decomposition)
from pfdensity.odeiter import DifferentialIteration, euler_iterate


def main() -> None:
    if len(sys.argv) >= 4:
        p = LorenzParams(float(sys.argv[1]), float(sys.argv[2]),
                         float(sys.argv[3]))
        outpath = sys.argv[4] if len(sys.argv) > 4 else "lorenz_report.json"
    else:
        p = LorenzParams(10.0, 28.0, 8.0 / 3.0)
        outpath = sys.argv[1] if len(sys.argv) > 1 else "lorenz_report.json"

    report = lorenz_report(p, delta=1e-3)
    with open(outpath, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print(f"sigma={p.sigma:g} rho={p.rho:g} beta={p.beta:g} alpha={p.alpha}")
    for fp in report["fixed_points"]:
        eig = ", ".join(f"{re:+.4f}{im:+.4f}j" if im else f"{re:+.4f}"
                        for re, im in fp["eigenvalues"])
        print(f"  {fp['tag']:<12} point={np.round(fp['point'], 4)} "
              f"eigenvalues: {eig}")

    mask = report["admissible_mask"]
    dens = report["density_samples"]
    print(f"admissible directions: {sum(mask)}/{len(mask)}; "
          f"max cycle density on grid: {max(dens):.5f}")

    # the reduced slice l1 = l3 = 0 parametrised by s
    print("cycle density on the reduced slice (r, s, t) = (s sqrt2, s, -s):")
    for s in (0.25, 0.5, 1.0, 2.0, 2.8, 3.0):
        cs = cycle_sample(q_decomposition((s * np.sqrt(2.0), s, -s)))
        flag = "admissible" if cs.admissible else "outside"
        print(f"  s={s:<4} l2={cs.l2:+.4f} mu={cs.mu:.4f} "
              f"q={cs.density:.5f} ({flag})")

    sys3 = lorenz_system(p)
    it = DifferentialIteration(sys3, delta=1e-3, n=50_000)
    a_n, S_n = euler_iterate(it, [1.0, 1.0, 1.0])
    resid = np.max(np.abs((a_n - np.array([1.0, 1.0, 1.0])) - it.delta * S_n))
    print(f"euler t={it.horizon:g}: a_n={np.round(a_n, 4)} "
          f"partial-sum residual {resid:.2e}")
    print(f"report written to {outpath}")


if __name__ == "__main__":
    main()
