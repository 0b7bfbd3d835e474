"""Command-line interface; emits CSV/JSON for plotting and golden files.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error.  All numeric CSV fields carry 17 significant digits so
64-bit floats round-trip exactly; outputs are byte-identical for
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bell, empirical, lorenz, odeiter, saddle
from .errors import DomainError, EmptySample, ToolkitError
from .poly import real_zeros

__all__ = ["main", "run"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_range(spec: str):
    """lo:hi:count range flag."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be lo:hi:count, got {spec!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise argparse.ArgumentTypeError("range count must be >= 1")
    return lo, hi, count


def _range_points(rng):
    lo, hi, count = rng
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _parse_interval(spec: str):
    parts = spec.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"interval must be lo:hi, got {spec!r}")
    return float(parts[0]), float(parts[1])


def _parse_point(spec: str, flag: str):
    point = [float(v) for v in spec.split(",")]
    if not all(math.isfinite(v) for v in point):
        raise ValueError(f"{flag} {spec!r} is not finite")
    return point


def _load_map(path: str) -> bell.MapSpec1D:
    with open(path, encoding="utf-8") as fh:
        return bell.MapSpec1D.from_json(json.load(fh))


def _load_system(path: str) -> odeiter.OdeSystem:
    with open(path, encoding="utf-8") as fh:
        return odeiter.OdeSystem.from_json(json.load(fh))


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_hermite(args) -> int:
    f = _load_map(args.map)
    if args.action == "gen":
        seq = bell.bell_sequence(f, args.n)
        lines = ["m,k,coeff"]
        for m, p in enumerate(seq):
            for k, c in enumerate(p.coeffs):
                lines.append(f"{m},{k},{_fmt(c)}")
        _write_lines(args.out, lines)
        return 0
    # zeros
    zeros = real_zeros(bell.chain_roots(f, args.n))
    lines = ["index,zero"]
    for i, z in enumerate(zeros):
        lines.append(f"{i},{_fmt(z)}")
    _write_lines(args.out, lines)
    return 0


def _cmd_density(args) -> int:
    f = _load_map(args.map)
    points = _range_points(args.s)
    if args.action == "invariant" and args.support is not None:
        lo, hi = args.support
        for s in points:
            if not lo < s < hi:
                raise DomainError(f"s={s!r} outside the support ({lo!r}, {hi!r})")
    sweep = saddle.saddle_sweep(f, points)
    header, values = ("s,q", sweep.q) if args.action == "saddle" else ("s,p", sweep.p)
    _write_lines(args.out,
                 [header] + [f"{_fmt(s)},{_fmt(v)}" for s, v in zip(points, values)])
    return 0


def _cmd_orbit(args) -> int:
    f = _load_map(args.map)
    hist = empirical.iterate_orbit(f, args.x0, args.burn, args.keep,
                                   seed=args.seed, bins=args.bins)
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
        lines.append(f"{_fmt(lo)},{_fmt(hi)},{int(c)}")
    _write_lines(args.out, lines)
    return 0


def _cmd_ode(args) -> int:
    sys_ = _load_system(args.system)
    if args.action == "fixed-points":
        pts, dropped = odeiter.fixed_points(sys_, radius=args.radius)
        _write_json(args.out, {
            "fixed_points": [[float(v) for v in p] for p in pts],
            "non_converged_seeds": dropped,
        })
        return 0
    if args.action == "frequencies":
        res = odeiter.critical_frequencies(sys_, _parse_point(args.a, "--a"))
        _write_json(args.out, {
            "a": [float(v) for v in res.a],
            "taus": list(res.taus),
            "critical_tau": res.critical_tau,
            "eigenvector": None if res.eigenvector is None
                           else [float(v) for v in res.eigenvector],
            "singular_taus": list(res.taus),  # kept in the schema; equals taus
            "eigenvalues": [[z.real, z.imag] for z in res.eigenvalues],
        })
        return 0
    # euler
    it = odeiter.DifferentialIteration(sys_, args.delta, args.steps)
    a_n, S_n = odeiter.euler_iterate(it, _parse_point(args.a0, "--a0"))
    _write_json(args.out, {
        "a_n": [float(v) for v in a_n],
        "S_n": [float(v) for v in S_n],
        "delta": args.delta,
        "steps": args.steps,
    })
    return 0


def _cmd_lorenz(args) -> int:
    p = lorenz.LorenzParams(args.sigma, args.rho, args.beta)
    report = lorenz.lorenz_report(p, delta=args.delta)
    _write_json(args.out, report)
    return 0


_REFERENCES = {
    "arcsine": lambda x: empirical.arcsine_cdf(x, 0.0, 1.0),
    "half-semicircle": empirical.half_semicircle_cdf,
    "uniform": lambda x: min(1.0, max(0.0, x)),
}


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"sample value {text.strip()!r} is not finite")
    return x


def _read_sample(path: str):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        rest = fh.read().splitlines()
    if first.startswith("bin_lo"):
        rows = [line.split(",") for line in rest if line]
        if not rows:
            raise EmptySample("the histogram has a header and no rows")
        if any(len(r) < 3 for r in rows):
            raise ValueError("every histogram row needs bin_lo,bin_hi,count")
        edges = [_finite(r[0]) for r in rows] + [_finite(rows[-1][1])]
        counts = [int(r[2]) for r in rows]
        return "histogram", (np.array(edges), np.array(counts))
    values = []
    for line in [first] + rest:
        line = line.strip()
        if line and line != "value":
            values.append(_finite(line))
    return "sample", np.array(values)


def _cmd_compare(args) -> int:
    ref = _REFERENCES[args.reference]
    kind, data = _read_sample(args.sample)
    if kind == "histogram":
        edges, counts = data
        if args.rescale:
            edges = empirical.rescale(edges, 0.0, 1.0)
        hist = empirical.Histogram(edges=edges, counts=counts,
                                   total=int(counts.sum()))
        ks = empirical.histogram_ks(hist, ref)
        xs = hist.edges
        emp = hist.cdf_at_edges()
    else:
        values = empirical.rescale(data, 0.0, 1.0) if args.rescale else data
        ecdf = empirical.EmpiricalCDF.from_sample(values)
        ks = empirical.ks_distance(ecdf, ref)
        xs = ecdf.points
        n = len(ecdf)
        emp = [(k + 1) / n for k in range(n)]
    if args.out:
        lines = ["x,empirical,reference"]
        lines += [f"{_fmt(x)},{_fmt(e)},{_fmt(ref(float(x)))}"
                  for x, e in zip(xs, emp)]
        _write_lines(args.out, lines)
    print(json.dumps({"metric": "ks", "distance": ks,
                      "reference": args.reference}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pfdensity",
        description="Invariant densities of bounded polynomial iterations")
    ap.add_argument("--seed", type=int, default=0, help="orbit seed (default 0)")
    sub = ap.add_subparsers(dest="command", required=True)

    hermite = sub.add_parser("hermite", help="generating-chain polynomials")
    hermite.add_argument("action", choices=["gen", "zeros"])
    hermite.add_argument("--map", required=True, help="map JSON path")
    hermite.add_argument("-n", type=int, required=True)
    hermite.add_argument("--out", default=None)
    hermite.set_defaults(fn=_cmd_hermite)

    density = sub.add_parser("density", help="zero / invariant densities")
    density.add_argument("action", choices=["saddle", "invariant"])
    density.add_argument("--map", required=True)
    density.add_argument("--s", type=_parse_range, required=True,
                         metavar="LO:HI:COUNT")
    density.add_argument("--support", type=_parse_interval, default=None,
                         metavar="LO:HI",
                         help="invariant: every s must lie inside (LO, HI)")
    density.add_argument("--out", default=None)
    density.set_defaults(fn=_cmd_density)

    orbit = sub.add_parser("orbit", help="orbit histogram")
    orbit.add_argument("--map", required=True)
    orbit.add_argument("--x0", type=float, required=True)
    orbit.add_argument("--burn", type=int, default=1000)
    orbit.add_argument("--keep", type=int, default=100000)
    orbit.add_argument("--bins", type=int, default=200)
    orbit.add_argument("--out", default=None)
    orbit.set_defaults(fn=_cmd_orbit)

    ode = sub.add_parser("ode", help="differential-iteration tools")
    ode.add_argument("action", choices=["fixed-points", "frequencies", "euler"])
    ode.add_argument("--system", required=True, help="system JSON path")
    ode.add_argument("--radius", type=float, default=2.0)
    ode.add_argument("--a", default=None, help="evaluation point x,y,...")
    ode.add_argument("--a0", default=None, help="initial point x,y,...")
    ode.add_argument("--delta", type=float, default=1e-3)
    ode.add_argument("--steps", type=int, default=1000)
    ode.add_argument("--out", default=None)
    ode.set_defaults(fn=_cmd_ode)

    lz = sub.add_parser("lorenz", help="Lorenz case study")
    lz.add_argument("action", choices=["report"])
    lz.add_argument("--sigma", type=float, required=True)
    lz.add_argument("--rho", type=float, required=True)
    lz.add_argument("--beta", type=float, required=True)
    lz.add_argument("--delta", type=float, default=1e-3)
    lz.add_argument("--out", default=None)
    lz.set_defaults(fn=_cmd_lorenz)

    cmp_ = sub.add_parser("compare", help="empirical vs reference CDF")
    cmp_.add_argument("--sample", required=True,
                      help="value-per-line file or bin_lo,bin_hi,count CSV")
    cmp_.add_argument("--reference", choices=sorted(_REFERENCES), required=True)
    cmp_.add_argument("--rescale", action="store_true",
                      help="affine-rescale the sample support onto [0, 1]")
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(fn=_cmd_compare)

    return ap


def run(argv) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command == "ode":
        if args.action == "frequencies" and args.a is None:
            ap.error("ode frequencies requires --a")
        if args.action == "euler" and args.a0 is None:
            ap.error("ode euler requires --a0")
    try:
        return args.fn(args)
    except (ToolkitError, ValueError, OSError, json.JSONDecodeError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
