"""The four workloads: seeded inputs, the operations of one rep, oracle checks.

A rep is the list of operations a workload runs once; the harness times
each operation and repeats the rep.  Operations drive the CLI in-process
through `pfdensity.cli.run(argv)`, except two library calls the CLI does
not expose (`solve_coefficient_system`, `symmetric_eigen`).  Sizes are the
same on every seed; the seed picks inputs within fixed families.

Where a family scales the multiplier lam by a power of two (zeros, density),
the other inputs are scaled with it so that every seed is an exact binary
rescaling of the same problem: the program does the same floating-point
work and its outputs carry the same relative errors, so `accuracy_digits`
does not depend on the seed while every input and output byte does.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath
import numpy as np

from pfdensity import bell, cli, quadform

import oracles as orc

__all__ = ["Op", "Check", "OpFailed", "WORKLOADS"]


class OpFailed(Exception):
    """An operation exited non-zero or raised."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    outputs: tuple = ()                        # files the operation writes
    before: Optional[Callable[[], None]] = None  # untimed preparation


@dataclass
class Check:
    op: str
    label: str
    ok: bool
    err: Optional[float] = None   # relative error against an oracle value


@dataclass
class CliResult:
    stdout: str
    stderr: str


def _fmt(x) -> str:
    return repr(float(x))


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def cli_op(name: str, argv: list, outputs=(), before=None) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.run(argv)
        except SystemExit as exc:
            raise OpFailed(f"usage error {exc.code}: {err.getvalue()}") from None
        if rc != 0:
            raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
        return CliResult(out.getvalue(), err.getvalue())
    return Op(name, run, tuple(outputs), before)


def _read_csv(path) -> list:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:] if line]
    return rows


def _compare_value(check_list, op, label, got, want, tol):
    err = orc.rel_err(got, want)
    check_list.append(Check(op, label, err <= tol, err))


class Workload:
    name = ""
    why = ""
    predicted = ()     # layers expected to dominate the traced self time

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def ops(self) -> list:
        raise NotImplementedError

    def setup_code(self, out_path: str) -> str:
        """Python source for a fresh interpreter: import the CLI and write
        this workload's map or system JSON to `out_path`."""
        raise NotImplementedError

    def expected_real_zeros(self) -> int:
        return 0

    def check(self, results: dict) -> list:
        raise NotImplementedError


# --- zeros ------------------------------------------------------------------------

class Zeros(Workload):
    name = "zeros"
    why = ("128-bit Aberth on logistic H_64 (criterion 3's size) plus "
           "half-semicircle KS: loads poly (>90 %), bell little, bypasses "
           "saddle, odeiter, quadform, lorenz")
    predicted = ("poly",)
    N = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.lam = 2.0 ** self.rng.choice([-2, -1, 0, 1, 2])
        self.map_path = self.path("logistic.json")
        _write_json(self.map_path, {"coeffs": [0.0, self.lam, -0.5]})

    def setup_code(self, out_path):
        return ("import json, pfdensity.cli\n"
                "from pfdensity.bell import MapSpec1D\n"
                f"with open({out_path!r}, 'w') as fh:\n"
                f"    json.dump(MapSpec1D.logistic({self.lam!r}).to_json(), fh)\n")

    def _scaled_sample(self):
        # t = lam sqrt(y/n) / 2 for the positive zeros, as the paper scales them
        ys = [float(r[1]) for r in _read_csv(self.path("zeros.csv"))]
        ts = sorted(self.lam * math.sqrt(y / self.N) / 2.0 for y in ys if y > 0.0)
        with open(self.path("t.txt"), "w", encoding="utf-8") as fh:
            fh.write("".join(_fmt(t) + "\n" for t in ts))

    def ops(self):
        return [
            cli_op("hermite zeros", ["hermite", "zeros", "--map", self.map_path,
                                     "-n", str(self.N),
                                     "--out", self.path("zeros.csv")],
                   outputs=[self.path("zeros.csv")]),
            cli_op("compare half-semicircle",
                   ["compare", "--sample", self.path("t.txt"),
                    "--reference", "half-semicircle"],
                   before=self._scaled_sample),
        ]

    def expected_real_zeros(self):
        return self.N

    def check(self, results):
        checks = []
        op = "hermite zeros"
        ys = [float(r[1]) for r in _read_csv(self.path("zeros.csv"))]
        half = self.N // 2
        checks.append(Check(op, "count", len(ys) == self.N))
        checks.append(Check(op, "n/2-fold zero at the origin",
                            sum(1 for y in ys if y == 0.0) == half))
        positive = sorted(y for y in ys if y > 0.0)
        nodes = orc.hermite_positive_nodes(self.N)
        if len(positive) == len(nodes):
            with mpmath.workdps(orc.DPS):
                for y, h in zip(positive, nodes):
                    _compare_value(checks, op, "y = 2h^2/lam^2", y,
                                   2 * h * h / mpmath.mpf(self.lam) ** 2, 1e-12)
        else:
            checks.append(Check(op, "positive zero count", False))
        op = "compare half-semicircle"
        with open(self.path("t.txt"), encoding="utf-8") as fh:
            ts = [float(v) for v in fh.read().split()]
        got = json.loads(results[op].stdout)["distance"]
        _compare_value(checks, op, "KS vs mpmath", got, orc.half_semicircle_ks(ts), 1e-12)
        checks.append(Check(op, "KS < 0.06 (criterion 3)", got < 0.06))
        return checks


# --- chain ------------------------------------------------------------------------

class Chain(Workload):
    name = "chain"
    why = ("exact Fraction chains: hermite gen (logistic, quartic) and the "
           "triangular system at n=96: loads bell only, bypasses poly, "
           "saddle, empirical, odeiter")
    predicted = ("bell",)
    N_GEN = 64
    N_SOLVE = 96

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        r = self.rng
        self.lam = r.choice([-1.0, 1.0]) * 2.0
        self.quartic = [0.0, r.choice([-1.0, 1.0]) * 2.0, 0.0, 0.0,
                        r.choice([-1.0, 1.0]) * 0.0625]
        self.b_n = r.choice([-1.0, 1.0])
        self.log_path = self.path("logistic.json")
        self.quart_path = self.path("quartic.json")
        _write_json(self.log_path, {"coeffs": [0.0, self.lam, -0.5]})
        _write_json(self.quart_path, {"coeffs": self.quartic})

    def setup_code(self, out_path):
        return ("import json, pfdensity.cli\n"
                "from pfdensity.bell import MapSpec1D\n"
                f"with open({out_path!r}, 'w') as fh:\n"
                f"    json.dump([MapSpec1D.logistic({self.lam!r}).to_json(),\n"
                f"               MapSpec1D({self.quartic!r}).to_json()], fh)\n")

    def _solve(self):
        f = bell.MapSpec1D((0.0, self.lam, -0.5))
        return bell.solve_coefficient_system(f, self.N_SOLVE, self.b_n)

    def ops(self):
        return [
            cli_op("hermite gen logistic",
                   ["hermite", "gen", "--map", self.log_path, "-n", str(self.N_GEN),
                    "--out", self.path("gen_logistic.csv")],
                   outputs=[self.path("gen_logistic.csv")]),
            cli_op("hermite gen quartic",
                   ["hermite", "gen", "--map", self.quart_path, "-n", str(self.N_GEN),
                    "--out", self.path("gen_quartic.csv")],
                   outputs=[self.path("gen_quartic.csv")]),
            Op("solve_coefficient_system", self._solve),
        ]

    def _check_gen(self, checks, op, path, exact):
        rows = _read_csv(path)
        want_rows = sum(len(r) for r in exact)
        checks.append(Check(op, "row count", len(rows) == want_rows))
        for m_s, k_s, c_s in rows:
            m, k, got = int(m_s), int(k_s), float(c_s)
            want = exact[m][k] if m < len(exact) and k < len(exact[m]) else None
            if want is None:
                checks.append(Check(op, f"index ({m},{k})", False))
            elif want == 0:
                checks.append(Check(op, "exact zero", got == 0.0))
            else:
                _compare_value(checks, op, "coefficient", got, want, 4 * orc.UNIT_ROUNDOFF)

    def check(self, results):
        checks = []
        lam = Fraction(self.lam)
        h_log = orc.chain_coeffs([0, lam, Fraction(-1, 2)], self.N_SOLVE)
        # The oracle chain itself satisfies H_m(2; lam) = H_m^phys(lam).
        for m in range(self.N_SOLVE + 1):
            val = sum(c * 2 ** k for k, c in enumerate(h_log[m]))
            if val != orc.hermite_phys(m, lam):
                raise AssertionError(f"oracle chain breaks the Hermite correspondence at m={m}")
        self._check_gen(checks, "hermite gen logistic", self.path("gen_logistic.csv"),
                        h_log[:self.N_GEN + 1])
        self._check_gen(checks, "hermite gen quartic", self.path("gen_quartic.csv"),
                        orc.chain_coeffs([Fraction(c) for c in self.quartic], self.N_GEN))

        op = "solve_coefficient_system"
        cs = results[op]
        n = self.N_SOLVE
        b = orc.triangular_bstar(h_log, lam, n, Fraction(self.b_n))
        if any(orc.cancellation_residual(h_log, b, n)):
            raise AssertionError("oracle b* does not cancel the triangular system")
        checks.append(Check(op, "b_star length", len(cs.b_star) == n - 1))
        for m, got in enumerate(cs.b_star, start=1):
            _compare_value(checks, op, "b*_m", got, b[m], 4 * orc.UNIT_ROUNDOFF)
        for m, row in enumerate(cs.h):
            for k, got in enumerate(row):
                want = h_log[m][k]
                if want == 0:
                    checks.append(Check(op, "h exact zero", got == 0.0))
                else:
                    _compare_value(checks, op, "h_mk", got, want, 4 * orc.UNIT_ROUNDOFF)
        return checks


# --- density ----------------------------------------------------------------------

class Density(Workload):
    name = "density"
    why = ("saddle q and invariant p sweeps (logistic: closed-form quadratic "
           "roots; quartic: 53-bit Aberth) plus a 1e6-step orbit and arcsine "
           "KS: loads saddle, empirical, poly")
    predicted = ("saddle", "empirical")
    N_Q_LOG, N_P_LOG, N_Q_QUART, N_P_QUART = 4000, 1000, 1000, 500
    ORBIT_KEEP = 1_000_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        r = self.rng
        j = r.choice([-1, 0, 1, 2])
        self.lam = 2.0 ** j
        self.hi = 4.0 / (self.lam * self.lam)
        # lam a - a^4 / 4 rescaled with the logistic: a -> 2^j a, s -> 4^-j s
        self.quartic = [0.0, self.lam, 0.0, 0.0, -0.25 * 4.0 ** (-j)]
        self.s_star = float(orc.quartic_support_end(self.lam, self.quartic[4]))
        self.x0 = r.uniform(0.05, 0.95)
        self.log_path = self.path("logistic.json")
        self.quart_path = self.path("quartic.json")
        self.orbit_path = self.path("map4.json")
        _write_json(self.log_path, {"coeffs": [0.0, self.lam, -0.5]})
        _write_json(self.quart_path, {"coeffs": self.quartic})
        _write_json(self.orbit_path, {"coeffs": [0.0, 4.0, -4.0]})

    def setup_code(self, out_path):
        return ("import json, pfdensity.cli\n"
                "from pfdensity.bell import MapSpec1D\n"
                f"with open({out_path!r}, 'w') as fh:\n"
                f"    json.dump([MapSpec1D.logistic({self.lam!r}).to_json(),\n"
                f"               MapSpec1D({self.quartic!r}).to_json(),\n"
                f"               MapSpec1D((0.0, 4.0, -4.0)).to_json()], fh)\n")

    @staticmethod
    def _range(lo, hi, count):
        return f"{_fmt(lo)}:{_fmt(hi)}:{count}"

    def ops(self):
        hi, s_star = self.hi, self.s_star
        return [
            cli_op("density saddle logistic",
                   ["density", "saddle", "--map", self.log_path,
                    "--s", self._range(hi * 0.0005, hi * 0.9995, self.N_Q_LOG),
                    "--out", self.path("q_log.csv")], [self.path("q_log.csv")]),
            cli_op("density invariant logistic",
                   ["density", "invariant", "--map", self.log_path,
                    "--support", f"0:{_fmt(hi)}",
                    "--s", self._range(hi * 0.002, hi * 0.998, self.N_P_LOG),
                    "--out", self.path("p_log.csv")], [self.path("p_log.csv")]),
            cli_op("density saddle quartic",
                   ["density", "saddle", "--map", self.quart_path,
                    "--s", self._range(s_star * 0.02, s_star * 0.98, self.N_Q_QUART),
                    "--out", self.path("q_quart.csv")], [self.path("q_quart.csv")]),
            cli_op("density invariant quartic",
                   ["density", "invariant", "--map", self.quart_path,
                    "--support", f"0:{_fmt(s_star)}",
                    "--s", self._range(s_star * 0.1, s_star * 0.9, self.N_P_QUART),
                    "--out", self.path("p_quart.csv")], [self.path("p_quart.csv")]),
            cli_op("orbit",
                   ["--seed", str(self.seed), "orbit", "--map", self.orbit_path,
                    "--x0", _fmt(self.x0), "--burn", "1000",
                    "--keep", str(self.ORBIT_KEEP), "--bins", "200",
                    "--out", self.path("hist.csv")], [self.path("hist.csv")]),
            cli_op("compare arcsine",
                   ["compare", "--sample", self.path("hist.csv"),
                    "--reference", "arcsine", "--rescale"]),
        ]

    def _check_sweep(self, checks, op, path, count, oracle, tol):
        rows = _read_csv(path)
        checks.append(Check(op, "row count", len(rows) == count))
        for s_s, v_s in rows:
            want = oracle(float(s_s))
            if want is None:
                checks.append(Check(op, "oracle saddle exists", False))
            else:
                _compare_value(checks, op, "value", float(v_s), want, tol)

    def check(self, results):
        checks = []
        lam = self.lam
        self._check_sweep(checks, "density saddle logistic", self.path("q_log.csv"),
                          self.N_Q_LOG, lambda s: orc.logistic_q(lam, s), 1e-12)
        self._check_sweep(checks, "density invariant logistic", self.path("p_log.csv"),
                          self.N_P_LOG, lambda s: orc.logistic_p(lam, s), 1e-6)

        def quartic(index):
            def oracle(s):
                qp = orc.saddle_q_p(self.quartic, s)
                return None if qp is None else qp[index]
            return oracle

        self._check_sweep(checks, "density saddle quartic", self.path("q_quart.csv"),
                          self.N_Q_QUART, quartic(0), 1e-12)
        self._check_sweep(checks, "density invariant quartic", self.path("p_quart.csv"),
                          self.N_P_QUART, quartic(1), 1e-6)

        op = "orbit"
        rows = _read_csv(self.path("hist.csv"))
        edges = [float(r[0]) for r in rows] + [float(rows[-1][1])]
        counts = [int(r[2]) for r in rows]
        checks.append(Check(op, "bins", len(counts) == 200))
        checks.append(Check(op, "counts sum to keep", sum(counts) == self.ORBIT_KEEP))
        checks.append(Check(op, "nothing out of range",
                            "out_of_range" not in results[op].stderr))
        ks = orc.arcsine_histogram_ks(edges, counts)
        checks.append(Check(op, "arcsine KS < 0.01", float(ks) < 0.01))
        op = "compare arcsine"
        got = json.loads(results[op].stdout)["distance"]
        _compare_value(checks, op, "KS vs mpmath", got, ks, 1e-12)
        return checks


# --- lorenz -----------------------------------------------------------------------

SIGMA, RHO, BETA = 10.0, 28.0, 8.0 / 3.0


def _lorenz_json():
    def term(exps, coef):
        return {"exps": list(exps), "coef": coef}
    return {"dim": 3, "components": [
        [term((1, 0, 0), -SIGMA), term((0, 1, 0), SIGMA)],
        [term((1, 0, 0), RHO), term((0, 1, 0), -1.0), term((1, 0, 1), -1.0)],
        [term((0, 0, 1), -BETA), term((1, 1, 0), 1.0)],
    ]}


def _directions(count: int) -> list:
    """Fixed Fibonacci-sphere unit directions, none on the y = z = 0 axis."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    out = []
    for i in range(count):
        x = 1.0 - 2.0 * (i + 0.5) / count
        r = math.sqrt(1.0 - x * x)
        out.append((x, r * math.cos(golden * i), r * math.sin(golden * i)))
    return out


class Lorenz(Workload):
    name = "lorenz"
    why = ("Euler steps, Newton fixed points, Jacobian spectra, the Lorenz "
           "report and Jacobi eigen-splits: the only load on odeiter, quadform "
           "and lorenz; bypasses bell, saddle")
    predicted = ("odeiter",)
    STEPS = 40_000
    DELTA = 1e-3
    N_DIRECTIONS = 48

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        r = self.rng
        self.a0 = [r.uniform(-15.0, 15.0), r.uniform(-15.0, 15.0), r.uniform(5.0, 40.0)]
        self.sys_path = self.path("lorenz.json")
        _write_json(self.sys_path, _lorenz_json())
        self.fixed = [tuple(float(v) for v in p)
                      for p in orc.lorenz_fixed_points(RHO, BETA)]
        self.directions = _directions(self.N_DIRECTIONS)

    def setup_code(self, out_path):
        return ("import json, pfdensity.cli\n"
                "from pfdensity.lorenz import LorenzParams, lorenz_system\n"
                f"p = LorenzParams({SIGMA!r}, {RHO!r}, {BETA!r})\n"
                f"with open({out_path!r}, 'w') as fh:\n"
                "    json.dump(lorenz_system(p).to_json(), fh)\n")

    def _eigen_splits(self):
        out = []
        for _, y, z in self.directions:
            M = [[0.0, z, -y], [z, 0.0, 0.0], [-y, 0.0, 0.0]]
            out.append(quadform.symmetric_eigen(quadform.SymmetricForm.from_matrix(M)))
        return out

    def ops(self):
        ops = [
            cli_op("ode euler",
                   ["ode", "euler", "--system", self.sys_path,
                    "--a0=" + ",".join(_fmt(v) for v in self.a0),
                    "--delta", _fmt(self.DELTA), "--steps", str(self.STEPS),
                    "--out", self.path("euler.json")], [self.path("euler.json")]),
            cli_op("ode fixed-points",
                   ["ode", "fixed-points", "--system", self.sys_path,
                    "--radius", "10", "--out", self.path("fixed.json")],
                   [self.path("fixed.json")]),
        ]
        for i, pt in enumerate(self.fixed):
            ops.append(cli_op(f"ode frequencies {i}",
                              ["ode", "frequencies", "--system", self.sys_path,
                               "--a=" + ",".join(_fmt(v) for v in pt),
                               "--out", self.path(f"freq{i}.json")],
                              [self.path(f"freq{i}.json")]))
        ops.append(cli_op("lorenz report",
                          ["lorenz", "report", "--sigma", _fmt(SIGMA), "--rho", _fmt(RHO),
                           "--beta", _fmt(BETA), "--out", self.path("report.json")],
                          [self.path("report.json")]))
        ops.append(Op("symmetric_eigen", self._eigen_splits))
        return ops

    def _load(self, name):
        with open(self.path(name), encoding="utf-8") as fh:
            return json.load(fh)

    def _check_spectrum(self, checks, op, got_pairs, tag):
        got = [complex(re, im) for re, im in got_pairs]
        checks.append(Check(op, f"{tag} spectrum size", len(got) == 3))
        for w in orc.lorenz_cubic_roots(SIGMA, RHO, BETA, tag):
            if not got:
                break
            nearest = min(got, key=lambda g: abs(g - complex(w)))
            got.remove(nearest)
            _compare_value(checks, op, f"{tag} eigenvalue", nearest, w, 1e-10)

    def check(self, results):
        checks = []
        op = "ode euler"
        res = self._load("euler.json")
        a_n, S_n = np.array(res["a_n"]), np.array(res["S_n"])
        a0 = np.array(self.a0)
        resid = float(np.max(np.abs(a_n - a0 - self.DELTA * S_n)))
        # worst-case rounding of STEPS updates of a and S, |a| < 100
        checks.append(Check(op, "a_n - a_0 = delta S_n",
                            resid <= 2 * self.STEPS * orc.UNIT_ROUNDOFF * 100.0))
        checks.append(Check(op, "on the attractor",
                            abs(a_n[0]) < 30 and abs(a_n[1]) < 40 and 0 < a_n[2] < 60))
        checks.append(Check(op, "steps echoed", res["steps"] == self.STEPS))

        op = "ode fixed-points"
        pts = sorted(tuple(p) for p in self._load("fixed.json")["fixed_points"])
        want = orc.lorenz_fixed_points(RHO, BETA)
        checks.append(Check(op, "three fixed points", len(pts) == 3))
        for got, exact in zip(pts, want):
            for g, w in zip(got, exact):
                if w == 0:
                    checks.append(Check(op, "origin", abs(g) <= 1e-12))
                else:
                    _compare_value(checks, op, "coordinate", g, w, 1e-12)

        # self.fixed is (alpha_minus, theta, alpha_plus)
        for i, tag in enumerate(("alpha", "theta", "alpha")):
            op = f"ode frequencies {i}"
            res = self._load(f"freq{i}.json")
            self._check_spectrum(checks, op, res["eigenvalues"], tag)
            roots = orc.lorenz_cubic_roots(SIGMA, RHO, BETA, tag)
            real = [r.real for r in roots if abs(r.imag) < 1e-20]
            want_taus = sorted((-1 / r for r in real), reverse=True)
            checks.append(Check(op, "tau count", len(res["taus"]) == len(want_taus)))
            for g, w in zip(res["taus"], want_taus):
                _compare_value(checks, op, "tau = -1/lambda", g, w, 1e-10)
            positive = [w for w in want_taus if w > 0]
            if positive:
                _compare_value(checks, op, "critical tau", res["critical_tau"],
                               max(positive), 1e-10)
            else:
                checks.append(Check(op, "no critical tau", res["critical_tau"] is None))

        op = "lorenz report"
        rep = self._load("report.json")
        checks.append(Check(op, "fixed point tags",
                            [fp["tag"] for fp in rep["fixed_points"]]
                            == ["theta", "alpha_plus", "alpha_minus"]))
        for fp in rep["fixed_points"]:
            tag = "theta" if fp["tag"] == "theta" else "alpha"
            self._check_spectrum(checks, op, fp["eigenvalues"], tag)
            self._check_spectrum(checks, op, fp["characteristic_roots"], tag)

        op = "symmetric_eigen"
        for (_, y, z), (eig, T) in zip(self.directions, results[op]):
            mu = math.hypot(y, z)
            _compare_value(checks, op, "-mu", eig[0], -mu, 1e-12)
            _compare_value(checks, op, "+mu", eig[2], mu, 1e-12)
            checks.append(Check(op, "zero eigenvalue", abs(eig[1]) <= 1e-13 * mu))
            M = np.array([[0.0, z, -y], [z, 0.0, 0.0], [-y, 0.0, 0.0]])
            T = np.asarray(T)
            checks.append(Check(op, "orthonormal T",
                                float(np.max(np.abs(T.T @ T - np.eye(3)))) <= 1e-13))
            checks.append(Check(op, "M T = T D",
                                float(np.max(np.abs(M @ T - T * eig))) <= 1e-13 * mu))
        return checks


WORKLOADS = {w.name: w for w in (Zeros, Chain, Density, Lorenz)}
