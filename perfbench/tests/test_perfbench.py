"""Tests of the benchmark itself: oracles reject perturbed outputs, self-time
arithmetic, metric names, and the refusal to run without the program.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import oracles as orc
import run
import tracing
from harness import END_TO_END_UNITS
from tracing import Span
from workloads import WORKLOADS, CliResult, Density, Zeros

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _write_zeros_outputs(wl, shift_index=None):
    """Correctly rounded zeros of H_64 (and the scaled sample), optionally
    with one positive zero moved by a relative 1e-6."""
    nodes = orc.hermite_positive_nodes(wl.N)
    with mpmath.workdps(orc.DPS):
        ys = [float(2 * h * h / mpmath.mpf(wl.lam) ** 2) for h in nodes]
    if shift_index is not None:
        ys[shift_index] *= 1.0 + 1e-6
    rows = [0.0] * (wl.N // 2) + sorted(ys)
    with open(wl.path("zeros.csv"), "w") as fh:
        fh.write("index,zero\n" + "".join(f"{i},{y!r}\n" for i, y in enumerate(rows)))
    wl._scaled_sample()
    with open(wl.path("t.txt")) as fh:
        ts = [float(v) for v in fh.read().split()]
    ks = float(orc.half_semicircle_ks(ts))
    return {"compare half-semicircle": CliResult(json.dumps({"distance": ks}), "")}


def test_zeros_oracle_accepts_exact_and_rejects_shifted_zero(tmp_path):
    wl = Zeros(3, str(tmp_path))
    checks = wl.check(_write_zeros_outputs(wl))
    assert checks and all(c.ok for c in checks)
    checks = wl.check(_write_zeros_outputs(wl, shift_index=5))
    bad = [c for c in checks if not c.ok]
    assert [(c.op, c.label) for c in bad] == [("hermite zeros", "y = 2h^2/lam^2")]
    assert bad[0].err == pytest.approx(1e-6, rel=1e-3)


def _q_sweep(tmp_path, perturb):
    wl = Density(2, str(tmp_path))
    lo, hi, count = wl.hi * 0.1, wl.hi * 0.9, 50
    path = wl.path("q.csv")
    with open(path, "w") as fh:
        fh.write("s,q\n")
        for k in range(count):
            s = lo + k * (hi - lo) / (count - 1)
            q = float(orc.logistic_q(wl.lam, s))
            if k == perturb:
                q *= 1.0 + 1e-6
            fh.write(f"{s!r},{q!r}\n")
    checks = []
    wl._check_sweep(checks, "density saddle logistic", path, count,
                    lambda s: orc.logistic_q(wl.lam, s), 1e-12)
    return checks


def test_q_oracle_rejects_value_off_by_1e_6(tmp_path):
    assert all(c.ok for c in _q_sweep(tmp_path, perturb=None))
    bad = [c for c in _q_sweep(tmp_path, perturb=7) if not c.ok]
    assert len(bad) == 1 and bad[0].err == pytest.approx(1e-6, rel=1e-3)


def test_quartic_oracle_matches_logistic_closed_form():
    # f = lam a - a^2/2 is a degree-2 map: the general saddle oracle must
    # reproduce the closed-form q and p.
    for s in (0.1, 0.5, 0.9):
        q, p = orc.saddle_q_p([0.0, 2.0, -0.5], s)
        assert orc.rel_err(q, orc.logistic_q(2.0, s)) < 1e-30
        assert orc.rel_err(p, orc.logistic_p(2.0, s)) < 1e-30


def test_chain_oracle_satisfies_hermite_correspondence():
    lam = Fraction(3, 4)
    h = orc.chain_coeffs([0, lam, Fraction(-1, 2)], 12)
    for m in range(13):
        assert sum(c * 2 ** k for k, c in enumerate(h[m])) == orc.hermite_phys(m, lam)
    b = orc.triangular_bstar(h, lam, 12, Fraction(1))
    assert not any(orc.cancellation_residual(h, b, 12))


def test_digits_floor_at_unit_roundoff():
    assert orc.digits(0.0) == orc.digits(orc.UNIT_ROUNDOFF) == -math.log10(2.0 ** -53)
    assert orc.digits(1e-6) == pytest.approx(6.0)


def test_self_time_on_hand_built_tree():
    #  root [0, 10]
    #  +- a [1, 4]          (child b overlaps a: union [1, 6] is 5)
    #  |  +- a1 [2, 3]
    #  +- b [3, 6]
    #  +- c [9, 12]         (clipped to the root's interval: 1)
    spans = [Span("cli.run", 0.0, 10.0, -1, "x"),
             Span("saddle.p", 1.0, 4.0, 0, "x"),
             Span("saddle.q", 2.0, 3.0, 1, "x"),
             Span("poly.roots", 3.0, 6.0, 0, "x"),
             Span("poly.roots", 9.0, 12.0, 0, "x")]
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]
    metrics, layers = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == 4.0
    assert metrics["poly.roots_s"] == 6.0
    assert metrics["saddle.q_per_p"] == 1.0
    assert layers["saddle"] == 3.0
    holds, ranking = tracing.dominant_layers(layers, ("poly",))
    assert holds and ranking[0] == ("poly", 6.0)
    assert not tracing.dominant_layers(layers, ("saddle",))[0]


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == END_TO_END_UNITS
    assert per_layer == tracing.PER_LAYER_UNITS
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    for name in list(e2e) + list(per_layer) + names:
        assert NAME.fullmatch(name), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
