import ast
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pfdensity
from pfdensity import bell, cli, errors
from pfdensity.cli import _write_json, run
from pfdensity.poly import poly_roots
from pfdensity.saddle import logistic_closed_q


@pytest.fixture
def logistic_map_file(tmp_path):
    path = tmp_path / "logistic2.json"
    path.write_text(json.dumps({"coeffs": [0.0, 2.0, -0.5]}))
    return str(path)


@pytest.fixture
def lorenz_system_file(tmp_path):
    sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
    obj = {
        "dim": 3,
        "components": [
            [{"exps": [1, 0, 0], "coef": -sigma}, {"exps": [0, 1, 0], "coef": sigma}],
            [{"exps": [1, 0, 0], "coef": rho}, {"exps": [0, 1, 0], "coef": -1.0},
             {"exps": [1, 0, 1], "coef": -1.0}],
            [{"exps": [0, 0, 1], "coef": -beta}, {"exps": [1, 1, 0], "coef": 1.0}],
        ],
    }
    path = tmp_path / "lorenz.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_hermite_zeros_row_count(logistic_map_file, tmp_path):
    out = tmp_path / "zeros.csv"
    code = run(["hermite", "zeros", "--map", logistic_map_file, "-n", "16",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,zero"
    assert len(lines) == 17
    zeros = [float(line.split(",")[1]) for line in lines[1:]]
    assert zeros == sorted(zeros)
    # half the zeros sit at the origin, half are positive
    assert sum(1 for z in zeros if z == 0.0) == 8
    assert sum(1 for z in zeros if z > 0.0) == 8


# SHA-256 of `hermite zeros -n 64` for f = 2a - a^4/16, written before the
# chain solver: this chain has complex zeros, so it keeps the poly_roots path.
QUARTIC_ZEROS_SHA256 = "c0b61d7c88669e59d766edca53f724ab978fbc0ec4ea1c929ff63e64b959a440"


def test_hermite_zeros_complex_rooted_chain_golden_bytes(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bell, "poly_roots", lambda p: calls.append(p) or poly_roots(p))
    quartic = tmp_path / "quartic.json"
    quartic.write_text(json.dumps({"coeffs": [0.0, 2.0, 0.0, 0.0, -0.0625]}))
    out = tmp_path / "zeros.csv"
    assert run(["hermite", "zeros", "--map", str(quartic), "-n", "64",
                "--out", str(out)]) == 0
    assert len(calls) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == QUARTIC_ZEROS_SHA256


# SHA-256 of `hermite zeros` for two real-rooted chains that chain_roots
# certifies with no poly_roots fallback, written before their signs were
# decided by one exact recurrence: logistic lam = 2 at n = 256 (interval
# ratios) and m_hermite(2, 3) at n = 64 (int balls).
CERTIFIED_ZEROS_SHA256 = {
    ((0.0, 2.0, -0.5), 256):
        "3f41d6e8756596715e0a7fcc24ee2c41d5bc93669222ab4361ad8cbb8e97628a",
    ((0.0, 2.0, 0.0, -1.0 / 3.0), 64):
        "3b27b478993285570f061ea1740077035f1d024fe88c6515adbd164be34af279",
}


@pytest.mark.parametrize("coeffs,n", sorted(CERTIFIED_ZEROS_SHA256))
def test_hermite_zeros_certified_chain_golden_bytes(tmp_path, monkeypatch, coeffs, n):
    def fail(p):
        raise AssertionError("chain_roots fell back to poly_roots")
    monkeypatch.setattr(bell, "poly_roots", fail)
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"coeffs": list(coeffs)}))
    out = tmp_path / "zeros.csv"
    assert run(["hermite", "zeros", "--map", str(path), "-n", str(n),
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == n + 1
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CERTIFIED_ZEROS_SHA256[coeffs, n]


@pytest.mark.parametrize("lam,n,kind,message", [
    (0.0, 3, "DegreeZero", "H_3 is identically zero for this map"),
    (2.0, 0, "DegreeZero", "constant polynomial has no roots to solve for"),
    (2.0, -1, "ValueError", "n must be >= 0"),
])
def test_hermite_zeros_without_roots_exit_code_and_json(tmp_path, capsys, lam, n,
                                                        kind, message):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"coeffs": [0.0, lam, -0.5]}))
    assert run(["hermite", "zeros", "--map", str(path), "-n", str(n)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": kind, "message": message}


def test_hermite_gen_roundtrip(logistic_map_file, tmp_path):
    out = tmp_path / "coeffs.csv"
    assert run(["hermite", "gen", "--map", logistic_map_file, "-n", "4",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "m,k,coeff"
    table = {}
    for row in rows[1:]:
        m, k, c = row.split(",")
        table[(int(m), int(k))] = float(c)
    assert table[(2, 2)] == 4.0 and table[(2, 1)] == -1.0  # H_2 = 4y^2 - y


def test_density_saddle_matches_closed_form(logistic_map_file, tmp_path):
    out = tmp_path / "q.csv"
    assert run(["density", "saddle", "--map", logistic_map_file,
                "--s", "0.01:0.99:99", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "s,q"
    assert len(rows) == 100
    for row in rows[1:]:
        s, q = (float(v) for v in row.split(","))
        assert abs(q - logistic_closed_q(2.0, s)) < 1e-10


def test_density_invariant(logistic_map_file, tmp_path):
    out = tmp_path / "p.csv"
    assert run(["density", "invariant", "--map", logistic_map_file,
                "--s", "0.1:0.9:9", "--support", "0:1",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "s,p"
    s, p = (float(v) for v in rows[5].split(","))
    assert s == 0.5
    assert p == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_density_invariant_auto_support(logistic_map_file, tmp_path):
    # without --support nothing is scanned: p = 0 wherever q = 0
    out = tmp_path / "p_auto.csv"
    assert run(["density", "invariant", "--map", logistic_map_file,
                "--s", "0.5:1.5:3", "--out", str(out)]) == 0
    rows = [[float(v) for v in row.split(",")]
            for row in out.read_text().splitlines()[1:]]
    assert rows[0] == [0.5, pytest.approx(1.0 / math.pi, rel=1e-15)]
    assert rows[1:] == [[1.0, 0.0], [1.5, 0.0]]


@pytest.mark.parametrize("support", ["0:1", "1:0"])
def test_density_invariant_outside_support_is_an_error(logistic_map_file, tmp_path,
                                                       capsys, support):
    out = tmp_path / "p.csv"
    assert run(["density", "invariant", "--map", logistic_map_file,
                "--s", "0.5:1.5:2", "--support", support,
                "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"
    assert not out.exists()


@pytest.mark.parametrize("action", ["saddle", "invariant"])
@pytest.mark.parametrize("grid", ["0:1:5", "0.1:nan:3", "nan:0.5:1"])
def test_density_s_that_is_not_positive_is_an_error(logistic_map_file, tmp_path,
                                                    capsys, action, grid):
    out = tmp_path / "d.csv"
    assert run(["density", action, "--map", logistic_map_file, "--s", grid,
                "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert "finite and positive" in err["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("action", ["saddle", "invariant"])
def test_density_overflowing_s_names_the_s(tmp_path, capsys, action):
    # 1e308 * 2 overflows the a^1 coefficient of s*a*f'(a) - 1; 1e300 does not
    path = tmp_path / "logistic.json"
    path.write_text(json.dumps({"coeffs": [0, 2, -0.5]}))
    assert run(["density", action, "--map", str(path),
                "--s", "1e300:1e308:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "DomainError"
    assert err["message"].startswith("s = 1e+308 overflows")


def test_orbit_histogram_schema(logistic_map_file, tmp_path):
    out = tmp_path / "hist.csv"
    assert run(["orbit", "--map", logistic_map_file, "--x0", "0.1",
                "--burn", "100", "--keep", "1000", "--bins", "20",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "bin_lo,bin_hi,count"
    assert len(rows) == 21
    total = sum(int(r.split(",")[2]) for r in rows[1:])
    assert total == 1000


# SHA-256 of the stdout of `orbit` on the fully chaotic logistic map
# 4a - 4a^2, written before the orbit kernel stored its iterates in place.
ORBIT_SHA256 = "1988ec9a590f0a438e122ef59aaf75b6bb05f873df2ed798e5b759fc6eb5518a"


def test_orbit_golden_bytes(capsys, tmp_path):
    path = tmp_path / "logistic4.json"
    path.write_text(json.dumps({"coeffs": [0.0, 4.0, -4.0]}))
    assert run(["orbit", "--map", str(path), "--x0", "0.3", "--burn", "1000",
                "--keep", "100000", "--bins", "200"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_SHA256


@pytest.mark.parametrize("flag, value, message", [
    ("--burn", "-5", "burn must be >= 0"), ("--bins", "0", "bins must be >= 1")])
def test_orbit_bad_burn_or_bins_is_a_json_error(logistic_map_file, capsys,
                                                flag, value, message):
    assert run(["orbit", "--map", logistic_map_file, "--x0", "0.3",
                "--keep", "10", flag, value]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_orbit_non_finite_start_names_x0(logistic_map_file, capsys, x0):
    assert run(["orbit", "--map", logistic_map_file, f"--x0={x0}",
                "--keep", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err == {"type": "ValueError",
                   "message": f"x0 = {float(x0)!r} is not finite"}


def test_ode_fixed_points(lorenz_system_file, tmp_path):
    out = tmp_path / "fp.json"
    assert run(["ode", "fixed-points", "--system", lorenz_system_file,
                "--radius", "10", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["fixed_points"]) == 3


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


def test_ode_fixed_points_infinite_radius_is_valid_json(tmp_path, capsys):
    # linspace(-inf, inf, 5) would seed inf, -inf and NaN with numpy warnings
    system = tmp_path / "decay.json"
    system.write_text(json.dumps(
        {"dim": 1, "components": [[{"exps": [1], "coef": -1.0}]]}))
    for radius in ("inf", "nan"):
        assert run(["ode", "fixed-points", "--system", str(system),
                    "--radius", radius]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = _strict_json(captured.err)["error"]
        assert err == {"type": "ValueError",
                       "message": f"radius must be finite, got {radius}"}


@pytest.mark.parametrize("argv, code, error", [
    (["ode", "euler", "--a0=1e200", "--steps", "3"], 1, "TrajectoryEscape"),
    (["ode", "fixed-points", "--radius", "1e200"], 0, None),
])
def test_ode_overflowing_power_prints_no_warning(tmp_path, capsys, argv, code,
                                                 error):
    # (1e200)**3 overflows: the np.float64 rerun gives inf without a warning
    system = tmp_path / "cubic.json"
    system.write_text(json.dumps(
        {"dim": 1, "components": [[{"exps": [3], "coef": -1.0}]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--system", str(system)]) == code
    captured = capsys.readouterr()
    if error is None:
        assert captured.err == ""
        _strict_json(captured.out)
    else:
        assert captured.out == ""
        assert _strict_json(captured.err)["error"]["type"] == error


def test_ode_fixed_points_radius_whose_span_overflows_is_an_error(tmp_path, capsys):
    # linspace(-1e308, 1e308, 5) overflows 2e308 with numpy warnings
    system = tmp_path / "decay.json"
    system.write_text(json.dumps(
        {"dim": 1, "components": [[{"exps": [1], "coef": -1.0}]]}))
    for radius in ("1e308", "-1e308"):
        assert run(["ode", "fixed-points", "--system", str(system),
                    f"--radius={radius}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = _strict_json(captured.err)["error"]
        assert err["type"] == "ValueError"
        assert f"radius {float(radius)!r}" in err["message"]
    assert run(["ode", "fixed-points", "--system", str(system),
                "--radius", "8e307"]) == 0
    assert _strict_json(capsys.readouterr().out) == {
        "fixed_points": [[0.0]], "non_converged_seeds": 0}


def test_ode_euler_overflow_in_a_fresh_process_matches_in_process(tmp_path, capsys):
    # (1e200)**2 overflows: a process that has not imported numpy imports it
    # for the np.float64 rerun of the first step
    system = tmp_path / "overflow.json"
    system.write_text(json.dumps({"dim": 2, "components": [
        [{"exps": [2, 0], "coef": 1.0}, {"exps": [0, 1], "coef": 1.0}],
        [{"exps": [1, 3], "coef": -1.0}]]}))
    argv = ["ode", "euler", "--system", str(system), "--a0=1e200,-3", "--steps", "5"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_json(captured.err)["error"] == {
        "type": "TrajectoryEscape", "message": "trajectory escaped at step 1"}
    fresh = _fresh_process(argv, tmp_path)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (1, "", captured.err)


def test_write_json_refuses_nan(capsys):
    with pytest.raises(ValueError):
        _write_json("-", {"x": math.nan})
    assert capsys.readouterr().out == ""


def test_ode_frequencies(lorenz_system_file, tmp_path):
    out = tmp_path / "fr.json"
    assert run(["ode", "frequencies", "--system", lorenz_system_file,
                "--a", "1,1,1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["taus"] and obj["critical_tau"] is not None
    assert obj["singular_taus"] == obj["taus"]


def test_ode_euler(lorenz_system_file, tmp_path):
    out = tmp_path / "euler.json"
    assert run(["ode", "euler", "--system", lorenz_system_file,
                "--a0", "1,1,1", "--delta", "0.001", "--steps", "1000",
                "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    a_n = np.array(obj["a_n"])
    S_n = np.array(obj["S_n"])
    resid = np.max(np.abs(a_n - np.ones(3) - 0.001 * S_n))
    assert resid < 1e-10 * max(1.0, float(np.max(np.abs(a_n))))


# SHA-256 of the JSON the commands wrote before the ODE field was compiled
# into term tables; any change to field evaluation that moves a bit fails here.
EULER_SHA256 = "1a1b2c89ec313b41517bf7766f7047d75bbdcbfeddb9c8f70ded222c815df144"
FIXED_POINTS_SHA256 = "71ee911a4f87834f34848c9d49bd74c2a319e026e666346d62e55135694c43ac"


def test_ode_euler_golden_bytes(lorenz_system_file, tmp_path):
    out = tmp_path / "euler.json"
    assert run(["ode", "euler", "--system", lorenz_system_file,
                "--a0=1.5,-2.25,20", "--delta", "0.001", "--steps", "5000",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EULER_SHA256


def test_ode_euler_non_finite_delta_exit_code_and_json(lorenz_system_file, capsys):
    assert run(["ode", "euler", "--system", lorenz_system_file, "--a0=1,1,1",
                "--delta", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "ValueError" and "delta" in err["message"]


def test_ode_frequencies_overflowing_jacobian_exit_code_and_json(tmp_path, capsys):
    # d(a0^3)/da0 = 3 a0^2 overflows to inf at a0 = 1e200
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"dim": 1, "components": [[
        {"exps": [3], "coef": 1.0}]]}))
    assert run(["ode", "frequencies", "--system", str(path), "--a=1e200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "DomainError" and "Jacobian" in err["message"]


def test_ode_frequencies_huge_finite_jacobian_matches_mpmath(lorenz_system_file,
                                                             capsys):
    # The Lorenz Jacobian at a = (1e300, 1e300, 1e300) is finite; 800-digit
    # mpmath.eig gives -20 and 19/6 +- 1.0000000000000000525e300 i, so the
    # one real eigenvalue gives tau = 0.05
    assert run(["ode", "frequencies", "--system", lorenz_system_file,
                "--a=1e300,1e300,1e300"]) == 0
    obj = _strict_json(capsys.readouterr().out)
    got = [complex(*z) for z in obj["eigenvalues"]]
    want = [-20.0, complex(19 / 6, -1.0000000000000000525e300),
            complex(19 / 6, 1.0000000000000000525e300)]
    assert len(got) == 3
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * abs(w)
    assert obj["taus"] == pytest.approx([0.05], rel=1e-15, abs=0)
    assert obj["critical_tau"] == pytest.approx(0.05, rel=1e-15, abs=0)


def test_ode_fixed_points_golden_bytes(lorenz_system_file, tmp_path):
    out = tmp_path / "fp.json"
    assert run(["ode", "fixed-points", "--system", lorenz_system_file,
                "--radius", "10", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXED_POINTS_SHA256


@pytest.mark.parametrize("flag,value", [("--a0", "nan,1,1"), ("--a", "nan,1,1"),
                                        ("--a", "inf,1,1"), ("--a0", "1,-inf,1")])
def test_ode_non_finite_point_exit_code_and_json(lorenz_system_file, capsys, flag,
                                                 value):
    action = "euler" if flag == "--a0" else "frequencies"
    assert run(["ode", action, "--system", lorenz_system_file,
                f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == f"{flag} {value!r} is not finite"


@pytest.mark.parametrize("action,point", [
    ("frequencies", "--a=1,2"), ("frequencies", "--a=1,2,3,4"),
    ("euler", "--a0=1,2"), ("euler", "--a0=1,2,3,4")])
def test_ode_wrong_dimension_point_exit_code_and_json(lorenz_system_file, capsys,
                                                     action, point):
    assert run(["ode", action, "--system", lorenz_system_file, point]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


def test_lorenz_report_cli(tmp_path):
    out = tmp_path / "report.json"
    assert run(["lorenz", "report", "--sigma", "10", "--rho", "28",
                "--beta", "2.666666667", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["fixed_points"]) == 3
    assert {"params", "fixed_points", "surfaces", "admissible_mask",
            "density_samples"} <= set(obj)


# SHA-256 of `lorenz report` at sigma = 10, rho = 28, beta = 8/3, written
# once the spectra came from LAPACK; each eigenvalue is within 2.7e-16 of
# its modulus of 60-digit mpmath.eig.
LORENZ_REPORT_SHA256 = "867dc1d823adb72f3783ca8ca6a52fd63fae6658ea73d7d3d3bfeaf65992c4d6"


def test_lorenz_report_golden_bytes(capsys):
    assert run(["lorenz", "report", "--sigma", "10", "--rho", "28",
                "--beta", "2.6666666666666665"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LORENZ_REPORT_SHA256


@pytest.mark.parametrize("flag,value", [("--delta", "nan"), ("--sigma", "nan"),
                                        ("--rho", "inf"), ("--beta", "-inf")])
def test_lorenz_non_finite_parameter_exit_code_and_json(capsys, flag, value):
    params = {"--sigma": "10", "--rho": "28", "--beta": "2.6666666666666665"}
    params[flag] = value
    assert run(["lorenz", "report", *(f"{k}={v}" for k, v in params.items())]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "ValueError" and flag[2:] in err["message"]


def test_lorenz_report_overflowing_surfaces_name_delta(tmp_path, capsys):
    # delta * alpha overflows in the alpha shifts; inf - inf then gives nan
    argv = ["lorenz", "report", "--sigma", "10", "--rho", "28", "--beta", "2.5",
            "--delta", "1e308"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "DomainError" and "delta=1e+308" in err["message"]
    fresh = _fresh_process(argv, tmp_path)  # no warning on stderr either
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (1, "", captured.err)
    assert fresh.stderr.count("\n") == 1


def test_compare_ks(tmp_path):
    sample = tmp_path / "sample.txt"
    n = 200
    pts = [math.sin(math.pi * (k - 0.5) / (2 * n)) ** 2 for k in range(1, n + 1)]
    sample.write_text("\n".join(f"{p:.17g}" for p in pts))
    out = tmp_path / "cdf.csv"
    code = run(["compare", "--sample", str(sample),
                "--reference", "arcsine", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x,empirical,reference"
    assert len(rows) == n + 1


def test_compare_reads_histogram(tmp_path, capsys, logistic_map_file):
    hist = tmp_path / "hist.csv"
    run(["orbit", "--map", logistic_map_file, "--x0", "1.7", "--burn", "500",
         "--keep", "20000", "--bins", "50", "--out", str(hist)])
    code = run(["compare", "--sample", str(hist),
                "--reference", "arcsine", "--rescale"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["metric"] == "ks"


@pytest.mark.parametrize("body", ["0.1\nnan\n0.5\n", "0.1\ninf\n0.5\n",
                                  "bin_lo,bin_hi,count\n0,0.5,3\n0.5,inf,2\n",
                                  "bin_lo,bin_hi,count\n0,0.5,3\nnan,1,2\n"])
@pytest.mark.parametrize("reference", ["uniform", "half-semicircle"])
def test_compare_non_finite_sample_exit_code_and_json(tmp_path, capsys, body,
                                                      reference):
    sample = tmp_path / "sample.txt"
    sample.write_text(body)
    assert run(["compare", "--sample", str(sample), "--reference", reference]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "ValueError" and "not finite" in err["message"]


@pytest.mark.parametrize("body, error", [("", "EmptySample"),
                                         ("0.0,0.5,3\n0.5,1.0\n", "ValueError"),
                                         ("0.0,0.5,-2\n0.5,1.0,3\n", "ValueError"),
                                         ("0.0,0.5,0\n0.5,1.0,0\n", "EmptySample")])
def test_compare_bad_histogram_is_a_json_error(tmp_path, capsys, body, error):
    hist = tmp_path / "hist.csv"
    hist.write_text("bin_lo,bin_hi,count\n" + body)
    code = run(["compare", "--sample", str(hist),
                "--reference", "arcsine"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == error


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_density_is_zero_past_the_quartic_support_end(tmp_path, lam):
    # f = lam a - a^4/4: beyond s* real saddles dominate, so q = p = 0
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({"coeffs": [0.0, lam, 0.0, 0.0, -0.25]}))
    a_max = (lam / 4.0) ** (1.0 / 3.0)
    s_end = 1.0 / (lam * a_max - a_max**4)
    for action, header in (("saddle", "s,q"), ("invariant", "s,p")):
        for t in (1.001, 1.1, 2.0):
            out = tmp_path / f"{action}.csv"
            s = t * s_end
            assert run(["density", action, "--map", str(path),
                        "--s", f"{s!r}:{s!r}:1", "--out", str(out)]) == 0
            rows = out.read_text().splitlines()
            assert rows[0] == header
            assert [float(v) for v in rows[1].split(",")] == [s, 0.0]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["density", "saddle", "--bogus-flag", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["density", "saddle", "--s", "0.1:1"], "range must be lo:hi:count, got '0.1:1'"),
    (["density", "saddle", "--s", "0.1:1:0"], "range count must be >= 1"),
    (["density", "invariant", "--s", "0.1:1:3", "--support", "0:1:2"],
     "interval must be lo:hi, got '0:1:2'"),
    (["ode", "frequencies"], "ode frequencies requires --a"),
])
def test_malformed_or_missing_flag_is_a_usage_error(logistic_map_file, lorenz_system_file,
                                                    capsys, argv, message):
    # argparse prints an ArgumentTypeError's own message, a ValueError's
    # only as "invalid ... value"
    source = ["--system", lorenz_system_file] if argv[0] == "ode" else [
        "--map", logistic_map_file]
    with pytest.raises(SystemExit) as exc:
        run(argv + source)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(message)


def _fresh_python(args, cwd):
    """`python args` in a new interpreter, with this checkout's src first."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _fresh_process(argv, cwd):
    return _fresh_python(["-m", "pfdensity.cli", *argv], cwd)


def test_cli_import_does_not_load_mpmath(tmp_path):
    # mpmath is imported on the climb past 53 bits, not by every process
    proc = _fresh_python(
        ["-c", "import sys, pfdensity.cli; print('mpmath' in sys.modules)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_PROBE = """import json, sys, types
def loaded():
    # a module the package registered lazily keeps a subclass of
    # types.ModuleType until its first use runs it
    return sorted(name.split(".")[1] for name, m in sys.modules.items()
                  if name.startswith("pfdensity.") and type(m) is types.ModuleType)
out = []
"""


def _loaded_after(steps, cwd):
    """For each step run in turn in one new interpreter: the pfdensity
    modules that have run, and whether numpy and mpmath are imported."""
    code = _PROBE + "".join(f"{step}\nout.append([loaded(), 'numpy' in sys.modules, "
                            "'mpmath' in sys.modules])\n"
                            for step in steps) + "print(json.dumps(out))\n"
    proc = _fresh_python(["-c", code], cwd)
    assert proc.returncode == 0, proc.stderr
    return [tuple(x) for x in json.loads(proc.stdout.splitlines()[-1])]


def test_cli_import_runs_only_cli_and_errors(tmp_path):
    # the benchmark's setup for zeros, chain, density and lorenz; numpy comes
    # with the first sweep, batch solve or array, mpmath with the climb past
    # 53 bits
    assert _loaded_after(["import pfdensity.cli",
                          "from pfdensity.bell import MapSpec1D"], tmp_path) == [
        (["cli", "errors"], False, False),
        (["bell", "cli", "errors", "poly"], False, False),
    ]
    # and for lorenz
    assert _loaded_after(["import pfdensity.cli\n"
                          "from pfdensity.lorenz import LorenzParams, lorenz_system"],
                         tmp_path) == [(["cli", "errors", "lorenz", "odeiter", "poly"],
                                        False, False)]


def test_exact_chain_calls_leave_numpy_unloaded(tmp_path):
    chain = ["bell", "errors", "poly"]
    assert _loaded_after([
        "from pfdensity.bell import *\nf = MapSpec1D.logistic(2.0)",
        "bell_sequence_exact(f, 64)",
        "resolving_gap(f, 64)",
        "solve_coefficient_system(f, 96, 1)",
        "from pfdensity.poly import *\npoly_roots(Polynomial([3.0, 1, 0, 2, 1]))",
        "chain_roots(f, 16)",
    ], tmp_path) == [(chain, False, False)] * 5 + [(chain, True, False)]


_LORENZ_SETUP = ("from pfdensity.lorenz import *\nfrom pfdensity.odeiter import *\n"
                 "p = LorenzParams(10.0, 28.0, 2.5)\nsys_ = lorenz_system(p)")
_ODE_MODULES = ["errors", "lorenz", "odeiter", "poly"]


def test_ode_calls_without_arrays_leave_numpy_unloaded(lorenz_system_file, tmp_path):
    # the field's JSON, the Euler loop and the CLI's euler run in floats
    euler = ["ode", "euler", "--system", lorenz_system_file, "--a0", "1,1,1",
             "--steps", "10", "--out", str(tmp_path / "out")]
    assert _loaded_after([
        _LORENZ_SETUP,
        "OdeSystem.from_json(sys_.to_json())",
        "DifferentialIteration(sys_, 1e-3, 10).iterate([1, 1, 1])",
        f"import pfdensity.cli\nassert pfdensity.cli.run({euler!r}) == 0",
    ], tmp_path) == [(_ODE_MODULES, False, False)] * 3 + [
        (["cli", *_ODE_MODULES], False, False)]


@pytest.mark.parametrize("call", ["fixed_points(sys_, radius=10.0)",
                                  "critical_frequencies(sys_, [1.0, 1.0, 1.0])",
                                  "lorenz_report(p)"])
def test_ode_calls_with_arrays_load_numpy(tmp_path, call):
    assert _loaded_after([_LORENZ_SETUP, call], tmp_path) == [
        (_ODE_MODULES, False, False), (_ODE_MODULES, True, False)]


def test_first_use_of_quadform_runs_only_quadform(tmp_path):
    assert _loaded_after(["from pfdensity.quadform import *\n"
                          "M = [[0.0, 1.0], [1.0, 0.0]]\n"
                          "symmetric_eigen(SymmetricForm.from_matrix(M))"],
                         tmp_path) == [(["quadform"], True, False)]


def test_package_attributes_resolve_on_first_use(tmp_path):
    # a write or a delete is a first use too, and runs the source before it
    assert _loaded_after(["import pfdensity",
                          "assert callable(pfdensity.saddle.saddle_sweep)",
                          "pfdensity.quadform.symmetric_eigen = None",
                          "assert pfdensity.quadform.symmetric_eigen is None",
                          "del pfdensity.lorenz.lorenz_report\n"
                          "assert not hasattr(pfdensity.lorenz, 'lorenz_report')"],
                         tmp_path) == [
        ([], False, False),
        (["errors", "poly", "saddle"], True, False),
        *[(["errors", "poly", "quadform", "saddle"], True, False)] * 2,
        (["errors", "lorenz", "odeiter", "poly", "quadform", "saddle"], True, False),
    ]


@pytest.mark.parametrize("name", ["pfdensity", *(f"pfdensity.{m}" for m in
                                                 [*pfdensity.__all__, "cli"])])
def test_every_all_entry_resolves(name):
    # so that `from module import *` cannot fail on a stale entry
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])  # errors has none
    assert [entry for entry in names if not hasattr(module, entry)] == []


def test_every_error_type_is_raised_outside_errors():
    # so that deleting the last raise of an error type deletes the type too
    defined = {name for name, obj in vars(errors).items() if isinstance(obj, type)
               and issubclass(obj, errors.ToolkitError) and obj is not errors.ToolkitError}
    raised = set()
    for path in Path(pfdensity.__file__).parent.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # source that a module generates and compiles at run time
                raised.update(re.findall(r"\braise (\w+)", node.value))
    assert sorted(defined - raised) == []


def test_every_module_constant_is_read_in_its_module():
    # so that deleting the last use of a tolerance deletes the tolerance too
    orphans = []
    for path in sorted(Path(pfdensity.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        targets = [t for node in tree.body if isinstance(node, ast.Assign)
                   for t in node.targets]
        targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
        defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                   and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id)}
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        orphans += [f"{path.name}: {name}" for name in sorted(defined - read)]
    assert orphans == []


def test_every_top_level_helper_is_referenced_in_src():
    # so that a function or class that only its tests still call is deleted
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(pfdensity.__file__).parent.glob("*.py"))}
    uses = []  # (top-level statement, the names it reads)
    for tree in trees.values():
        for node in tree.body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names.update(alias.name for alias in sub.names)
            uses.append((node, names))
    orphans = []
    for module, tree in trees.items():
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            # a statement's reads of its own name (recursion) do not count
            if name not in exported and not any(
                    name in names for other, names in uses if other is not node):
                orphans.append(f"{module}: {name}")
    assert orphans == []


def test_every_exported_name_has_a_caller():
    # so that a capability only its own unit tests reach is deleted, not exported
    src = Path(pfdensity.__file__).parent
    root = src.parent.parent
    paths = [*src.glob("*.py"), *(root / "scripts").glob("*.py"),
             *(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    used, exported = set(), []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported += [(path.name, name) for name in ast.literal_eval(node.value)]
    assert [f"{module}: {name}" for module, name in exported if name not in used] == []


_FIRST_USE_ON_THREADS = """import threading, pfdensity
names = [("poly", "poly_roots"), ("bell", "chain_roots"), ("saddle", "saddle_sweep"),
         ("lorenz", "lorenz_report"), ("quadform", "symmetric_eigen"),
         ("empirical", "iterate_orbit"), ("odeiter", "fixed_points"),
         ("bell", "MapSpec1D")]
barrier, failed = threading.Barrier(len(names)), []
def use(module, name):
    barrier.wait()
    try:
        getattr(getattr(pfdensity, module), name)
    except Exception as exc:
        failed.append(repr(exc))
threads = [threading.Thread(target=use, args=pair) for pair in names]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(failed)
"""


def test_first_use_on_many_threads_never_sees_a_half_run_module(tmp_path):
    # each thread's read is the first use of a module, or comes while another
    # thread's first use of it is still running its source
    for _ in range(3):
        proc = _fresh_python(["-c", _FIRST_USE_ON_THREADS], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def test_a_load_that_raises_leaves_the_module_unloaded(tmp_path):
    # quadform's and saddle's numpy imports raise while numpy is None
    code = """import sys, types, pfdensity
for name, attr in (("quadform", "symmetric_eigen"), ("saddle", "saddle_sweep")):
    numpy = sys.modules.get("numpy")  # the second pass keeps the first's numpy
    sys.modules["numpy"] = None
    try:
        getattr(getattr(pfdensity, name), attr)
    except ImportError:
        pass
    module = sys.modules["pfdensity." + name]
    print(type(module) is types.ModuleType)
    if numpy is None:
        del sys.modules["numpy"]
    else:
        sys.modules["numpy"] = numpy
    print(callable(getattr(module, attr)), type(module) is types.ModuleType)
"""
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "False\nTrue True\n" * 2


@pytest.mark.parametrize("argv, modules", [
    (["hermite", "zeros", "--map", "MAP", "-n", "8"], ["bell", "poly"]),
    (["density", "saddle", "--map", "MAP", "--s", "0.1:0.9:3"],
     ["bell", "poly", "saddle"]),
    (["orbit", "--map", "MAP", "--x0", "0.1", "--keep", "100"],
     ["bell", "empirical", "poly"]),
    (["compare", "--sample", "SAMPLE", "--reference", "uniform"], ["empirical"]),
    (["ode", "euler", "--system", "SYSTEM", "--a0", "1,1,1", "--steps", "10"],
     ["odeiter"]),
    (["lorenz", "report", "--sigma", "10", "--rho", "28", "--beta", "2.5"],
     ["lorenz", "odeiter", "poly"]),
    (["hermite", "gen", "--map", "MAP", "-n", "8"], ["bell", "poly"]),
])
def test_each_command_runs_only_its_modules(logistic_map_file, lorenz_system_file,
                                            tmp_path, argv, modules):
    sample = tmp_path / "sample.txt"
    sample.write_text("0.1\n0.5\n")
    files = {"MAP": logistic_map_file, "SYSTEM": lorenz_system_file,
             "SAMPLE": str(sample)}
    argv = [files.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]
    [(ran, numpy, mpmath)] = _loaded_after(
        ["import pfdensity.cli\n"
         f"assert pfdensity.cli.run({argv!r}) == 0"], tmp_path)
    assert ran == sorted(["cli", "errors", *modules])
    # the exact chain runs in ints and the Euler loop in floats; every other
    # command has arrays to handle
    assert numpy == (argv[:2] not in (["hermite", "gen"], ["ode", "euler"]))
    assert not mpmath


def test_cached_parser_keeps_no_state_between_runs(lorenz_system_file, tmp_path,
                                                   capsys):
    assert cli._build_parser() is cli._build_parser()
    euler = ["ode", "euler", "--system", lorenz_system_file, "--steps", "10"]
    with pytest.raises(SystemExit) as exc:
        run(euler)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    fresh = _fresh_process(euler, tmp_path)
    assert fresh.returncode == 2
    assert captured.out == "" and captured.err == fresh.stderr
    assert "ode euler requires --a0" in captured.err
    assert run(euler + ["--a0", "1,1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 10

    chaotic = tmp_path / "full_logistic.json"
    chaotic.write_text(json.dumps({"coeffs": [0.0, 4.0, -4.0]}))
    orbit = ["orbit", "--map", str(chaotic), "--x0", "0.1", "--burn", "100",
             "--keep", "1000", "--bins", "20"]
    assert run(["--seed", "5"] + orbit) == 0
    seeded = capsys.readouterr().out
    assert run(orbit) == 0
    unseeded = capsys.readouterr().out
    assert unseeded != seeded
    assert unseeded == _fresh_process(orbit, tmp_path).stdout


def test_domain_error_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coeffs": [1.0, 2.0]}))  # f(0) != 0
    code = run(["hermite", "gen", "--map", str(bad), "-n", "3", "--out", "-"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"


@pytest.mark.parametrize("body", ['{"coef": [0, 1]}', "[0, 1, -0.5]",
                                  '{"coeffs": "01"}', '{"coeffs": [0, true]}',
                                  '{"coeffs": [0, "2"]}', '{"coeffs": null}'],
                         ids=["misspelled-key", "bare-list", "string", "bool",
                              "string-coefficient", "null"])
def test_malformed_map_json_exit_code_and_json(tmp_path, capsys, body):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    assert run(["hermite", "gen", "--map", str(bad), "-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_json(captured.err)["error"] == {
        "type": "ValueError",
        "message": 'a map is a JSON object whose "coeffs" is a list of numbers'}


_TERM = '{"exps": [1, 0], "coef": -1.0}'


@pytest.mark.parametrize("body, key", [
    ('{"dim": 2}', '"components"'),
    (f'[[{_TERM}], [{_TERM}]]', '"dim"'),
    (f'{{"dim": true, "components": [[{_TERM}], [{_TERM}]]}}', '"dim"'),
    (f'{{"dim": 2, "components": [{_TERM}, {_TERM}]}}', '"components"'),
    (f'{{"dim": 2, "components": [[{_TERM}], [{{"exps": [0, 1], "coef": "2"}}]]}}',
     '"coef"'),
    (f'{{"dim": 2, "components": [[{_TERM}], [{{"exps": [0, true], "coef": 1}}]]}}',
     '"exps"'),
    (f'{{"dim": 2, "components": [[{_TERM}], [{{"exps": [0, 1.5], "coef": 1}}]]}}',
     '"exps"'),
    (f'{{"dim": 2, "components": [[{_TERM}], [{{"coef": 1}}]]}}', '"exps"'),
], ids=["no-components", "bare-list", "bool-dim", "flat-components",
        "string-coef", "bool-exponent", "fractional-exponent", "no-exps"])
def test_malformed_system_json_exit_code_and_json(tmp_path, capsys, body, key):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    assert run(["ode", "euler", "--system", str(bad), "--a0", "1,1",
                "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "ValueError"
    assert key in err["message"]


def test_system_coefficient_beyond_the_double_range_is_a_domain_error(tmp_path,
                                                                      capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 1, "components": [[{"exps": [1],
                                                          "coef": 10**400}]]}))
    assert run(["ode", "euler", "--system", str(big), "--a0", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_json(captured.err)["error"] == {
        "type": "DomainError",
        "message": "the coefficient of the term (1,) is beyond the double range"}


def test_threads_option_is_a_usage_error(logistic_map_file):
    with pytest.raises(SystemExit) as exc:
        run(["--threads", "1", "density", "saddle", "--map", logistic_map_file,
             "--s", "0.1:0.9:3"])
    assert exc.value.code == 2


def test_compare_metric_option_is_a_usage_error(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text("0.1\n0.5\n")
    with pytest.raises(SystemExit) as exc:
        run(["compare", "--metric", "ks", "--sample", str(sample),
             "--reference", "uniform"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["hermite", "zeros", "-n", "8",
                                   "--precision-bits", "128"],
                                  ["density", "saddle", "--s", "0.1:0.9:3",
                                   "--precision-bits", "53"]])
def test_precision_bits_option_is_a_usage_error(logistic_map_file, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--map", logistic_map_file])
    assert exc.value.code == 2


def test_53_bit_coefficient_overflow_exit_code_and_json(tmp_path, capsys):
    # H_2 = 1e600 y^2 - y: no double holds the y^2 coefficient, so the solver
    # solves in mpmath; the root 1e-600 prints as 0
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"coeffs": [0.0, 1e300, -0.5]}))
    argv = ["hermite", "zeros", "--map", str(big), "-n", "2", "--out", "-"]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["index,zero", "0,0", "1,0"]


def test_non_finite_map_coefficient_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"coeffs": [0.0, math.nan, -0.5]}))
    assert run(["density", "saddle", "--map", str(bad), "--s", "0.5:0.5:1",
                "--out", "-"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"
    assert "nan" in err["error"]["message"]


@pytest.mark.parametrize("argv", [["hermite", "gen", "-n", "4"],
                                  ["hermite", "zeros", "-n", "4"],
                                  ["orbit", "--x0", "0.5", "--keep", "10"],
                                  ["density", "saddle", "--s", "0.5:0.5:1"]],
                         ids=["hermite-gen", "hermite-zeros", "orbit", "density"])
@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
def test_non_finite_map_coefficient_is_a_domain_error(tmp_path, capsys, argv,
                                                      coeff):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coeffs": [0.0, 2.0, coeff]}))
    assert run(argv + ["--map", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err == {"type": "DomainError",
                   "message": f"map coefficient a_2 = {coeff!r} is not finite"}


@pytest.mark.parametrize("argv", [["hermite", "gen", "-n", "3"],
                                  ["orbit", "--x0", "0.5", "--keep", "10"]],
                         ids=["hermite-gen", "orbit"])
def test_map_coefficient_beyond_the_double_range_is_a_domain_error(
        tmp_path, capsys, argv):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"coeffs": [0, 2, 10**400]}))
    assert run(argv + ["--map", str(big)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err == {"type": "DomainError",
                   "message": "map coefficient a_2 is beyond the double range"}


# SHA-256 of the stdout of `density saddle` and `density invariant` on
# f = 2a - a^4/4 at s = 0.01, 0.02, ..., 1.2; the support ends near s = 0.84,
# so the grid holds both complex saddles and real ones.
QUARTIC_DENSITY_SHA256 = {
    "saddle": "94a934bdd2d878e6085d86058843b8315557ef86e9388739a6cb3608bdfa163b",
    "invariant": "56f3128ce60a693d1e7bb039c99612da8c59b3a1b9f1dffa3b488528e4b4f7e9",
}


@pytest.mark.parametrize("action", sorted(QUARTIC_DENSITY_SHA256))
def test_quartic_density_golden_bytes(tmp_path, capsys, action):
    quartic = tmp_path / "quartic.json"
    quartic.write_text(json.dumps({"coeffs": [0.0, 2.0, 0.0, 0.0, -0.25]}))
    assert run(["density", action, "--map", str(quartic),
                "--s", "0.01:1.2:120"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == QUARTIC_DENSITY_SHA256[action]


def test_byte_identical_reruns(logistic_map_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["density", "saddle", "--map", logistic_map_file,
             "--s", "0.05:0.95:19", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_seventeen_digit_roundtrip(logistic_map_file, tmp_path):
    out = tmp_path / "q.csv"
    run(["density", "saddle", "--map", logistic_map_file, "--s", "0.1:0.9:9",
         "--out", str(out)])
    from pfdensity.bell import MapSpec1D
    from pfdensity.saddle import zero_density_q
    f = MapSpec1D.logistic(2.0)
    for row in out.read_text().splitlines()[1:]:
        s, q = (float(v) for v in row.split(","))
        assert q == zero_density_q(f, s)  # exact round-trip
