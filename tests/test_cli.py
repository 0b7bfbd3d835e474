import hashlib
import json
import math

import numpy as np
import pytest

from pfdensity import bell
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


@pytest.mark.parametrize("flag, value, message", [
    ("--burn", "-5", "burn must be >= 0"), ("--bins", "0", "bins must be >= 1")])
def test_orbit_bad_burn_or_bins_is_a_json_error(logistic_map_file, capsys,
                                                flag, value, message):
    assert run(["orbit", "--map", logistic_map_file, "--x0", "0.3",
                "--keep", "10", flag, value]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "ValueError", "message": message}


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


def test_ode_frequencies_overflowing_jacobian_exit_code_and_json(lorenz_system_file,
                                                                  capsys):
    assert run(["ode", "frequencies", "--system", lorenz_system_file,
                "--a=1e300,1e300,1e300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)["error"]
    assert err["type"] == "DomainError" and "Jacobian" in err["message"]


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
# while the report still decomposed each direction once per fixed point.
LORENZ_REPORT_SHA256 = "a7c0e93aa2cf473ae9c38d46095dbfcf031b0e4e2adf262ef4c4161c4059123f"


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
                                         ("0.0,0.5,3\n0.5,1.0\n", "ValueError")])
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


def test_domain_error_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coeffs": [1.0, 2.0]}))  # f(0) != 0
    code = run(["hermite", "gen", "--map", str(bad), "-n", "3", "--out", "-"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"


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
