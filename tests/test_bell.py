import json
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdensity import bell
from pfdensity.bell import (MapSpec1D, bell_sequence, bell_sequence_exact,
                            chain_roots, resolving_gap, solve_coefficient_system)
from pfdensity.cli import run
from pfdensity.errors import CoefficientOverflow, DegreeZero, ResonanceDetected
from pfdensity.poly import Polynomial, _horner, poly_roots, real_zeros


def hermite_phys(m, t):
    """Physicists' Hermite three-term recurrence, exact over Fractions."""
    prev, cur = Fraction(1), 2 * t
    if m == 0:
        return prev
    for k in range(1, m):
        prev, cur = cur, 2 * t * cur - 2 * k * prev
    return cur


def faa_di_bruno_chain(f, n):
    """Independent oracle: the y^k coefficient of H_m(y, 0) is m!/k! [a^m] f(a)^k.

    Powers of f are truncated at degree n; row m lists k = 0..m.
    """
    fc = f.exact_coeffs()
    powers = [[Fraction(1)] + [Fraction(0)] * n]
    for _ in range(n):
        nxt = [Fraction(0)] * (n + 1)
        for i, p in enumerate(powers[-1]):
            for j in range(1, min(len(fc), n + 1 - i)):
                nxt[i + j] += p * fc[j]
        powers.append(nxt)
    return [[Fraction(math.factorial(m), math.factorial(k)) * powers[k][m]
             for k in range(m + 1)] for m in range(n + 1)]


def test_map_validation():
    with pytest.raises(ValueError):
        MapSpec1D((1.0, 2.0))  # fixed point not at the origin
    with pytest.raises(ValueError):
        MapSpec1D((0.0,))  # degree 0
    with pytest.raises(ValueError, match="m must be >= 2"):
        MapSpec1D.m_hermite(2.0, 1)


def test_map_json_roundtrip():
    f = MapSpec1D((0.0, 2.0, -0.5))
    assert MapSpec1D.from_json(f.to_json()) == f


def test_h1_is_y_fprime():
    H0, H1 = bell_sequence_exact(MapSpec1D((0.0, 1.5, -0.5, 0.25)), 1)
    assert H0.coeffs == (Fraction(1),)
    assert H1.coeffs == (Fraction(0), Fraction(3, 2))  # y f'(0)


def test_identity_map_powers():
    chain = bell_sequence_exact(MapSpec1D.identity(), 5)
    for n, p in enumerate(chain):
        want = [Fraction(0)] * n + [Fraction(1)]
        assert list(p.coeffs) == want


def test_logistic_h2_at_origin():
    lam = 2.0
    chain = bell_sequence(MapSpec1D.logistic(lam), 2)
    assert chain[1].coeffs == (0.0, lam)            # H_1 = lam * y
    assert chain[2].coeffs == (0.0, -1.0, lam * lam)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6),
       st.floats(-0.5, 0.5, allow_nan=False).filter(lambda v: abs(v) > 1e-3))
def test_generating_identity_against_finite_differences(n, y):
    """d^n/da^n e^{y f(a)} = H_n(y) e^{y f(a)} at a = 0, checked by a central
    finite-difference stencil evaluated in 60-digit arithmetic."""
    f = MapSpec1D((0.0, 1.25, -0.5))
    H = bell_sequence_exact(f, n)[n]
    with mpmath.workdps(60):
        ym, h = mpmath.mpf(y), mpmath.mpf("1e-3")

        def g(t):
            return mpmath.exp(ym * (mpmath.mpf("1.25") * t - t * t / 2))

        stencil = mpmath.mpf(0)
        for k in range(n + 1):
            stencil += (-1) ** k * mpmath.binomial(n, k) * g((mpmath.mpf(n) / 2 - k) * h)
        expected = float(stencil / h**n / g(0))
    got = float(H(Fraction(y)))
    assert abs(got - expected) <= 1e-5 * max(1.0, abs(expected))


def listed_chain(derivs, n):
    """Oracle for _int_chain: the recurrence with every row kept in a list
    and each product taken over the whole row it reads."""
    D = math.lcm(*(Fraction(c).denominator for c in derivs))
    X = [int(Fraction(c) * D) for c in derivs]
    rows = [[1]]
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        for i, xi in enumerate(X[:m], start=1):
            for k, c in enumerate(rows[m - i], start=1):
                row[k] += math.comb(m - 1, i - 1) * xi * c
        rows.append(row)
    return D, rows


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.0, 2.0, -0.5]) | st.floats(-4, 4),
       st.lists(st.sampled_from([0.0, 1.0, -1 / 3]) | st.floats(-4, 4), max_size=3),
       st.integers(0, 3), st.integers(0, 40))
def test_streamed_chain_equals_listed_recurrence(lam, rest, zeros, n):
    # lam = 0 and trailing zero coefficients leave deg f below len(derivs)
    derivs = bell._derivs_at_0(MapSpec1D((0.0, lam, *rest, *[0.0] * zeros)))
    D, rows = bell._int_chain(derivs, n)
    assert (D, list(rows)) == listed_chain(derivs, n)


def test_streamed_chain_holds_a_window_of_rows():
    # measured: a 0.05 MiB peak, against 1.65 MiB with every row kept
    D, rows = bell._int_chain(bell._derivs_at_0(MapSpec1D.logistic(2.0)), 256)
    tracemalloc.start()
    try:
        for row in rows:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(row) == 257
    assert peak < 2**19


@pytest.mark.parametrize("f", [
    MapSpec1D((0.0, 0.7, 0.3, -0.2, 0.05)),
    MapSpec1D.logistic(2.0),
    MapSpec1D.m_hermite(2.0, 4),
], ids=["dense-quartic", "logistic", "m-hermite-4"])
def test_chain_matches_faa_di_bruno_oracle(f):
    n = 96
    chain = bell_sequence_exact(f, n)
    assert len(chain) == n + 1
    for m, (p, want) in enumerate(zip(chain, faa_di_bruno_chain(f, n))):
        assert p.coeffs == Polynomial(want).coeffs, m


def test_hermite_gen_csv_matches_oracle_bytes(tmp_path):
    # Every coefficient of H_0..H_64 is exact, so the CLI's CSV must be the
    # 17-significant-digit rendering of the oracle chain, byte for byte.
    n = 64
    f = MapSpec1D.logistic(2.0)
    map_path, out = tmp_path / "logistic2.json", tmp_path / "coeffs.csv"
    map_path.write_text(json.dumps(f.to_json()))
    assert run(["hermite", "gen", "--map", str(map_path), "-n", str(n),
                "--out", str(out)]) == 0
    lines = ["m,k,coeff"]
    for m, row in enumerate(faa_di_bruno_chain(f, n)):
        lines += [f"{m},{k},{float(c):.17g}"
                  for k, c in enumerate(Polynomial(row).coeffs)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_chain_rejects_negative_order():
    with pytest.raises(ValueError):
        bell_sequence_exact(MapSpec1D.logistic(2.0), -1)


def test_degree_and_leading_coefficient_exact():
    lam = 2.0
    chain = bell_sequence_exact(MapSpec1D.logistic(lam), 12)
    for n, p in enumerate(chain):
        assert p.degree == n
        assert p.coeffs[-1] == Fraction(2) ** n


def test_hermite_correspondence_exact():
    """H_m(y=2) as a polynomial in lam equals the physicists' Hermite
    polynomial of degree m: verified exactly at 11 rational multipliers,
    which pins all coefficients of a degree <= 10 polynomial, and for one
    dyadic multiplier up to degree 256."""
    lams = [Fraction(k, 7) for k in range(1, 12)]
    for lam in lams:
        chain = bell_sequence_exact(MapSpec1D.logistic(float(lam)), 10)
        lam_exact = Fraction(float(lam))  # the float the map actually stores
        for m, p in enumerate(chain):
            val = sum(c * Fraction(2) ** k for k, c in enumerate(p.coeffs))
            assert val == hermite_phys(m, lam_exact)
    lam = Fraction(3, 4)
    chain = bell_sequence_exact(MapSpec1D.logistic(float(lam)), 256)
    prev, cur = Fraction(1), 2 * lam    # H^phys_0, H^phys_1
    for m, p in enumerate(chain):
        assert p(Fraction(2)) == prev, m
        prev, cur = cur, 2 * lam * cur - 2 * (m + 1) * prev


def test_resolving_gap_identity_map_is_zero():
    for n in (1, 2, 5):
        assert resolving_gap(MapSpec1D.identity(), n).coeffs == (0.0,)


def test_resolving_gap_degree_one():
    lam = 0.75
    e1 = resolving_gap(MapSpec1D.logistic(lam), 1)
    assert e1.coeffs == (0.0, 1.0 - lam)


def test_resolving_gap_degree_two():
    lam = 2.0
    # oracle: e^2 = y^2 - H_2 = (1 - lam^2) y^2 + y
    e2 = resolving_gap(MapSpec1D.logistic(lam), 2)
    assert e2.coeffs == (0.0, 1.0, 1.0 - lam * lam)


def test_gap_leading_coefficient():
    lam = 1.5
    for n in (1, 2, 3, 6):
        # the float view is correctly rounded
        e = resolving_gap(MapSpec1D.logistic(lam), n)
        assert e.coeffs[-1] == float(1 - Fraction(lam) ** n)


def test_identity_map_resonates():
    with pytest.raises(ResonanceDetected):
        solve_coefficient_system(MapSpec1D.identity(), 3, 1.0)


def test_resonance_at_minus_one():
    with pytest.raises(ResonanceDetected) as exc:
        solve_coefficient_system(MapSpec1D((0.0, -1.0, 0.3)), 4, 1.0)
    assert exc.value.order == 2


def test_coefficient_system_and_gap_reject_an_empty_order():
    f = MapSpec1D.logistic(2.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        solve_coefficient_system(f, 0, 1.0)
    with pytest.raises(ValueError, match="b_n must be nonzero"):
        solve_coefficient_system(f, 3, 0.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        resolving_gap(f, 0)


@pytest.mark.parametrize("b_n", [math.inf, -math.inf, math.nan])
def test_coefficient_system_rejects_a_non_finite_b_n(b_n):
    # Fraction(b_n) raised OverflowError for an infinity, ValueError for nan
    with pytest.raises(ValueError, match=f"b_n must be finite, got {b_n!r}"):
        solve_coefficient_system(MapSpec1D.logistic(2.0), 3, b_n)


def test_resonance_check_skips_a_power_beyond_the_double_range():
    # 1e200**2 raises OverflowError; that order cannot resonate, so the
    # solve goes on to the chain, whose order-2 coefficient overflows
    with pytest.raises(CoefficientOverflow, match="exceeds float range at order 2"):
        solve_coefficient_system(MapSpec1D((0.0, 1e200, -0.5)), 2, 1.0)


def test_system_base_case_empty():
    cs = solve_coefficient_system(MapSpec1D.logistic(2.0), 1, 1.0)
    assert cs.b_star == ()


def test_system_matches_dense_solve():
    """Independent oracle: the same cancellation conditions as a dense
    linear system, solved by numpy."""
    f = MapSpec1D.logistic(2.0)
    n, b_n = 3, 1.0
    cs = solve_coefficient_system(f, n, b_n)

    gaps = [None] + [resolving_gap(f, m) for m in range(1, n + 1)]

    def coeff(m, k):
        c = gaps[m].coeffs
        return c[k] if k < len(c) else 0.0

    A = np.array([[coeff(m, k) for m in range(1, n)] for k in range(1, n)])
    rhs = np.array([-b_n * coeff(n, k) for k in range(1, n)])
    expected = np.linalg.solve(A, rhs)
    assert np.allclose(cs.b_star, expected, rtol=1e-12, atol=0)


def test_system_cancellation_residual():
    f = MapSpec1D.logistic(2.0)
    n, b_n = 12, 1.0
    cs = solve_coefficient_system(f, n, b_n)
    weights = list(cs.b_star) + [b_n]
    total = np.zeros(n + 1)
    max_input = 0.0
    for m, w in zip(range(1, n + 1), weights):
        e = resolving_gap(f, m).coeffs
        max_input = max(max_input, max(abs(c) for c in e))
        for k, c in enumerate(e):
            total[k] += w * c
    assert np.max(np.abs(total[1:n])) < 1e-9 * max_input
    lead = (1.0 - 2.0**n) * b_n
    assert abs(total[n] - lead) < 1e-9 * abs(lead)


def test_system_coefficients_stabilise_with_order():
    # with b_n fixed, the normalised low-order coefficients b*_m / b*_1
    # settle geometrically as the truncation order grows
    f = MapSpec1D.logistic(2.0)
    ratios = []
    for n in (6, 8, 10, 12, 14):
        cs = solve_coefficient_system(f, n, 1.0)
        ratios.append(cs.b_star[2] / cs.b_star[0])
    steps = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    assert all(b < a for a, b in zip(steps, steps[1:]))
    assert steps[-1] < 0.01


def fraction_system(f, n, b_n):
    """Oracle for solve_coefficient_system: the back-substitution in reduced
    Fractions on the Faa di Bruno chain, each result rounded by float()."""
    h = faa_di_bruno_chain(f, n)
    lam = Fraction(f.lam)
    b = {n: Fraction(b_n)}
    for k in range(n - 1, 0, -1):
        b[k] = sum(b[m] * h[m][k] for m in range(k + 1, n + 1)) / (1 - lam**k)
    return ([float(b[m]) for m in range(1, n)],
            [[float(c) for c in Polynomial(row).coeffs] for row in h])


def bits(xs):
    """Exact bit patterns, so that 0.0 and -0.0 differ."""
    return [x.hex() for x in xs]


@pytest.mark.parametrize("coeffs,n", [
    ((0.0, 2.0, -0.5), 96),
    ((0.0, -2.0, -0.5), 96),
    ((0.0, 2.0, 0.0, 0.0, -1 / 16), 64),
    ((0.0, float(Fraction(3, 7)), -0.5), 30),
    ((0.0, 1.7, 0.3, -0.2), 30),
], ids=["logistic+2", "logistic-2", "quartic", "lam-3/7", "dense-cubic"])
def test_system_and_views_bit_identical_to_fraction_oracle(coeffs, n):
    f = MapSpec1D(coeffs)
    chain = faa_di_bruno_chain(f, n)
    assert [p.coeffs for p in bell_sequence_exact(f, n)] == [
        Polynomial(row).coeffs for row in chain]
    assert [bits(p.coeffs) for p in bell_sequence(f, n)] == [
        bits(Polynomial([float(c) for c in row]).coeffs) for row in chain]
    for b_n in (1.0, -1.0, 0.3):
        cs = solve_coefficient_system(f, n, b_n)
        b_star, h = fraction_system(f, n, b_n)
        assert list(cs.b_star) == b_star and bits(cs.b_star) == bits(b_star)
        assert [list(row) for row in cs.h] == h
        assert [bits(row) for row in cs.h] == [bits(row) for row in h]


def test_overflow_reported():
    f = MapSpec1D((0.0, 1e30, -0.5))
    with pytest.raises(CoefficientOverflow) as exc:
        bell_sequence(f, 11)
    assert exc.value.order == 11  # lam^11 = 1e330 is the first coefficient out of range
    assert len(bell_sequence(f, 10)) == 11


def test_overflow_message_names_only_existing_api(tmp_path, capsys):
    map_path = tmp_path / "logistic2.json"
    map_path.write_text(json.dumps(MapSpec1D.logistic(2.0).to_json()))
    argv = ["--map", str(map_path), "-n", "400", "--out", str(tmp_path / "out.csv")]
    assert run(["hermite", "gen", *argv]) == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message.startswith("coefficient magnitude exceeds float range at order 291;")
    names = re.findall(r"\b[a-z]+(?:_[a-z]+)+\b", message)
    assert names == ["bell_sequence_exact"] and hasattr(bell, names[0])
    assert "hermite zeros" in message
    assert run(["hermite", "zeros", *argv]) == 0  # the chain it names is solved


def golub_welsch_positive_nodes(n):
    """Positive zeros of the physicists' H_n, to about 2^-128 relative.

    Golub & Welsch: the eigenvalues of the Jacobi matrix with off-diagonal
    sqrt(k/2).  eigvalsh alone leaves them 5.4e-15 off at n = 64 and 1.5e-14
    at n = 256, above the bound they serve, so each gets two Newton steps on
    the three-term recurrence in 128-bit fixed point: Python ints over 2^128,
    both terms shifted down together once they pass 256 bits (their ratio is
    all the step reads).  That matches the same steps in mpmath at 128 bits
    within 1.5e-38 (n = 64 and 256) and takes 0.04 s at n = 256, not 0.5 s.
    """
    off = np.sqrt(np.arange(1, n) / 2)
    h = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    P, out = 128, []
    for x in h[h > 1e-8]:  # the zero eigenvalue of odd n is about 1e-17
        p, q = float(x).as_integer_ratio()
        X = (p << P) // q  # exact: q is a power of two below 2^P
        for _ in range(2):
            prev, cur = 1 << P, X << 1  # H_0 and H_1 = 2x, over 2^P
            for k in range(1, n):
                prev, cur = cur, ((X * cur) >> (P - 1)) - 2 * k * prev
                s = cur.bit_length() - 2 * P
                if s > 0:
                    prev, cur = prev >> s, cur >> s
            X -= (cur << P) // (2 * n * prev)  # H_n / H_n' = H_n / (2n H_{n-1})
        with mpmath.workprec(P):
            out.append(mpmath.mpf(X) / 2**P)
    return out


def _no_fallback(monkeypatch):
    def fail(p):
        raise AssertionError("chain_roots fell back to poly_roots")
    monkeypatch.setattr(bell, "poly_roots", fail)


def _logistic_zero_errors(lam, n, nodes):
    # The positive zeros of the logistic H_n(y, 0) are y = 2h^2/lam^2 over
    # the positive Hermite nodes h; the other ceil(n/2) sit at the origin.
    # Returns each positive zero's relative error, smallest zero first.
    zeros = real_zeros(chain_roots(MapSpec1D.logistic(lam), n))
    assert len(zeros) == n
    assert zeros.count(0.0) == (n + 1) // 2
    got = [y for y in zeros if y != 0.0]
    with mpmath.workprec(128):
        want = sorted(2 * h * h / mpmath.mpf(lam) ** 2 for h in nodes)
        assert len(got) == len(want)
        return [abs(mpmath.mpf(y) / w - 1) for y, w in zip(got, want)]


def _assert_logistic_zeros(lam, n, nodes):
    # measured against Golub-Welsch nodes: at most 3.6e-16 (n <= 64),
    # 2.1e-16 (n = 256), 4.0e-16 (n = 512); hermgauss's own nodes: 4.0e-16
    assert max(_logistic_zero_errors(lam, n, nodes)) <= 1e-15


def test_chain_roots_match_golub_welsch_nodes(monkeypatch):
    _no_fallback(monkeypatch)
    nodes = golub_welsch_positive_nodes(256)
    for lam in (2.0, 0.25, -2.0):
        _assert_logistic_zeros(lam, 256, nodes)


def test_chain_roots_match_golub_welsch_nodes_at_512(monkeypatch):
    # The smallest roots settle in rounding noise: 5 sweeps, the worst
    # (the second smallest) 4.0e-16 off.
    _no_fallback(monkeypatch)
    _assert_logistic_zeros(2.0, 512, golub_welsch_positive_nodes(512))


def test_chain_roots_match_golub_welsch_nodes_at_1024(monkeypatch):
    # Newton steps by the double recurrence land the smallest root with a
    # spread of 1.1e-15 relative (their standard deviation from 401 points
    # within 200 ulps of it; 3.9e-16 for the next root, 1.4e-16 for the
    # sixth), however the sweeps reach it.  Measured: 1.6e-15 and 6.5e-16
    # for the two smallest, at most 4.9e-16 for the other 510.
    _no_fallback(monkeypatch)
    errors = _logistic_zero_errors(2.0, 1024, golub_welsch_positive_nodes(1024))
    assert max(errors[:2]) <= 5e-15
    assert max(errors[2:]) <= 1e-15


def _counted_evaluator(monkeypatch):
    calls = []
    real = bell._chain_step

    def counted(*args):
        evaluate = real(*args)
        return lambda rows, y: calls.append(1) or evaluate(rows, y)
    monkeypatch.setattr(bell, "_chain_step", counted)
    return calls


def _counted_exact_signs(monkeypatch):
    calls = []
    exact = bell._exact_sign
    monkeypatch.setattr(bell, "_exact_sign", lambda *args: calls.append(args) or exact(*args))
    return calls


def _horner_signs(row, D, ends):
    """The sign of H_n = sum_k row[k] (y/D)^k at each double y of ends, by
    exact int Horner: y = P / 2^E, scaled by (2^E D)^deg > 0."""
    E = max(y.as_integer_ratio()[1].bit_length() for y in ends) - 1
    q, deg = 2**E * D, len(row) - 1
    terms = [c * q ** (deg - k) for k, c in enumerate(row)]
    values = [_horner(terms, int(Fraction(y) * 2**E)) for y in ends]
    return [(v > 0) - (v < 0) for v in values]


@pytest.mark.parametrize("n", [64, 256])
def test_golub_welsch_starts_take_two_sweeps(monkeypatch, n):
    # measured: 2 sweeps at n = 64 and 256 (4 and 5 from the half-semicircle
    # quantiles, 13 and 41 from the Newton-polygon circles); the interval
    # ratios decide every sign, so no exact sign is taken
    _no_fallback(monkeypatch)
    sweeps = _counted_evaluator(monkeypatch)
    exact = []
    monkeypatch.setattr(bell, "_exact_sign", lambda *args: exact.append(args))
    assert len(chain_roots(MapSpec1D.logistic(2.0), n)) == n
    assert len(sweeps) == 2
    assert exact == []


@pytest.mark.parametrize("lam", [2.0, -2.0])
@pytest.mark.parametrize("c2", [-0.5, 0.3])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
def test_quadratic_multiplicities_match_the_int_chain(lam, c2, n):
    # chain_roots takes m0 = ceil(n/2) zeros at the origin and N = floor(n/2)
    # others without the int chain; the int row says the same
    f = MapSpec1D((0.0, lam, c2))
    row, _ = bell._last_row(bell._derivs_at_0(f), n)
    m0 = next(k for k, c in enumerate(row) if c)
    roots = chain_roots(f, n)
    assert roots.count(0j) == m0 == (n + 1) // 2
    assert len(roots) - m0 == len(row) - 1 - m0 == n // 2
    assert all(r.real * c2 < 0 for r in roots if r)


def _no_int_chain(monkeypatch):
    def fail(derivs, n):
        raise AssertionError("the int chain was built")
    monkeypatch.setattr(bell, "_int_chain", fail)


@pytest.mark.parametrize("coeffs", [(0.0, 2.0, -0.5), (0.0, float(Fraction(3, 7)), 0.3)])
@pytest.mark.parametrize("n", [64, 1024])
def test_quadratic_chains_never_build_the_int_chain(monkeypatch, coeffs, n):
    _no_fallback(monkeypatch)
    _no_int_chain(monkeypatch)
    roots = chain_roots(MapSpec1D(coeffs), n)
    assert len(roots) == n and roots.count(0j) == (n + 1) // 2


def _hermite_certificate(f, n):
    """(xs, certified): the roots of Q off the origin on the quadratic path,
    and the certificate on its fast signs, the doubles', then the exact
    recurrence's."""
    def certified(ys):
        return bell._certified(ys, bell._derivs_at_0(f), n,
                               lambda ends: bell._ratio_signs(*f.coeffs[1:], n, ends))
    return sorted(r.real for r in chain_roots(f, n) if r), certified


@pytest.mark.parametrize("coeffs", [(0.0, 2.0, -0.5), (0.0, 3.9, -0.5),
                                    (0.0, float(Fraction(3, 7)), 0.3)])
def test_ratio_certificate_rejects_a_moved_root(monkeypatch, coeffs):
    # One root off by 1e-9 relative: the doubles decide both ends of its
    # bracket, with one sign, so no exact sign is taken.
    xs, certified = _hermite_certificate(MapSpec1D(coeffs), 64)

    def fail(*args):
        raise AssertionError("an end was left open")
    monkeypatch.setattr(bell, "_exact_sign", fail)
    assert certified(xs)
    for i in (0, 5, len(xs) - 1):
        assert not certified(xs[:i] + [xs[i] * (1 + 1e-9)] + xs[i + 1:])


def test_open_ratio_ends_take_exact_signs(monkeypatch):
    # Every third end forced open goes to _exact_sign, alone, and the
    # verdicts stay: the roots hold, a root moved by 1e-9 fails.
    xs, certified = _hermite_certificate(MapSpec1D.logistic(2.0), 128)
    moved = xs[:5] + [xs[5] * (1 + 1e-9)] + xs[6:]
    want = [certified(ys) for ys in (xs, moved)]
    assert want == [True, False]
    _no_int_chain(monkeypatch)
    ratio = bell._ratio_signs
    monkeypatch.setattr(bell, "_ratio_signs", lambda *args: [
        0 if j % 3 == 0 else sign for j, sign in enumerate(ratio(*args))])
    calls = _counted_exact_signs(monkeypatch)
    assert [certified(ys) for ys in (xs, moved)] == want
    assert len(calls) == 2 * len(range(0, 2 * len(xs), 3))


@pytest.mark.parametrize("coeffs", [(0.0, 2.0, -0.5), (0.0, float(Fraction(3, 7)), 0.3),
                                    (0.0, -1.3, 0.7)])
@pytest.mark.parametrize("n", [1, 2, 5, 64, 65])
def test_hermite_signs_match_int_signs(coeffs, n):
    # At points of both signs over the span of the zeros, near roots too:
    # a sign the doubles or the int balls decide, and every exact sign, is
    # exact int Horner's on the int chain's row.  At the zeros themselves
    # H_n is below the rounding the intervals carry, so they stay open there
    # (measured: at every zero of n <= 256).
    f = MapSpec1D(coeffs)
    derivs = bell._derivs_at_0(f)
    row, D = bell._last_row(derivs, n)
    span = 4 * n * abs(coeffs[2]) / coeffs[1] ** 2
    roots = [r.real for r in chain_roots(f, n) if r]
    assert not any(bell._ratio_signs(*f.coeffs[1:], n, roots))
    ends = sorted({float(v) for v in np.random.default_rng(n).uniform(-span, span, 40)}
                  | {x * (1 + e) for x in roots[::7] for e in (-1e-13, 1e-13)})
    want = _horner_signs(row, D, ends)
    balls = bell._int_signs(row, D, (n + 1) // 2, ends)
    assert all(got in (0, sign) for got, sign in zip(balls, want))
    ratio = bell._ratio_signs(*f.coeffs[1:], n, ends)
    assert all(got in (0, sign) for got, sign in zip(ratio, want))
    assert [sign or bell._exact_sign(derivs, n, y) for sign, y in zip(ratio, ends)] == want
    assert [bell._exact_sign(derivs, n, y) for y in ends] == want


@pytest.mark.parametrize("n,error", [(0, DegreeZero), (-1, ValueError)])
def test_quadratic_chain_below_order_one_keeps_its_error(n, error):
    # H_0 = 1 has no root to solve for; n < 0 is no chain
    with pytest.raises(error):
        chain_roots(MapSpec1D.logistic(2.0), n)


def test_quadratic_chain_beyond_the_double_range_falls_back():
    # lam = 1e300: lam^2 overflows, the starts are 0 and the sweeps fail, so
    # the root 1e-600 of H_2 = 1e600 y^2 - y comes from poly_roots (as 0)
    f = MapSpec1D((0.0, 1e300, -0.5))
    assert chain_roots(f, 2) == poly_roots(bell_sequence_exact(f, 2)[2]) == [0j, 0j]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**200, 2**200), min_size=1, max_size=12).filter(lambda g: g[-1]),
       st.integers(-2**60, 2**60), st.integers(-3, 3), st.integers(2, 300))
def test_ball_signs_never_contradict_exact_signs(g, r, delta, K):
    # (x - r) g(x) at P = r + delta: 0, or small against its terms
    terms = [0] * (len(g) + 1)
    for i, c in enumerate(g):
        terms[i + 1] += c
        terms[i] -= r * c
    v = _horner(terms, r + delta)
    assert bell._ball_signs(terms, [r + delta], K) in ([0], [(v > 0) - (v < 0)])


def test_certificate_takes_undecided_balls_to_exact_signs(monkeypatch):
    # The ball width, deg H_128 + 64 bits, decides every end of H_128's
    # brackets; at 16 bits the ends a ball leaves at 0 go to the exact
    # recurrence, with the same verdicts.
    f = MapSpec1D.logistic(2.0)
    derivs = bell._derivs_at_0(f)
    D, rows = bell._int_chain(derivs, 128)
    *_, row = rows
    xs = [r.real for r in chain_roots(f, 128) if r]
    moved = xs[:5] + [xs[5] * (1 + 1e-9)] + xs[6:]
    exact = _counted_exact_signs(monkeypatch)

    def signs(ends):
        got = bell._int_signs(row, D, 64, ends)
        assert all(sign in (0, h) for sign, h in zip(got, _horner_signs(row, D, ends)))
        return got
    want = [bell._certified(x, derivs, 128, signs) for x in (xs, moved)]
    assert want == [True, False] and exact == []
    monkeypatch.setattr(bell, "_BALL_BITS", 16 - 128)
    assert [bell._certified(x, derivs, 128, signs) for x in (xs, moved)] == want
    assert 0 < len(exact) <= 4 * len(xs)


@pytest.mark.parametrize("coeffs,n", [
    ((0.0, 2.0, -0.5), 64),                # c2 < 0: the zeros are positive
    ((0.0, float(Fraction(3, 7)), 0.3), 41),  # c2 > 0: the zeros are negative
    ((0.0, 2.0, 0.0, -1.0 / 3.0), 40),     # the odd cubic m_hermite(2, 3)
    ((0.0, 1.7, 0.3, -0.2), 30),           # a dense cubic
    ((0.0, 0.0, -0.5, 1.0), 12),           # lam = 0
    ((0.0, 0.0, -0.5, 1.0), 13),
    ((0.0, 1.7, 0.3, -0.2, 0.0), 31),      # a trailing zero coefficient
])
def test_exact_sign_matches_int_horner(coeffs, n):
    # The complete-Bell recurrence in ints at y, for any degree of f, has
    # exact int Horner's sign on the int chain's row, at both signs of y
    # and next to every root.
    f = MapSpec1D(coeffs)
    derivs = bell._derivs_at_0(f)
    row, D = bell._last_row(derivs, n)
    roots = [r.real for r in poly_roots(bell_sequence_exact(f, n)[n]) if r]
    span = 2 * max(map(abs, roots))
    ends = sorted({float(v) for v in np.random.default_rng(n).uniform(-span, span, 40)}
                  | {x * (1 + e) for x in roots for e in (-1e-13, 1e-13)}
                  | {-x for x in roots} | {2.0**-60, -(2.0**-60), 3e5, -3e5})
    want = _horner_signs(row, D, ends)
    assert {-1, 1} <= set(want) and min(ends) < 0 < max(ends)
    assert [bell._exact_sign(derivs, n, y) for y in ends] == want


def _all_open(ends):
    return [0] * len(ends)


@pytest.mark.parametrize("f", [MapSpec1D.logistic(2.0), MapSpec1D.m_hermite(2.0, 3)],
                         ids=["quadratic", "cubic"])
@pytest.mark.parametrize("forced_open", [False, True])
def test_certificate_rejects_a_moved_root_on_either_path(monkeypatch, f, forced_open):
    # chain_roots' own fast signs (interval ratios, int balls), or none at
    # all so that the exact recurrence takes every end: the roots hold, and
    # any one of them moved by 1e-9 relative fails.
    _no_fallback(monkeypatch)
    n = 64
    certified = []
    real = bell._certified

    def spy(xs, derivs, n, fast):
        certified.append((xs, derivs, fast))
        return real(xs, derivs, n, _all_open if forced_open else fast)
    monkeypatch.setattr(bell, "_certified", spy)
    exact = _counted_exact_signs(monkeypatch)
    roots = chain_roots(f, n)
    assert len(certified) == 1
    xs, derivs, fast = certified[0]
    assert sorted(r.real for r in roots if r) == xs
    assert len(exact) == (2 * len(xs) if forced_open else 0)
    if forced_open:
        fast = _all_open
    for i in (0, 5, len(xs) - 1):
        moved = xs[:i] + [xs[i] * (1 + 1e-9)] + xs[i + 1:]
        assert not real(moved, derivs, n, fast)


@pytest.mark.parametrize("n", [*range(2, 21), 64])
def test_chain_roots_match_hermgauss_nodes(monkeypatch, n):
    _no_fallback(monkeypatch)
    h, _ = np.polynomial.hermite.hermgauss(n)
    _assert_logistic_zeros(2.0, n, [mpmath.mpf(float(x)) for x in h if x > 1e-8])


@pytest.mark.parametrize("coeffs,n", [
    ((0.0, float(Fraction(3, 7)), -0.5), 40),
    ((0.0, 1.7, 0.3, -0.2), 30),           # a dense cubic
    ((0.0, 2.0, 0.0, -1.0 / 3.0), 40),     # m_hermite(2, 3)
    ((0.0, 0.0, -0.5, 1.0), 12),           # lam = 0: H_12 has degree 6
    ((0.0, 2.0, -0.5), 1),                 # H_1 = 2y: no root off the origin
    ((0.0, 1.0), 5),                       # H_5 = y^5
    ((0.0, float(Fraction(3, 7)), 0.3), 40),  # c2 > 0: the zeros are negative
    ((0.0, float(Fraction(3, 7)), 0.3), 41),
])
def test_chain_roots_agree_with_poly_roots(coeffs, n):
    f = MapSpec1D(coeffs)
    got = chain_roots(f, n)
    want = poly_roots(bell_sequence_exact(f, n)[n])
    assert len(got) == len(want)
    assert all(r.imag == 0 for r in got)
    for a, b in zip(got, want):  # measured: at most 3.3e-16
        assert abs(a - b) <= 1e-15 * abs(b)


def test_chain_roots_weight_overflow_falls_back_to_poly_roots(monkeypatch):
    # A weight of the recurrence (f''(0) = -2e308) is beyond the double
    # range, so every root comes from poly_roots on the exact H_6.
    calls = []
    monkeypatch.setattr(bell, "poly_roots", lambda p: calls.append(p) or poly_roots(p))
    f = MapSpec1D((0.0, 1e200, -1e308))
    got = chain_roots(f, 6)
    assert len(calls) == 1
    assert got == poly_roots(bell_sequence_exact(f, 6)[6])


def test_certificate_rejects_a_moved_root(monkeypatch):
    # One root off by 1e-9 relative lies outside its 2^-40 bracket, so the
    # certificate fails and every root comes from poly_roots instead.
    real = bell._batch_aberth

    def moved(evaluate, z):
        z, ok = real(evaluate, z)
        z[0, 5] *= 1 + 1e-9
        return z, ok
    monkeypatch.setattr(bell, "_batch_aberth", moved)
    f = MapSpec1D.logistic(2.0)
    want = poly_roots(bell_sequence_exact(f, 64)[64])
    calls = []
    monkeypatch.setattr(bell, "poly_roots", lambda p: calls.append(p) or poly_roots(p))
    assert chain_roots(f, 64) == want
    assert len(calls) == 1
