import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdensity import bell
from pfdensity.bell import (MapSpec1D, bell_chain, bell_sequence,
                            bell_sequence_exact, chain_roots,
                            classify_multiplier, resolving_gap,
                            resolving_gap_exact, scaled_float_coeffs,
                            solve_coefficient_system)
from pfdensity.cli import run
from pfdensity.errors import CoefficientOverflow, ResonanceDetected
from pfdensity.poly import Polynomial, poly_roots, real_zeros


def hermite_phys(m, t):
    """Physicists' Hermite three-term recurrence, exact over Fractions."""
    prev, cur = Fraction(1), 2 * t
    if m == 0:
        return prev
    for k in range(1, m):
        prev, cur = cur, 2 * t * cur - 2 * k * prev
    return cur


def derivs_at(f, a):
    """[f'(a), ..., f^(deg f)(a)] exactly: f^(i)(a) = sum_k k!/(k-i)! f_k a^(k-i)."""
    fc = f.exact_coeffs()
    return [sum(math.perm(k, i) * c * a ** (k - i) for k, c in enumerate(fc) if k >= i)
            for i in range(1, len(fc))]


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


def test_map_json_roundtrip():
    f = MapSpec1D((0.0, 2.0, -0.5))
    assert MapSpec1D.from_json(f.to_json()) == f


def test_h1_is_y_fprime():
    f = MapSpec1D((0.0, 1.5, -0.5, 0.25))
    for a in (Fraction(0), Fraction(1, 3), Fraction(-5, 2)):
        H0, H1 = bell_chain(derivs_at(f, a), 1)
        # y * f'(a) with f'(a) = 1.5 - a + 0.75 a^2
        assert H0.coeffs == (Fraction(1),)
        assert H1.coeffs == (Fraction(0), Fraction(3, 2) - a + Fraction(3, 4) * a * a)


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
       st.floats(-0.5, 0.5, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
       st.floats(-0.5, 0.5, allow_nan=False))
def test_generating_identity_against_finite_differences(n, y, a):
    """d^n/da^n e^{y f(a)} = H_n(y,a) e^{y f(a)}, checked by a central
    finite-difference stencil evaluated in 60-digit arithmetic."""
    f = MapSpec1D((0.0, 1.25, -0.5))
    H = bell_chain(derivs_at(f, Fraction(a)), n)[n]
    with mpmath.workdps(60):
        ym, am, h = mpmath.mpf(y), mpmath.mpf(a), mpmath.mpf("1e-3")

        def g(t):
            return mpmath.exp(ym * (mpmath.mpf("1.25") * t - t * t / 2))

        stencil = mpmath.mpf(0)
        for k in range(n + 1):
            stencil += (-1) ** k * mpmath.binomial(n, k) * g(am + (mpmath.mpf(n) / 2 - k) * h)
        stencil /= h**n
        expected = float(stencil / g(am))
    got = float(H(Fraction(y)))
    assert abs(got - expected) <= 1e-5 * max(1.0, abs(expected))


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
        assert resolving_gap_exact(MapSpec1D.identity(), n).coeffs == (Fraction(0),)


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
        e = resolving_gap_exact(MapSpec1D.logistic(lam), n)
        assert e.coeffs[-1] == 1 - Fraction(lam) ** n


def test_identity_map_resonates():
    with pytest.raises(ResonanceDetected):
        solve_coefficient_system(MapSpec1D.identity(), 3, 1.0)


def test_resonance_at_minus_one():
    with pytest.raises(ResonanceDetected) as exc:
        solve_coefficient_system(MapSpec1D((0.0, -1.0, 0.3)), 4, 1.0)
    assert exc.value.order == 2


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


def test_scaled_export_for_overflowing_chain():
    f = MapSpec1D((0.0, 1e30, -0.5))
    p = bell_sequence_exact(f, 11)[11]
    coeffs, log2_scale = scaled_float_coeffs(p)
    assert max(abs(c) for c in coeffs) == pytest.approx(1.0, rel=1.0)
    assert log2_scale > 1000  # lam^11 = 1e330 alone needs ~1097 bits
    assert all(math.isfinite(c) for c in coeffs)


def test_scaled_export_for_int_coefficients():
    # an int beyond the double range is scaled by its bit length, not float()
    coeffs, log2_scale = scaled_float_coeffs(Polynomial([10**400, 1]))
    assert log2_scale == (10**400).bit_length() - 1
    assert 1.0 <= coeffs[0] < 2.0
    assert coeffs == [float(Fraction(10**400, 2**log2_scale)), 0.0]  # 2**-1328 underflows


def golub_welsch_positive_nodes(n):
    """Positive zeros of the physicists' H_n, to about 2^-128 relative.

    Golub & Welsch: the eigenvalues of the Jacobi matrix with off-diagonal
    sqrt(k/2).  eigvalsh alone leaves them 5.4e-15 off at n = 64 and 1.5e-14
    at n = 256, above the bound they serve, so each gets two Newton steps on
    the three-term recurrence at 128 bits.
    """
    off = np.sqrt(np.arange(1, n) / 2)
    h = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    out = []
    with mpmath.workprec(128):
        for x in h[h > 1e-8]:  # the zero eigenvalue of odd n is about 1e-17
            x = mpmath.mpf(float(x))
            for _ in range(2):
                prev, cur = mpmath.mpf(1), 2 * x
                for k in range(1, n):
                    prev, cur = cur, 2 * x * cur - 2 * k * prev
                x -= cur / (2 * n * prev)
            out.append(x)
    return out


def _no_fallback(monkeypatch):
    def fail(p):
        raise AssertionError("chain_roots fell back to poly_roots")
    monkeypatch.setattr(bell, "poly_roots", fail)


def _assert_logistic_zeros(lam, n, nodes):
    # The positive zeros of the logistic H_n(y, 0) are y = 2h^2/lam^2 over
    # the positive Hermite nodes h; the other ceil(n/2) sit at the origin.
    zeros = real_zeros(chain_roots(MapSpec1D.logistic(lam), n))
    assert len(zeros) == n
    assert zeros.count(0.0) == (n + 1) // 2
    got = [y for y in zeros if y != 0.0]
    with mpmath.workprec(128):
        want = sorted(2 * h * h / mpmath.mpf(lam) ** 2 for h in nodes)
        assert len(got) == len(want)
        # measured: at most 3.7e-16 (n = 256), 1.9e-16 (n <= 64)
        assert max(abs(mpmath.mpf(y) / w - 1) for y, w in zip(got, want)) <= 1e-15


def test_chain_roots_match_golub_welsch_nodes(monkeypatch):
    _no_fallback(monkeypatch)
    nodes = golub_welsch_positive_nodes(256)
    for lam in (2.0, 0.25, -2.0):
        _assert_logistic_zeros(lam, 256, nodes)


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
])
def test_chain_roots_agree_with_poly_roots(coeffs, n):
    f = MapSpec1D(coeffs)
    got = chain_roots(f, n)
    want = poly_roots(bell_sequence_exact(f, n)[n])
    assert len(got) == len(want)
    assert all(r.imag == 0 for r in got)
    for a, b in zip(got, want):  # measured: at most 3.3e-16
        assert abs(a - b) <= 1e-15 * abs(b)


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


@pytest.mark.parametrize("lam,expected", [
    (0.5, "attracting"),
    (1.0, "neutral"),
    (2.0, "repelling"),
    (-3.0, "repelling"),
])
def test_classify_multiplier(lam, expected):
    assert classify_multiplier(lam) == expected
    assert classify_multiplier(lam, n=3) == expected
