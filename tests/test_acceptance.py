"""Acceptance suite: one test per criterion, at the stated tolerance and
runtime budget.  Run with `pytest tests/test_acceptance.py -s` to see one
PASS/FAIL line per criterion."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pfdensity.bell import (MapSpec1D, bell_sequence_exact, resolving_gap,
                            solve_coefficient_system)
from pfdensity.empirical import (EmpiricalCDF, Histogram, arcsine_cdf,
                                 half_semicircle_cdf, histogram_ks,
                                 iterate_orbit, ks_distance, rescale,
                                 zeros_to_scaled_sample)
from pfdensity.errors import SingularTau
from pfdensity.lorenz import (LorenzParams, factorized_exponent, fixed_point,
                              characteristic_at_fixed_points, lorenz_system,
                              projection_value, q_decomposition)
from pfdensity.odeiter import (DifferentialIteration, OdeSystem,
                               critical_frequency_solution, euler_iterate,
                               jacobian_eigen)
from pfdensity.poly import poly_roots, real_zeros
from pfdensity.saddle import invariant_density_p, logistic_p_mass, zero_density_q


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL "
              f"({time.perf_counter() - start:.2f}s) - {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"criterion {number:2d}: {status} ({elapsed:.2f}s) - {label}")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s over budget {budget_s}s"


def hermite_phys_coeffs(m):
    """Exact coefficient lists of the physicists' Hermite polynomials."""
    polys = [[Fraction(1)], [Fraction(0), Fraction(2)]]
    while len(polys) <= m:
        k = len(polys) - 1
        prev, cur = polys[-2], polys[-1]
        nxt = [Fraction(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        polys.append(nxt)
    return polys[m]


def test_criterion_1_hermite_correspondence():
    """H_m(y=2) as a polynomial in the multiplier equals the physicists'
    Hermite polynomial of degree m (three-term-recurrence oracle)."""
    with criterion(1, "Hermite correspondence for n <= 10", 1.0):
        nmax = 10
        lams = [Fraction(j, 8) for j in range(1, nmax + 2)]  # dyadic: exact floats
        values = {lam: bell_sequence_exact(MapSpec1D.logistic(float(lam)), nmax)
                  for lam in lams}
        for m in range(nmax + 1):
            # interpolate H_m(2) through m+1 multipliers to get the
            # lambda-coefficients exactly
            pts = [(lam, sum(c * Fraction(2)**k
                             for k, c in enumerate(values[lam][m].coeffs)))
                   for lam in lams[:m + 1]]
            coeffs = _exact_interpolation(pts)
            oracle = hermite_phys_coeffs(m)
            assert len(coeffs) == len(oracle)
            for got, want in zip(coeffs, oracle):
                if want == 0:
                    assert got == 0
                else:
                    assert abs(float((got - want) / want)) < 1e-12


def _exact_interpolation(points):
    """Coefficients of the polynomial through (x_i, y_i), exact Fractions."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for xi, yi in points:
        num = [Fraction(1)]
        den = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            num = [Fraction(0)] + num[:]
            low = [-xj * c for c in num[1:]] + [Fraction(0)]
            num = [a + b for a, b in zip(num, low + [Fraction(0)] * (len(num) - len(low)))]
            den *= xi - xj
        for k in range(len(num)):
            coeffs[k] += yi * num[k] / den
    return coeffs


def test_criterion_2_saddle_vs_closed_form():
    with criterion(2, "saddle q vs closed form, 4 multipliers x 100 points", 1.0):
        for lam in (0.5, 1.0, 2.0, 3.9):
            f = MapSpec1D.logistic(lam)
            hi = 4.0 / (lam * lam)
            for k in range(1, 101):
                s = hi * k / 101.0
                got = zero_density_q(f, s)
                want = lam / (2.0 * math.pi) * math.sqrt(1.0 / s - lam * lam / 4.0)
                assert abs(got - want) < 1e-10


def test_criterion_3_semicircle_zeros():
    with criterion(3, "H_64 zeros vs half-semicircle (KS < 0.06)", 30.0):
        n, lam = 64, 2.0
        poly = bell_sequence_exact(MapSpec1D.logistic(lam), n)[n]
        zeros = real_zeros(poly_roots(poly))
        assert len(zeros) == n  # n/2-fold root at the origin + n/2 positive
        sample = zeros_to_scaled_sample(zeros, n, lam)
        assert sample.dropped == n // 2
        d = ks_distance(EmpiricalCDF.from_sample(sample.values),
                        half_semicircle_cdf)
        assert d < 0.06


def test_criterion_4_invariant_density_shape():
    with criterion(4, "p shape is Beta(1/2,1/2); raw mass 0.5", 1.0):
        for lam in (2.0, 3.9):
            f = MapSpec1D.logistic(lam)
            hi = 4.0 / (lam * lam)
            products = []
            for k in range(2, 100):
                s = hi * k / 101.0
                p = invariant_density_p(f, s)
                products.append(p * math.sqrt(s * (hi - s)))
            mean = sum(products) / len(products)
            assert all(abs(v - mean) <= 1e-6 * abs(mean) for v in products)
        # documented normalisation gap: the raw closed form carries mass 1/2
        assert abs(logistic_p_mass(2.0) - 0.5) < 1e-6


def test_criterion_5_orbit_oracle():
    with criterion(5, "1e6-iterate chaotic orbit vs arcsine (KS < 0.02)", 5.0):
        f = MapSpec1D((0.0, 4.0, -0.5))
        hist = iterate_orbit(f, 1.7, burn=1000, keep=1_000_000, seed=0)
        scaled = Histogram(edges=rescale(hist.edges, 0.0, 1.0),
                           counts=hist.counts, total=hist.total)
        assert histogram_ks(scaled, arcsine_cdf) < 0.02


def test_criterion_6_triangular_system():
    with criterion(6, "triangular system cancellation at n = 12", 1.0):
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
        assert float(np.max(np.abs(total[1:n]))) < 1e-9 * max_input
        lead = (1.0 - 2.0**n) * b_n
        assert abs(total[n] - lead) < 1e-9 * abs(lead)


def test_criterion_7_lorenz_eigenvalues():
    with criterion(7, "Lorenz spectra: factored values and cross-check", 1.0):
        p = LorenzParams(10.0, 28.0, 8.0 / 3.0)
        sys3 = lorenz_system(p)
        theta, alpha = characteristic_at_fixed_points(p)
        got = sorted(z.real for z in poly_roots(theta))
        for g, want in zip(got, (-22.8277, -2.66667, 11.8277)):
            assert abs(g - want) < 1e-3
        for tag, cubic in (("theta", theta), ("alpha_plus", alpha),
                           ("alpha_minus", alpha)):
            eig = jacobian_eigen(sys3, fixed_point(p, tag)).eigenvalues
            for r in poly_roots(cubic):
                assert min(abs(r - e) for e in eig) < 1e-9


def test_criterion_8_lorenz_decomposition():
    with criterion(8, "T^t Q T = diag(0,-mu,mu) and exact factorisation", 1.0):
        p = LorenzParams(10.0, 28.0, 8.0 / 3.0)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            direction = rng.normal(size=3)
            dec = q_decomposition(direction)
            D = dec.T.T @ dec.Q @ dec.T
            want = np.diag([0.0, -dec.mu, dec.mu])
            assert np.max(np.abs(D - want)) < 1e-12 * max(1.0, dec.mu)
            u = rng.normal(size=3)
            delta = float(rng.uniform(1e-4, 0.01))
            a = dec.T @ u
            lhs = projection_value(p, direction, delta, a)
            rhs = factorized_exponent(dec, p, delta, u)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_criterion_9_euler_scheme():
    with criterion(9, "Euler order and exact partial-sum identity", 5.0):
        decay = OdeSystem(1, [[((1,), -1.0)]])

        def run_linear(n):
            it = DifferentialIteration(decay, delta=1.0 / n, n=n)
            a_n, S_n = euler_iterate(it, [1.0])
            resid = abs((a_n[0] - 1.0) - it.delta * S_n[0])
            assert resid <= 1e-10 * max(1.0, abs(a_n[0] - 1.0))
            return abs(a_n[0] - math.exp(-1.0))

        ratio = run_linear(100) / run_linear(200)
        assert 1.8 <= ratio <= 2.2

        lorenz3 = lorenz_system(LorenzParams(10.0, 28.0, 8.0 / 3.0))
        it = DifferentialIteration(lorenz3, delta=1e-3, n=10_000)
        a0 = np.array([1.0, 1.0, 1.0])
        a_n, S_n = euler_iterate(it, a0)
        resid = float(np.max(np.abs((a_n - a0) - it.delta * S_n)))
        assert resid <= 1e-10 * max(1.0, float(np.max(np.abs(a_n - a0))))


def test_criterion_10_critical_frequencies():
    with criterion(10, "resolvent residual and SingularTau placement", 1.0):
        diag = OdeSystem.linear([[-2.0, 0.0], [0.0, -3.0]])
        a = [1.0, 1.0]
        J = diag.jacobian(a)
        for tau in (-0.2, 0.0, 0.1, 0.3, 0.9):
            s = critical_frequency_solution(diag, a, tau)
            resid = s + tau * s @ J - 1.0 / np.array(a)
            assert float(np.max(np.abs(resid))) < 1e-12 * 1.0
        for lam in (-2.0, -3.0):
            with pytest.raises(SingularTau) as exc:
                critical_frequency_solution(diag, a, -1.0 / lam)
            assert exc.value.eigenvalue == pytest.approx(lam, abs=1e-9)
        # away from the singular set on a non-diagonal Jacobian
        lorenz3 = lorenz_system(LorenzParams(10.0, 28.0, 8.0 / 3.0))
        pt = np.array([1.3, 0.7, 2.0])
        J3 = lorenz3.jacobian(pt)
        for tau in (0.0, 0.01, 0.02):
            s = critical_frequency_solution(lorenz3, pt, tau)
            resid = s + tau * s @ J3 - 1.0 / pt
            bound = 1e-12 * float(np.max(np.abs(1.0 / pt)))
            assert float(np.max(np.abs(resid))) < bound
