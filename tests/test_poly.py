import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdensity.bell import MapSpec1D, bell_sequence_exact
from pfdensity.errors import (CoefficientOverflow, DegreeZero, DomainError,
                              NonConvergence)
from pfdensity.poly import (Polynomial, RootConfig, poly_derivative, poly_eval,
                            poly_roots, real_zeros)

HERMITE4 = Polynomial([12.0, 0.0, -48.0, 0.0, 16.0])
# companion-matrix eigenvalue oracle (np.roots) for 16x^4 - 48x^2 + 12:
HERMITE4_ROOTS = [-1.6506801238857851, -0.5246476232752904,
                  0.5246476232752904, 1.6506801238857851]


def test_eval_factored_root():
    assert poly_eval(Polynomial([-1, 0, 1]), 1.0) == 0


def test_eval_constant_complex_arg():
    assert poly_eval(Polynomial([1.0]), 7 + 2j) == 1.0


def test_eval_cubic():
    # 8x^3 - 12x at x=2: 64 - 24 = 40
    assert poly_eval(Polynomial([0.0, -12.0, 0.0, 8.0]), 2.0) == 40.0


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=9),
       st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
def test_horner_matches_termwise(coeffs, x):
    p = Polynomial(coeffs)
    direct = sum(c * x**k for k, c in enumerate(p.coeffs))
    scale = max(1.0, abs(direct))
    assert abs(poly_eval(p, x) - direct) <= 1e-12 * scale


def test_derivative_power_rule():
    assert poly_derivative(Polynomial([0, 0, 0, 1])).coeffs == (0, 0, 3)


def test_derivative_constant():
    assert poly_derivative(Polynomial([5.0])).coeffs == (0,)


def test_derivative_quadratic_in_y():
    lam = 1.3
    assert poly_derivative(Polynomial([0.0, -1.0, lam])).coeffs == (-1.0, 2 * lam)


def test_roots_of_unity():
    roots = poly_roots(Polynomial([-1.0, 0.0, 0.0, 1.0]))
    expected = sorted((cmath.exp(2j * math.pi * k / 3) for k in range(3)),
                      key=lambda z: (z.real, z.imag))
    for r, e in zip(roots, expected):
        assert abs(r - e) < 1e-10


def test_hermite4_roots_match_companion_oracle():
    roots = poly_roots(HERMITE4)
    zs = real_zeros(roots)
    assert len(zs) == 4
    for got, want in zip(zs, HERMITE4_ROOTS):
        assert abs(got - want) < 1e-10


def test_imaginary_pair():
    roots = poly_roots(Polynomial([1.0, 0.0, 1.0]))
    assert sorted((r.real, r.imag) for r in roots) == pytest.approx([(0, -1), (0, 1)])


def test_degree_zero_raises():
    with pytest.raises(DegreeZero):
        poly_roots(Polynomial([3.0]))


def test_non_convergence_reports_worst_residual():
    with pytest.raises(NonConvergence) as exc:
        poly_roots(Polynomial([-1.0, 0.0, 0.0, 1.0]), RootConfig(max_iterations=1))
    assert exc.value.worst_residual > 0


def test_worst_residual_is_in_the_polynomials_units():
    cfg = RootConfig(max_iterations=1)
    p = Polynomial([-1.0, 0.0, 0.0, 1.0])
    worst = {}
    for c in (1.0, 2.0**40):
        with pytest.raises(NonConvergence) as exc:
            poly_roots(Polynomial([c * x for x in p.coeffs]), cfg)
        worst[c] = exc.value.worst_residual
    assert worst[2.0**40] == 2.0**40 * worst[1.0]


def test_coefficient_beyond_double_range():
    # (10^400) x^2 - 1: the 53-bit solve cannot hold the coefficient
    p = Polynomial([-1, 0, 10**400])
    with pytest.raises(CoefficientOverflow) as exc:
        poly_roots(p)
    assert "precision-bits" in str(exc.value)
    roots = poly_roots(p, RootConfig(precision_bits=128))
    assert [abs(r) for r in roots] == pytest.approx([1e-200, 1e-200], rel=1e-15, abs=0)


def test_residual_check_holds_beyond_double_range():
    # 10^400 (x^4 + 3x^2 - 1) must be judged like x^4 + 3x^2 - 1
    base = [-1, 0, 3, 0, 1]
    polys = [Polynomial(base), Polynomial([10**400 * c for c in base])]
    for p in polys:
        with pytest.raises(NonConvergence):
            poly_roots(p, RootConfig(precision_bits=256, max_iterations=1))
    want, got = (poly_roots(p, RootConfig(precision_bits=256)) for p in polys)
    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_root_beyond_double_range_is_an_error():
    # x^2 - 10^700 has roots +-10^350, which no double can hold
    with pytest.raises(DomainError, match="1e350"):
        poly_roots(Polynomial([-10**700, 0, 1]), RootConfig(precision_bits=128))
    # x^4 + 10^400 x^3 - 1: one root near -10^400, three of modulus ~1e-133.
    # From the circle of radius ~10^400 the small ones need ~1400 sweeps, so
    # the default budget fails loudly instead of returning inf.
    p = Polynomial([-1, 0, 0, 10**400, 1])
    with pytest.raises(NonConvergence):
        poly_roots(p, RootConfig(precision_bits=256))
    with pytest.raises(DomainError, match="1e400"):
        poly_roots(p, RootConfig(precision_bits=256, max_iterations=1500))
    # at 53 bits the linear closed form -c0/c1 overflows
    with pytest.raises(DomainError):
        poly_roots(Polynomial([1e308, 1e-308]))


def test_closed_forms_see_normalised_coefficients():
    # 1e308 (x^2 + x + 1): c1^2 - 4 c2 c0 overflows unless the quadratic
    # is solved on the normalised coefficients
    want = [cmath.exp(-2j * math.pi / 3), cmath.exp(2j * math.pi / 3)]
    for bits in (53, 128):
        roots = poly_roots(Polynomial([1e308, 1e308, 1e308]),
                           RootConfig(precision_bits=bits))
        roots.sort(key=lambda r: r.imag)
        assert roots == pytest.approx(want, rel=1e-15, abs=0)
    # A scale that would flush 1e-300 to zero leaves the closed forms on the
    # caller's coefficients: 1e300 x^2 + 1e-300 keeps its roots +-1e-300 i.
    roots = poly_roots(Polynomial([1e-300, 0.0, 1e300]))
    assert roots == pytest.approx([-1e-300j, 1e-300j], rel=1e-15, abs=0)


def test_seed_fallback_when_leading_coefficient_underflows():
    # x^4 / 10^400 - 1: the leading coefficient underflows to 0 as a double
    # even after normalisation, so the 53-bit seeds are skipped
    roots = poly_roots(Polynomial([-1, 0, 0, 0, Fraction(1, 10**400)]),
                       RootConfig(precision_bits=256))
    assert [abs(r) for r in roots] == pytest.approx([1e100] * 4, rel=1e-15)


def test_logistic_h128_zeros_match_hermite_nodes():
    # The positive zeros of H_n(y, 0) for the logistic map are y = 2h^2/lam^2
    # over the positive Hermite nodes h; the other n/2 zeros sit at 0.
    n, lam = 128, 2.0
    poly = bell_sequence_exact(MapSpec1D.logistic(lam), n)[n]
    nodes, _ = np.polynomial.hermite.hermgauss(n)
    want = np.sort(2.0 * nodes[nodes > 0] ** 2 / lam**2)
    cfg = RootConfig(precision_bits=256)
    zeros = real_zeros(poly_roots(poly, cfg), cfg)
    assert len(zeros) == n
    assert zeros.count(0.0) == n // 2
    got = np.array([y for y in zeros if y > 0.0])
    assert np.max(np.abs(got - want) / want) < 1e-14


@pytest.mark.parametrize("n, bound", [(24, 1e-11), (40, 1e-7), (48, 1e-5)])
def test_logistic_zeros_at_53_bits_match_hermite_nodes(n, bound):
    lam = 2.0
    poly = bell_sequence_exact(MapSpec1D.logistic(lam), n)[n]
    nodes, _ = np.polynomial.hermite.hermgauss(n)
    want = np.sort(2.0 * nodes[nodes > 0] ** 2 / lam**2)
    zeros = real_zeros(poly_roots(poly))
    assert len(zeros) == n
    assert zeros.count(0.0) == n // 2
    got = np.array([y for y in zeros if y > 0.0])
    assert np.max(np.abs(got - want) / want) <= bound


def test_quartic_trinomial_zeros_at_53_bits_match_256_bits():
    poly = bell_sequence_exact(MapSpec1D.m_hermite(2.0, 4), 64)[64]
    want = poly_roots(poly, RootConfig(precision_bits=256))
    got = poly_roots(poly)
    assert len(real_zeros(got)) == len(real_zeros(want))
    assert got.count(0j) == want.count(0j)
    for a, b in ((want, got), (got, want)):
        for r in a:
            if r != 0:
                assert min(abs(r - x) for x in b) <= 1e-12 * abs(r)


def test_tiny_roots_are_judged_relatively():
    # 10^300 x^3 + 10^-300: three roots of modulus 1e-200
    p = Polynomial([1e-300, 0.0, 0.0, 1e300])
    roots = poly_roots(p, RootConfig(precision_bits=128))
    assert [abs(r) for r in roots] == pytest.approx([1e-200] * 3, rel=1e-15, abs=0)
    # at 53 bits the normalised constant term flushes to zero
    with pytest.raises(DomainError, match="precision-bits"):
        poly_roots(p)


def test_origin_roots_are_exact():
    # x^3(x - 2): trailing zeros peel off as exact origin roots
    roots = poly_roots(Polynomial([0.0, 0.0, 0.0, -2.0, 1.0]))
    assert roots[:3] == [0j, 0j, 0j]
    assert abs(roots[3] - 2.0) < 1e-12


def _random_poly(rng, degree):
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    # keep the leading coefficient away from zero so the monic form is tame
    coeffs[-1] = rng.uniform(0.2, 1.0) * (1 if rng.random() < 0.5 else -1)
    return Polynomial(list(coeffs))


def test_root_product_reconstructs_polynomial():
    rng = np.random.default_rng(20240811)
    for _ in range(40):
        degree = int(rng.integers(1, 13))
        p = _random_poly(rng, degree)
        roots = poly_roots(p)
        recon = np.array([1.0 + 0j])
        for r in roots:
            recon = np.convolve(recon, [-r, 1.0])
        monic = np.array(p.coeffs, dtype=complex) / p.coeffs[-1]
        scale = max(1.0, float(np.max(np.abs(monic))))
        assert float(np.max(np.abs(recon - monic))) < 1e-8 * scale


def test_scale_invariance_power_of_two_bitwise():
    p = Polynomial([0.5, -1.25, 3.0, 1.0])
    base = poly_roots(p)
    for c in (2.0**100, 2.0**-100):
        scaled = poly_roots(Polynomial([c * x for x in p.coeffs]))
        assert scaled == base  # power-of-two scaling is exact in binary floats


def test_scale_invariance_1e30():
    p = Polynomial([0.7, -0.2, 1.1, 0.9])
    base = poly_roots(p)
    for c in (1e30, 1e-30):
        scaled = poly_roots(Polynomial([c * x for x in p.coeffs]))
        for a in base:
            assert min(abs(a - b) for b in scaled) <= 1e-9 * (1.0 + abs(a))


def test_real_zeros_filters_imaginary():
    assert real_zeros([1 + 0j, 1j, -1j]) == [1.0]


def test_real_zeros_empty():
    assert real_zeros([]) == []


def test_real_zeros_sorted_hermite():
    zs = real_zeros(poly_roots(HERMITE4))
    assert zs == sorted(zs)


@settings(max_examples=30)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=5),
       st.floats(0.3, 1.0))
def test_even_polynomial_zeros_symmetric(body, lead):
    # p(x) = q(x^2) has zeros symmetric about 0
    even = [0.0] * (2 * len(body) + 3)
    for k, c in enumerate(body):
        even[2 * k] = c
    even[-1] = lead
    zs = real_zeros(poly_roots(Polynomial(even)))
    for z in zs:
        assert min(abs(z + w) for w in zs) < 1e-10 * (1.0 + abs(z))


def test_residual_bound_holds():
    # every root meets Horner's running-error bound at 53 bits
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = _random_poly(rng, int(rng.integers(2, 10)))
        for r in poly_roots(p):
            terms = sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))
            assert abs(poly_eval(p, r)) <= 4 * p.degree * 2.0**-53 * terms


def test_high_precision_path_matches_double():
    p = Polynomial([-2.0, 0.0, 1.0])
    lo = poly_roots(p)
    hi = poly_roots(p, RootConfig(precision_bits=128))
    for a, b in zip(lo, hi):
        assert abs(a - b) < 1e-14


def test_root_config_validation():
    with pytest.raises(ValueError):
        RootConfig(precision_bits=32)


def test_determinism():
    p = Polynomial([0.3, -1.0, 0.5, 1.0])
    assert poly_roots(p) == poly_roots(p)


def test_parallel_mixed_precision_solves_are_independent():
    # the mp working precision is global state; the solver must serialise
    # around it so disjoint solves can run on a thread pool
    from concurrent.futures import ThreadPoolExecutor

    p = Polynomial([-2.0, 0.0, 0.0, 1.0])
    base = {False: poly_roots(p), True: poly_roots(p, RootConfig(precision_bits=128))}

    def work(i):
        hp = bool(i % 2)
        cfg = RootConfig(precision_bits=128 if hp else 53)
        return hp, poly_roots(p, cfg)

    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(work, range(32)))
    assert all(roots == base[hp] for hp, roots in results)
