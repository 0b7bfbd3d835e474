import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfdensity import poly
from pfdensity.bell import MapSpec1D, bell_sequence_exact
from pfdensity.errors import DegreeZero, DomainError, NonConvergence
from pfdensity.poly import Polynomial, poly_roots, poly_roots_batch, real_zeros

HERMITE4 = Polynomial([12.0, 0.0, -48.0, 0.0, 16.0])
# companion-matrix eigenvalue oracle (np.roots) for 16x^4 - 48x^2 + 12:
HERMITE4_ROOTS = [-1.6506801238857851, -0.5246476232752904,
                  0.5246476232752904, 1.6506801238857851]


def test_eval_factored_root():
    assert Polynomial([-1, 0, 1])(1.0) == 0


def test_eval_constant_complex_arg():
    assert Polynomial([1.0])(7 + 2j) == 1.0


def test_eval_cubic():
    # 8x^3 - 12x at x=2: 64 - 24 = 40
    assert Polynomial([0.0, -12.0, 0.0, 8.0])(2.0) == 40.0


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=9),
       st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
def test_horner_matches_termwise(coeffs, x):
    p = Polynomial(coeffs)
    direct = sum(c * x**k for k, c in enumerate(p.coeffs))
    scale = max(1.0, abs(direct))
    assert abs(p(x) - direct) <= 1e-12 * scale


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


def test_non_convergence_reports_worst_residual(monkeypatch):
    monkeypatch.setattr(poly, "MAX_SWEEPS", 1)
    with pytest.raises(NonConvergence, match="in 1 sweeps at 256 bits") as exc:
        poly_roots(Polynomial([-1.0, 0.0, 0.0, 1.0]))
    assert 0 < exc.value.worst_residual < math.inf


def test_sevenfold_root_does_not_converge():
    # a 7-fold root misses the 2^-40 target at every level up to 256 bits,
    # and the solver says so instead of returning it
    with pytest.raises(NonConvergence, match="7 of 7 roots .* at 256 bits"):
        poly_roots(Polynomial([math.comb(7, k) * (-1) ** (7 - k)
                               for k in range(8)]))


def test_every_precision_level_has_a_polynomial_that_needs_it(monkeypatch):
    # A level that no polynomial needs is dead code: logistic H_64 settles
    # at 128 bits, and the 4-fold root of (x - 1)^4 at 256
    level = poly._level
    reached = []

    def record(coeffs, ar, z):
        reached.append(round(-math.log2(ar.unit)))
        return level(coeffs, ar, z)

    monkeypatch.setattr(poly, "_level", record)
    top = {}
    for name, p in (("H_64", bell_sequence_exact(MapSpec1D.logistic(2.0), 64)[64]),
                    ("(x-1)^4", Polynomial([1, -4, 6, -4, 1]))):
        reached.clear()
        poly_roots(p)
        top[name] = max(reached)
    assert top == {"H_64": 128, "(x-1)^4": 256}
    assert set(top.values()) == set(poly._LEVELS[1:])


def test_worst_residual_is_in_the_polynomials_units(monkeypatch):
    monkeypatch.setattr(poly, "MAX_SWEEPS", 1)
    p = Polynomial([-1.0, 0.0, 0.0, 1.0])
    worst = {}
    for c in (1.0, 2.0**40):
        with pytest.raises(NonConvergence) as exc:
            poly_roots(Polynomial([c * x for x in p.coeffs]))
        worst[c] = exc.value.worst_residual
    assert 0 < worst[1.0] < math.inf
    assert worst[2.0**40] == 2.0**40 * worst[1.0]


def test_coefficient_beyond_double_range():
    # (10^400) x^2 - 1: no double holds the coefficient, so the solver
    # skips its 53-bit level and solves in mpmath
    roots = poly_roots(Polynomial([-1, 0, 10**400]))
    assert [abs(r) for r in roots] == pytest.approx([1e-200, 1e-200], rel=1e-15, abs=0)


def test_residual_check_holds_beyond_double_range(monkeypatch):
    # 10^400 (x^4 + 3x^2 - 1) must be judged like x^4 + 3x^2 - 1
    base = [-1, 0, 3, 0, 1]
    polys = [Polynomial(base), Polynomial([10**400 * c for c in base])]
    with monkeypatch.context() as m:
        m.setattr(poly, "MAX_SWEEPS", 1)
        for p in polys:
            with pytest.raises(NonConvergence):
                poly_roots(p)
    want, got = (poly_roots(p) for p in polys)
    # The pair +-1.817i carries real parts of rounding size (1e-233) and of
    # either sign, which may swap it in the (real, imag) order: pair by distance.
    got = [min(got, key=lambda r: abs(r - w)) for w in want]
    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_root_beyond_double_range_is_an_error():
    # x^2 - 10^700 has roots +-10^350, which no double can hold
    with pytest.raises(DomainError, match="1e350"):
        poly_roots(Polynomial([-10**700, 0, 1]))
    # x^4 + 10^400 x^3 - 1: one root near -10^400, three of modulus ~1e-133.
    # The Newton polygon starts each group on its own circle, so the default
    # budget reaches the roots and the one beyond the double range is named.
    with pytest.raises(DomainError, match="1e400"):
        poly_roots(Polynomial([-1, 0, 0, 10**400, 1]))
    # the linear closed form -c0/c1 overflows as a double; mpmath names it
    with pytest.raises(DomainError, match="1e616"):
        poly_roots(Polynomial([1e308, 1e-308]))


def test_infinite_start_radius_is_a_domain_error(monkeypatch):
    # The root near -2e323 puts the last Newton-polygon radius 1/5e-324 at
    # inf: the 53-bit level is skipped, not run on NaN start points
    levels = []

    def aberth(c, ar, z):
        levels.append(ar.unit)
        return aberth.orig(c, ar, z)

    aberth.orig = poly._aberth
    monkeypatch.setattr(poly, "_aberth", aberth)
    with pytest.raises(DomainError, match="1e323"):
        poly_roots(Polynomial([1, 1, 1, 5e-324]))
    assert levels == [2.0**-128]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
def test_non_finite_coefficient_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="a_0"):
        poly_roots(Polynomial([bad, 1, 1, 1]))


@pytest.mark.parametrize("base", [10**60, 10**50])
def test_roots_spread_over_decades(base):
    # prod_{k<6} (x - base^k): six roots from 1 to base^5, one per edge of
    # the Newton polygon, each exact at the default sweep budget
    coeffs = [1]
    for k in range(6):
        coeffs = [a - base**k * b for a, b in zip([0] + coeffs, coeffs + [0])]
    roots = poly_roots(Polynomial(coeffs))
    assert [r.real for r in roots] == [float(base**k) for k in range(6)]
    assert all(abs(r.imag) <= poly._TARGET * r.real for r in roots)


def test_newton_polygon_edges_on_one_circle_start_apart():
    # x^6 + x^2 + (1 - 2^-53): both hull edges have radius 1.0 as a double.
    # With one offset for both, two starts coincide and the 53-bit and
    # 128-bit levels leave four roots unsettled; turned apart, the 53-bit
    # level settles all six.
    c = [1 - 2.0**-53, 0, 1, 0, 0, 0, 1]
    starts = poly._newton_starts(c, poly._DOUBLE)
    assert min(abs(a - b) for i, a in enumerate(starts) for b in starts[:i]) > 0.1
    roots, missed = poly._level(c, poly._DOUBLE, None)
    assert len(roots) == 6 and missed == []


def test_coefficient_that_underflows_as_a_double():
    # The constant term 2^-1100 is 0 as a double, which would move the roots
    # of x^3 - 2^-1100 (modulus 4.19e-111) and x^2 + 2^-1100 (+-2.71e-166 i):
    # the solver skips its 53-bit level and keeps the term in mpmath
    tiny = Fraction(1, 2**1100)
    cube, square = Polynomial([-tiny, 0, 0, 1]), Polynomial([tiny, 0, 1])
    want = 2.0**-367 * 2.0 ** (1 / 3)  # 2^(-1100/3)
    assert [abs(r) for r in poly_roots(cube)] == pytest.approx(
        [want] * 3, rel=1e-15, abs=0)
    assert poly_roots(square) == pytest.approx(
        [-2.0**-550 * 1j, 2.0**-550 * 1j], rel=1e-15, abs=0)


def test_closed_forms_see_normalised_coefficients():
    # 1e308 (x^2 + x + 1): c1^2 - 4 c2 c0 overflows unless the quadratic
    # is solved on the normalised coefficients
    want = [cmath.exp(-2j * math.pi / 3), cmath.exp(2j * math.pi / 3)]
    roots = poly_roots(Polynomial([1e308, 1e308, 1e308]))
    roots.sort(key=lambda r: r.imag)
    assert roots == pytest.approx(want, rel=1e-15, abs=0)
    # A scale that would flush 1e-300 to zero leaves the closed forms on the
    # caller's coefficients: 1e300 x^2 + 1e-300 keeps its roots +-1e-300 i.
    roots = poly_roots(Polynomial([1e-300, 0.0, 1e300]))
    assert roots == pytest.approx([-1e-300j, 1e-300j], rel=1e-15, abs=0)


def test_seed_fallback_when_leading_coefficient_underflows():
    # x^4 / 10^400 - 1: the leading coefficient underflows to 0 as a double
    # even after normalisation, so the 53-bit level is skipped and mpmath
    # starts from its own Newton polygon
    roots = poly_roots(Polynomial([-1, 0, 0, 0, Fraction(1, 10**400)]))
    assert [abs(r) for r in roots] == pytest.approx([1e100] * 4, rel=1e-15)
    # 10^400 x^4 - 1: the same with the constant term
    roots = poly_roots(Polynomial([-1, 0, 0, 0, 10**400]))
    assert [abs(r) for r in roots] == pytest.approx([1e-100] * 4, rel=1e-15)


def test_logistic_h128_zeros_match_hermite_nodes():
    # The positive zeros of H_n(y, 0) for the logistic map are y = 2h^2/lam^2
    # over the positive Hermite nodes h; the other n/2 zeros sit at 0.
    n, lam = 128, 2.0
    poly = bell_sequence_exact(MapSpec1D.logistic(lam), n)[n]
    nodes, _ = np.polynomial.hermite.hermgauss(n)
    want = np.sort(2.0 * nodes[nodes > 0] ** 2 / lam**2)
    zeros = real_zeros(poly_roots(poly))
    assert len(zeros) == n
    assert zeros.count(0.0) == n // 2
    got = np.array([y for y in zeros if y > 0.0])
    assert np.max(np.abs(got - want) / want) < 1e-14


@pytest.mark.parametrize("n", [24, 40, 48, 56, 64])
def test_logistic_zeros_match_hermite_nodes(n):
    # At 53 bits H_56 and H_64 keep only 51 of 56 and 48 of 64 zeros real,
    # and H_48 is off by 1e-5; the solver must climb past that by itself
    lam = 2.0
    poly = bell_sequence_exact(MapSpec1D.logistic(lam), n)[n]
    nodes, _ = np.polynomial.hermite.hermgauss(n)
    want = np.sort(2.0 * nodes[nodes > 0] ** 2 / lam**2)
    zeros = real_zeros(poly_roots(poly))
    assert len(zeros) == n
    assert zeros.count(0.0) == n // 2
    got = np.array([y for y in zeros if y > 0.0])
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_multiple_root_is_resolved():
    # (x - 1)^4: at 53 bits the four roots scatter about 1e-4 around 1
    roots = poly_roots(Polynomial([1, -4, 6, -4, 1]))
    assert max(abs(r - 1) for r in roots) <= 1e-15


def test_quartic_trinomial_zeros_match_a_solve_started_in_mpmath():
    # The 2^-1100 factor flushes coefficients as doubles, so that copy skips
    # the 53-bit level and starts in mpmath from its own Newton polygon
    poly = bell_sequence_exact(MapSpec1D.m_hermite(2.0, 4), 64)[64]
    want = poly_roots(Polynomial([Fraction(c, 2**1100) for c in poly.coeffs]))
    got = poly_roots(poly)
    assert len(real_zeros(got)) == len(real_zeros(want))
    assert got.count(0j) == want.count(0j)
    for a, b in ((want, got), (got, want)):
        for r in a:
            if r != 0:
                assert min(abs(r - x) for x in b) <= 1e-12 * abs(r)


def test_tiny_roots_are_judged_relatively():
    # 10^300 x^3 + 10^-300: three roots of modulus 1e-200
    # (as a double the normalised constant term flushes to zero)
    p = Polynomial([1e-300, 0.0, 0.0, 1e300])
    roots = poly_roots(p)
    assert [abs(r) for r in roots] == pytest.approx([1e-200] * 3, rel=1e-15, abs=0)


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
@example(body=[0.9999999999999999, 1.0], lead=1.0)  # two edges on one circle
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
            assert abs(p(r)) <= 4 * p.degree * 2.0**-53 * terms


def test_high_precision_path_matches_double():
    # x^2 - 2 settles at 53 bits; scaled by 10^400 it skips that level
    lo = poly_roots(Polynomial([-2.0, 0.0, 1.0]))
    hi = poly_roots(Polynomial([-2 * 10**400, 0, 10**400]))
    for a, b in zip(lo, hi):
        assert abs(a - b) < 1e-14


def test_determinism():
    p = Polynomial([0.3, -1.0, 0.5, 1.0])
    assert poly_roots(p) == poly_roots(p)


def test_parallel_mixed_precision_solves_are_independent():
    # the mp working precision is global state; the solver must serialise
    # around it so disjoint solves can run on a thread pool.  The cubic
    # settles at 53 bits, logistic H_64 at 128.
    from concurrent.futures import ThreadPoolExecutor

    polys = [Polynomial([-2.0, 0.0, 0.0, 1.0]),
             bell_sequence_exact(MapSpec1D.logistic(2.0), 64)[64]]
    base = [poly_roots(p) for p in polys]

    def work(i):
        return i % 2, poly_roots(polys[i % 2])

    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(work, range(16)))
    assert all(roots == base[k] for k, roots in results)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 6, 9])
def test_batch_roots_meet_the_bound_and_match_poly_roots(degree):
    rng = np.random.default_rng(1000 + degree)
    stack = np.array([_random_poly(rng, degree).coeffs for _ in range(40)])
    stack[::7] *= 2.0 ** rng.integers(-600, 600, (len(stack[::7]), 1))
    got = poly_roots_batch(stack)
    assert got.shape == (40, degree)
    for row, roots in zip(stack, got):
        p = Polynomial(list(row))
        for r in roots:
            terms = sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))
            assert abs(p(r)) <= 4 * degree * 2.0**-53 * terms
        want = poly_roots(p)
        for r in roots:
            assert min(abs(r - w) for w in want) <= 1e-14 * abs(r)
        for w in want:
            assert min(abs(r - w) for r in roots) <= 1e-14 * abs(w)
        assert list(roots) == sorted(roots, key=lambda z: (z.real, z.imag))


def test_batch_row_does_not_depend_on_its_batch(monkeypatch):
    rng = np.random.default_rng(5)
    stack = np.array([_random_poly(rng, 5).coeffs for _ in range(30)])
    whole = poly_roots_batch(stack)
    for i in range(len(stack)):
        alone = poly_roots_batch(stack[i:i + 1])
        assert alone.tobytes() == whole[i:i + 1].tobytes()
    assert poly_roots_batch(stack[::-1]).tobytes() == whole[::-1].tobytes()
    monkeypatch.setattr(poly, "_BATCH_ENTRIES", 4 * 25)  # blocks of 4 rows
    assert poly_roots_batch(stack).tobytes() == whole.tobytes()


def test_batch_rows_the_kernel_cannot_take_go_to_poly_roots(monkeypatch):
    # c_0 = 0, c_n = 0 (one root fewer, NaN-padded), an exact double root
    # (settles only past 53 bits), and a normalisation that flushes 1e-320
    rows = np.array([[0.0, -1.0, 0.0, 1.0],
                     [1.0, 2.0, -3.0, 0.0],
                     [1.0, 1.0, 1.0, 1.0],
                     [-1.0, 3.0, -3.0, 1.0],
                     [1e-320, 0.0, 0.0, 1e300]])
    calls = []
    real = poly.poly_roots
    monkeypatch.setattr(poly, "poly_roots", lambda p: calls.append(p) or real(p))
    got = poly_roots_batch(rows)
    assert [list(p.coeffs) for p in calls] == [list(rows[i][:4 - (i == 1)])
                                              for i in (0, 1, 3, 4)]
    assert list(got[0]) == real(Polynomial(list(rows[0])))
    assert list(got[1][:2]) == real(Polynomial(list(rows[1])))
    assert np.isnan(got[1][2])
    assert np.allclose(got[3], 1.0, atol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_batch_non_finite_coefficient_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="a_1"):
        poly_roots_batch(np.array([[1.0, 2.0, 1.0], [1.0, bad, 1.0]]))


# SHA-256 over every root the corpus below gets from poly_roots and
# poly_roots_batch, taken before the acceptance rule was written once
ROOTS_SHA256 = "eaec7e0caac0c547a6b7d948c152f9a4bf0712717f4c33b9557cb01f61094516"


def test_root_solver_bits_are_pinned():
    # random polynomials of degree 1-12 with zero coefficients and
    # coefficients over 60 decades, (x - 1)^2 and (x - 1)^4, logistic H_20 to
    # H_64 (128 bits), batch stacks of degree 2-6, and the logistic critical
    # rows at and within 1e-12 of s = 4 / lam^2, which all fall back to
    # poly_roots and climb to 128 bits
    rng = np.random.default_rng(33)
    scalar = []
    for _ in range(60):
        degree = int(rng.integers(1, 13))
        c = rng.uniform(-1, 1, degree + 1) * 10.0 ** rng.integers(-30, 31, degree + 1)
        c[rng.random(degree + 1) < 0.25] = 0.0
        c[-1] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.integers(-30, 31)
        scalar.append(Polynomial(list(c)))
    scalar += [Polynomial([1, -2, 1]), Polynomial([1, -4, 6, -4, 1])]
    chain = bell_sequence_exact(MapSpec1D.logistic(2.0), 64)
    scalar += [chain[n] for n in range(20, 65, 11)]
    stacks = [rng.uniform(-1, 1, (40, d + 1)) * 10.0 ** rng.integers(-8, 9, (40, 1))
              for d in range(2, 7)]
    rows = []
    for lam in (0.5, 1.0, 2.0, 3.9, 4.0):
        s0 = 4 / lam**2
        for s in [s0, *np.nextafter(s0, [0, 10]),
                  *(s0 * (1 + np.linspace(-1e-12, 1e-12, 11)))]:
            rows.append([-1.0, s * lam, -s])
    stacks.append(np.array(rows))
    digest = hashlib.sha256()
    for p in scalar:
        digest.update(np.array(poly_roots(p), dtype=complex).tobytes())
    for stack in stacks:
        digest.update(poly_roots_batch(stack).tobytes())
    assert digest.hexdigest() == ROOTS_SHA256
