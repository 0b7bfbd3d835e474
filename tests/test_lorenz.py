import math

import numpy as np
import pytest

from pfdensity import lorenz
from pfdensity.errors import DegenerateDirection, DomainError
from pfdensity.lorenz import (FIXED_POINT_TAGS, CycleSample, LorenzParams,
                              L_coefficients, characteristic_at_fixed_points,
                              cycle_sample,
                              direction_grid, factor_coefficients,
                              factorized_exponent, fixed_point,
                              fixed_points_by_tag, l_coefficients,
                              lorenz_report, lorenz_system, projection_value,
                              q_decomposition, q_matrix)
from pfdensity.odeiter import jacobian_eigen
from pfdensity.poly import poly_roots, real_zeros
from pfdensity.quadform import SymmetricForm, symmetric_eigen

P = LorenzParams(10.0, 28.0, 8.0 / 3.0)
SYS = lorenz_system(P)


def test_params_validation_and_alpha():
    with pytest.raises(ValueError):
        LorenzParams(0.0, 28.0, 1.0)
    assert LorenzParams(10.0, 0.5, 1.0).alpha is None
    assert P.alpha == pytest.approx(math.sqrt((8.0 / 3.0) * 27.0), abs=1e-14)


def test_field_values():
    assert np.allclose(SYS([1.0, 1.0, 1.0]), [0.0, 26.0, -5.0 / 3.0],
                       atol=1e-14)
    assert np.array_equal(SYS([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


def test_fixed_points_annihilate_field():
    for tag in FIXED_POINT_TAGS:
        pt = fixed_point(P, tag)
        assert np.max(np.abs(SYS(pt))) < 1e-12


def test_fixed_points_by_tag_respects_rho():
    assert set(fixed_points_by_tag(P)) == set(FIXED_POINT_TAGS)
    assert set(fixed_points_by_tag(LorenzParams(10.0, 0.5, 1.0))) == {"theta"}
    with pytest.raises(DomainError):
        fixed_point(LorenzParams(10.0, 0.5, 1.0), "alpha_plus")


def test_theta_characteristic_roots():
    # factored oracle: -beta and the roots of x^2 + 11x - 270
    s1201 = math.sqrt(1201.0)
    expected = sorted([-8.0 / 3.0, (-11.0 - s1201) / 2.0, (-11.0 + s1201) / 2.0])
    theta, _ = characteristic_at_fixed_points(P)
    got = sorted(z.real for z in poly_roots(theta))
    assert got == pytest.approx(expected, abs=1e-10)


def test_beta_is_always_a_theta_root():
    for p in (P, LorenzParams(3.0, 5.0, 1.25), LorenzParams(2.0, 0.5, 4.0)):
        theta, _ = characteristic_at_fixed_points(p)
        assert abs(theta(-p.beta)) < 1e-9 * max(abs(c) for c in theta.coeffs)


def test_alpha_characteristic_coefficients():
    s, r, b = P.sigma, P.rho, P.beta
    _, alpha = characteristic_at_fixed_points(P)
    assert alpha.coeffs == pytest.approx(
        (2.0 * s * b * (r - 1.0), b * (s + r), s + b + 1.0, 1.0), rel=1e-15)


@pytest.mark.parametrize("tag", FIXED_POINT_TAGS)
def test_characteristic_matches_jacobian_eigen(tag):
    theta, alpha = characteristic_at_fixed_points(P)
    cubic = theta if tag == "theta" else alpha
    roots = poly_roots(cubic)
    eig = jacobian_eigen(SYS, fixed_point(P, tag)).eigenvalues
    for a in roots:
        assert min(abs(a - b) for b in eig) < 1e-9


@pytest.mark.parametrize("tag", FIXED_POINT_TAGS)
def test_jacobian_spectrum_is_real_or_exact_conjugate_pairs(tag):
    # dgeev returns a real eigenvalue with imaginary part 0.0 and a complex
    # one with its exact conjugate; the factored cubic counts the real ones
    theta, alpha = characteristic_at_fixed_points(P)
    cubic = theta if tag == "theta" else alpha
    eig = jacobian_eigen(SYS, fixed_point(P, tag)).eigenvalues
    assert [z.imag for z in eig].count(0.0) == len(real_zeros(poly_roots(cubic)))
    assert sorted((z.conjugate() for z in eig),
                  key=lambda z: (z.real, z.imag)) == eig


def test_q_matrix_form():
    Q = q_matrix((1.0, 3.0, 4.0))
    assert np.array_equal(Q, [[0.0, 4.0, -3.0], [4.0, 0.0, 0.0],
                              [-3.0, 0.0, 0.0]])


def test_q_decomposition_pythagoras():
    dec = q_decomposition((0.5, 3.0, 4.0))
    assert dec.mu == 5.0


def test_q_decomposition_orthogonal_and_diagonalising():
    dec = q_decomposition((0.5, 3.0, 4.0))
    assert np.max(np.abs(dec.T @ dec.T.T - np.eye(3))) < 1e-12
    D = dec.T.T @ dec.Q @ dec.T
    assert np.max(np.abs(D - np.diag([0.0, -5.0, 5.0]))) < 1e-12


def test_q_decomposition_degenerate():
    with pytest.raises(DegenerateDirection):
        q_decomposition((1.0, 0.0, 0.0))


@pytest.mark.parametrize("direction", [(0.3, 3.0, 4.0), *direction_grid()])
def test_q_decomposition_agrees_with_eigh(direction):
    # independent route: LAPACK eigh on the same matrix, up to column
    # sign/permutation (eigenvalues ascending: -mu, 0, +mu), on the
    # report's own grid
    dec = q_decomposition(direction)
    eig, T = symmetric_eigen(SymmetricForm.from_matrix(q_matrix(direction)))
    mu = math.hypot(direction[1], direction[2])
    assert np.allclose(eig, [-mu, 0.0, mu], atol=1e-12)
    # match columns: dec order is (0, -mu, +mu); eigh order (-mu, 0, +mu)
    perm = [1, 0, 2]
    for j_dec, j_jac in enumerate(perm):
        a, b = dec.T[:, j_dec], T[:, j_jac]
        assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) < 1e-12


def test_orthogonality_on_random_directions():
    rng = np.random.default_rng(17)
    for _ in range(100):
        g = rng.normal(size=3)
        dec = q_decomposition(g)
        assert np.max(np.abs(dec.T @ dec.T.T - np.eye(3))) < 1e-12
        D = dec.T.T @ dec.Q @ dec.T
        want = np.diag([0.0, -dec.mu, dec.mu])
        assert np.max(np.abs(D - want)) < 1e-12 * max(1.0, dec.mu)


def test_l1_at_delta_zero():
    direction = (1.0, 3.0, 4.0)
    dec = q_decomposition(direction)
    l1, _, _ = l_coefficients(dec, P, 0.0)
    assert l1 == pytest.approx(7.0 / math.sqrt(2.0), abs=1e-14)


def test_l1_delta_slope_is_condition_surface():
    # l1 is affine in delta with slope (sigma x - y - beta z)/sqrt(2)
    direction = (0.7, -1.2, 2.5)
    x, y, z = direction
    dec = q_decomposition(direction)
    l1_0 = l_coefficients(dec, P, 0.0)[0]
    l1_1 = l_coefficients(dec, P, 1.0)[0]
    slope = (P.sigma * x - y - P.beta * z) / math.sqrt(2.0)
    assert l1_1 - l1_0 == pytest.approx(slope, rel=1e-12)


def test_l_is_the_matrix_product():
    # defining identity l . u = L . (T^t u) for random u
    rng = np.random.default_rng(23)
    for _ in range(50):
        direction = rng.normal(size=3)
        delta = float(rng.uniform(0.0, 0.01))
        dec = q_decomposition(direction)
        L = np.array(L_coefficients(P, direction, delta))
        l = np.array(l_coefficients(dec, P, delta))
        u = rng.normal(size=3)
        assert abs(l @ u - L @ (dec.T.T @ u)) < 1e-12 * max(1.0, abs(l @ u))


def test_tag_shifts():
    direction = (0.4, 1.1, -0.8)
    delta = 0.005
    dec = q_decomposition(direction)
    base = np.array(l_coefficients(dec, P, delta, "theta"))
    plus = np.array(l_coefficients(dec, P, delta, "alpha_plus"))
    assert not np.allclose(base, plus)
    # theta vs alpha_+ differ by the delta*alpha shift pushed through T^t
    x, y, z = direction
    alpha = P.alpha
    shift = delta * np.array([z * alpha - y * alpha**2 / P.beta,
                              z * alpha, -y * alpha])
    assert np.allclose(plus - base, shift @ dec.T.T, rtol=1e-9, atol=1e-12)


def test_alpha_minus_is_alpha_negated_exactly():
    # the alpha_- shift is the alpha_+ formula with alpha -> -alpha, bitwise
    from pfdensity.lorenz import _alpha_shift
    direction = (0.4, 1.1, -0.8)
    x, y, z = direction
    delta = 0.005
    a = -P.alpha
    manual = delta * np.array([z * a - y * a * a / P.beta, z * a, -y * a])
    got = _alpha_shift(P, direction, delta, "alpha_minus")
    assert np.array_equal(got, manual)


_DIRECTION = (0.4, 1.1, -0.8)
_TAGGED = {
    "L_coefficients": lambda p, tag: L_coefficients(p, _DIRECTION, 0.01, tag),
    "l_coefficients": lambda p, tag: l_coefficients(
        q_decomposition(_DIRECTION), p, 0.01, tag),
    "projection_value": lambda p, tag: projection_value(
        p, _DIRECTION, 0.01, (0.3, -0.2, 0.5), tag),
    "factorized_exponent": lambda p, tag: factorized_exponent(
        q_decomposition(_DIRECTION), p, 0.01, (0.3, -0.2, 0.5), tag),
}


@pytest.mark.parametrize("name", sorted(_TAGGED))
def test_unknown_tag_is_an_error(name):
    call = _TAGGED[name]
    call(P, "alpha_plus")
    with pytest.raises(ValueError, match="unknown tag 'alpha_plsu'"):
        call(P, "alpha_plsu")
    low = LorenzParams(10.0, 0.5, 8.0 / 3.0)
    call(low, "theta")
    for tag in ("alpha_plus", "alpha_minus", "alpha_plsu"):
        with pytest.raises(DomainError, match="requires rho > 1"):
            call(low, tag)


def test_projection_identity():
    # y.f(a) = L(a) + delta (z b - y c) a against the iteration evaluated directly
    rng = np.random.default_rng(29)
    F = SYS
    for _ in range(50):
        direction = rng.normal(size=3)
        a = rng.normal(size=3)
        delta = float(rng.uniform(1e-4, 0.01))
        iterate = a + delta * F(a)
        direct = float(np.dot(direction, iterate))
        got = projection_value(P, direction, delta, a)
        assert abs(got - direct) < 1e-12 * max(1.0, abs(direct))


def test_factorization_identity():
    """y.f(Tu) splits into l1*u + (l2*v - d v^2) + (l3*w + d w^2) with
    coefficients L T and d = delta mu / 2, to rounding."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        direction = rng.normal(size=3)
        u = rng.normal(size=3)
        delta = float(rng.uniform(1e-4, 0.01))
        dec = q_decomposition(direction)
        a = dec.T @ u
        lhs = projection_value(P, direction, delta, a)
        rhs = factorized_exponent(dec, P, delta, u)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_factorization_for_shifted_tags():
    rng = np.random.default_rng(37)
    for tag in ("alpha_plus", "alpha_minus"):
        for _ in range(25):
            direction = rng.normal(size=3)
            u = rng.normal(size=3)
            delta = float(rng.uniform(1e-4, 0.01))
            dec = q_decomposition(direction)
            a = dec.T @ u
            lhs = projection_value(P, direction, delta, a, tag)
            rhs = factorized_exponent(dec, P, delta, u, tag)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_factor_quadratic_weight():
    dec = q_decomposition((1.0, 3.0, 4.0))
    _, d = factor_coefficients(dec, P, 0.002)
    assert d == pytest.approx(0.002 * 5.0 / 2.0, rel=0)


def test_cycle_sample_on_reduced_slice():
    """l1 = l3 = 0 slice: s_point = (sqrt(2), 1, -1) has l2 = 2, mu = sqrt(2);
    admissibility (s-t)^4/(s^2+t^2)^(3/2) = 16/2^1.5 < 16 holds and the
    density equals |l2| sqrt(8 mu - l2^2) / (8 pi mu)."""
    s_point = (math.sqrt(2.0), 1.0, -1.0)
    cs = cycle_sample(q_decomposition(s_point))
    assert cs.l1 == pytest.approx(0.0, abs=1e-14)
    assert cs.l3 == pytest.approx(0.0, abs=1e-14)
    assert cs.l2 == pytest.approx(2.0, abs=1e-12)
    assert cs.mu == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert cs.admissible
    expected = 2.0 * math.sqrt(8.0 * math.sqrt(2.0) - 4.0) / \
        (8.0 * math.pi * math.sqrt(2.0))
    assert cs.density == pytest.approx(expected, abs=1e-12)


def test_cycle_density_zero_when_l2_vanishes():
    # direction with x = y = z gives L = dir, l2 = (x y sqrt2 + z(z - y))/(mu sqrt2)
    # choose (0, 1, 1): l2 = (0 + 1*(1-1)) = 0
    cs = cycle_sample(q_decomposition((0.0, 1.0, 1.0)))
    assert cs.l2 == pytest.approx(0.0, abs=1e-15)
    assert cs.density == 0.0


def test_cycle_density_zero_outside_admissible_region():
    # on the reduced slice with s = 3: (s-t)^4/(s^2+t^2)^(3/2) = 5.657*3 > 16
    s = 3.0
    s_point = (s * math.sqrt(2.0), s, -s)
    cs = cycle_sample(q_decomposition(s_point))
    assert cs.l2**2 > 8.0 * cs.mu
    assert not cs.admissible
    assert cs.density == 0.0


def test_cycle_density_vanishing_radical():
    # synthetic boundary: l2^2 == 8 mu gives a zero radical, density 0
    # find it by scaling the slice family: l2 = 2 s, mu = s sqrt(2):
    # 4 s^2 = 8 s sqrt(2) at s = 2 sqrt(2)
    s = 2.0 * math.sqrt(2.0)
    cs = cycle_sample(q_decomposition((s * math.sqrt(2.0), s, -s)))
    assert cs.l2**2 == pytest.approx(8.0 * cs.mu, rel=1e-12)
    assert cs.density == pytest.approx(0.0, abs=1e-6)


def test_direction_grid_avoids_degenerate_axis():
    for g in direction_grid():
        assert math.hypot(g[1], g[2]) > 1e-12


def test_report_full():
    report = lorenz_report(P, delta=1e-3)
    assert set(report) == {"params", "grid", "fixed_points", "surfaces",
                           "admissible_mask", "density_samples"}
    assert len(report["fixed_points"]) == 3
    tags = {fp["tag"] for fp in report["fixed_points"]}
    assert tags == set(FIXED_POINT_TAGS)
    for fp in report["fixed_points"]:
        eig = [complex(*e) for e in fp["eigenvalues"]]
        for c in fp["characteristic_roots"]:
            assert min(abs(complex(*c) - e) for e in eig) < 1e-9
    n = len(report["grid"])
    assert len(report["admissible_mask"]) == n
    assert len(report["density_samples"]) == n
    assert all(d >= 0.0 and math.isfinite(d) for d in report["density_samples"])
    for tag in FIXED_POINT_TAGS:
        assert len(report["surfaces"]["l1"][tag]) == n
        assert len(report["surfaces"]["l3"][tag]) == n


def test_report_decomposes_each_direction_once(monkeypatch):
    calls = []
    monkeypatch.setattr(lorenz, "q_decomposition",
                        lambda g: calls.append(g) or q_decomposition(g))
    lorenz_report(P)
    assert calls == direction_grid()


@pytest.mark.parametrize("rho, solves", [(28.0, 2), (0.5, 1)])
def test_report_solves_each_cubic_once(monkeypatch, rho, solves):
    params = LorenzParams(10.0, rho, 8.0 / 3.0)
    calls = []
    monkeypatch.setattr(lorenz, "poly_roots",
                        lambda c: calls.append(c) or poly_roots(c))
    lorenz_report(params)
    assert calls == list(characteristic_at_fixed_points(params))[:solves]


def test_report_low_rho_has_only_theta():
    report = lorenz_report(LorenzParams(10.0, 0.5, 8.0 / 3.0))
    assert [fp["tag"] for fp in report["fixed_points"]] == ["theta"]
    assert set(report["surfaces"]["l1"]) == {"theta"}


def test_report_alpha_antisymmetry():
    # the alpha_- surfaces equal the alpha_+ surfaces with alpha -> -alpha:
    # deviations from theta flip sign exactly
    report = lorenz_report(P, delta=2e-3)
    l1 = report["surfaces"]["l1"]
    for t, pl, mi in zip(l1["theta"], l1["alpha_plus"], l1["alpha_minus"]):
        assert (pl - t) == pytest.approx(-(mi - t), rel=1e-12, abs=1e-15)
