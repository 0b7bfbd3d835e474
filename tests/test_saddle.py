import cmath
import math

import mpmath
import numpy as np
import pytest

from pfdensity import poly
from pfdensity.bell import MapSpec1D
from pfdensity.errors import DomainError
from pfdensity.saddle import (invariant_density_p, logistic_closed_p,
                              logistic_closed_q, logistic_p_mass, saddle_sweep,
                              wigner_change_of_variables, zero_density_q)

LOGISTIC2 = MapSpec1D.logistic(2.0)


def points_at(f, s):
    """The critical points at one s, without the NaN padding of short rows."""
    return [complex(a) for a in saddle_sweep(f, [s]).points[0] if a == a]


def interior_grid(lam, count=100):
    hi = 4.0 / (lam * lam)
    return [hi * k / (count + 1) for k in range(1, count + 1)]


def test_logistic_critical_points_match_unit_circle_form():
    # with lam*sqrt(s) = 2 cos(theta), the roots satisfy a*sqrt(s) = e^{+-i theta}
    lam = 2.0
    for s in (0.1, 0.3, 0.7, 0.9):
        theta = math.acos(lam * math.sqrt(s) / 2.0)
        expected = [cmath.exp(1j * sign * theta) / math.sqrt(s)
                    for sign in (-1, 1)]
        got = points_at(MapSpec1D.logistic(lam), s)
        assert len(got) == 2
        for e in expected:
            assert min(abs(g - e) for g in got) < 1e-12


def test_linear_map_single_real_point():
    got = points_at(MapSpec1D((0.0, 1.0)), 2.0)
    assert got == [complex(0.5)]


def test_m_hermite_critical_points_match_cubic_oracle():
    # s(lam a - a^3) - 1 = 0 at lam=1, s=1; oracle: companion eigenvalues
    got = points_at(MapSpec1D.m_hermite(1.0, 3), 1.0)
    oracle = sorted(np.roots([-1.0, 0.0, 1.0, -1.0]),
                    key=lambda z: (z.real, z.imag))
    assert len(got) == 3
    for g, e in zip(got, oracle):
        assert abs(g - e) < 1e-10


def test_critical_point_residuals_small():
    # |s a f'(a) - 1| with f'(a) = 2 - a
    s = 0.37
    assert max(abs(s * a * (2.0 - a) - 1.0) for a in points_at(LOGISTIC2, s)) < 1e-10


def test_q_value_at_quarter():
    assert zero_density_q(LOGISTIC2, 0.25) == pytest.approx(
        math.sqrt(3.0) / math.pi, abs=1e-12)


def test_q_zero_at_support_endpoint():
    assert zero_density_q(LOGISTIC2, 1.0) == 0.0


def test_q_zero_outside_support():
    assert zero_density_q(LOGISTIC2, 2.0) == 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.9])
def test_q_matches_closed_form_on_grid(lam):
    f = MapSpec1D.logistic(lam)
    for s in interior_grid(lam):
        got = zero_density_q(f, s)
        assert abs(got - logistic_closed_q(lam, s)) < 1e-10


def test_closed_q_values():
    assert logistic_closed_q(2.0, 0.25) == pytest.approx(math.sqrt(3) / math.pi,
                                                         abs=1e-15)
    assert logistic_closed_q(2.0, 1.0) == 0.0
    assert logistic_closed_q(1.0, 4.0) == 0.0


def test_saddle_selection_maximal_real_part():
    sweep = saddle_sweep(LOGISTIC2, [0.4])
    assert sweep.selected[0] >= 0
    sel_gamma = sweep.gamma_real[0]
    for a in points_at(LOGISTIC2, 0.4):
        if abs(a.imag) > 1e-10:
            g = (0.4 * (2.0 * a - a * a / 2.0) - cmath.log(a)).real
            assert g <= sel_gamma + 1e-12


def test_conjugate_saddles_same_q():
    # both members of the conjugate pair give the same |Im f|
    pts = [a for a in points_at(LOGISTIC2, 0.6) if abs(a.imag) > 1e-10]
    assert len(pts) == 2
    f = lambda a: 2.0 * a - a * a / 2.0
    assert abs(abs(f(pts[0]).imag) - abs(f(pts[1]).imag)) < 1e-12


def p_at(f, s):
    return invariant_density_p(f, s)


def test_invariant_density_logistic_half():
    assert p_at(LOGISTIC2, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_invariant_density_matches_symbolic_derivative_oracle():
    # oracle: differentiate the closed form by hand,
    # p(s) = -s q'(s) = lam/(4 pi) / (s sqrt(1/s - lam^2/4))
    lam, s = 2.0, 0.25
    oracle = lam / (4.0 * math.pi) / (s * math.sqrt(1.0 / s - lam * lam / 4.0))
    got = p_at(MapSpec1D.logistic(lam), s)
    assert got == pytest.approx(oracle, rel=1e-14)
    assert got == pytest.approx(logistic_closed_p(lam, s), rel=1e-14)


def test_numeric_p_from_saddle_q_matches_closed_p():
    for s in (0.2, 0.5, 0.8):
        assert p_at(LOGISTIC2, s) == pytest.approx(logistic_closed_p(2.0, s),
                                                   rel=1e-14)


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.9])
def test_logistic_p_matches_closed_p_across_support(lam):
    f = MapSpec1D.logistic(lam)
    hi = 4.0 / (lam * lam)
    for t in np.linspace(0.002, 0.998, 499):
        s = float(t) * hi
        want = logistic_closed_p(lam, s)
        assert abs(p_at(f, s) - want) <= 1e-13 * want


def test_p_is_zero_where_q_is():
    # beyond the support, at its end and for maps with no complex saddle
    assert p_at(LOGISTIC2, 1.0) == 0.0
    assert p_at(LOGISTIC2, 2.0) == 0.0
    assert p_at(MapSpec1D.identity(), 0.5) == 0.0
    assert p_at(MapSpec1D((0.0, 1.3, 0.5)), 0.5) == 0.0


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_quartic_q_and_p_are_zero_past_the_support_end(lam):
    # beyond s* the new real critical points dominate the complex pair
    f = MapSpec1D((0.0, lam, 0.0, 0.0, -0.25))
    a_max = (lam / 4.0) ** (1.0 / 3.0)
    s_end = 1.0 / (lam * a_max - a_max**4)
    for t in (1.001, 1.1, 2.0):
        sweep = saddle_sweep(f, [t * s_end])
        assert sweep.selected[0] == -1
        assert sweep.q[0] == 0.0
        assert invariant_density_p(f, t * s_end) == 0.0


def _mp_quartic_q(lam, s):
    """q(s) for f = lam a - a^4/4 in mpmath: roots of s a f'(a) - 1 from
    mpmath.polyroots, the complex one of largest (Re gamma, Im a) selected."""
    f = lambda a: lam * a - a**4 / 4
    roots = mpmath.polyroots([-s, 0, 0, s * lam, -1], maxsteps=200,
                             extraprec=200)
    best = max((r for r in roots if abs(mpmath.im(r)) > mpmath.mpf("1e-30")),
               key=lambda a: (mpmath.re(s * f(a) - mpmath.log(a)), mpmath.im(a)))
    return abs(mpmath.im(f(best))) / mpmath.pi


def _mp_quartic_p(lam, s):
    """-s q'(s) by a central difference of q at 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        h = mpmath.mpf("1e-20")
        dq = (_mp_quartic_q(lam, s + h) - _mp_quartic_q(lam, s - h)) / (2 * h)
        return float(-s * dq)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_quartic_p_matches_mpmath_difference_oracle(lam):
    f = MapSpec1D((0.0, lam, 0.0, 0.0, -0.25))
    # s a f'(a) = 1 gains two real roots at s = 1 / max_a (lam a - a^4)
    a_max = (lam / 4.0) ** (1.0 / 3.0)
    s_end = 1.0 / (lam * a_max - a_max**4)
    for t in np.linspace(0.1, 0.9, 17):
        s = float(t) * s_end
        want = _mp_quartic_p(lam, s)
        assert abs(p_at(f, s) - want) <= 1e-12 * abs(want)


def test_p_shape_is_arcsine():
    # p(s) * sqrt(s (4/lam^2 - s)) is constant = 1/(2 pi) for the raw form
    lam = 3.9
    hi = 4.0 / (lam * lam)
    f = MapSpec1D.logistic(lam)
    values = [p_at(f, s) * math.sqrt(s * (hi - s))
              for s in [hi * k / 101 for k in range(2, 100)]]
    assert all(abs(v - 1.0 / (2.0 * math.pi)) <= 1e-13 for v in values)


def test_raw_p_mass_is_half():
    for lam in (0.5, 2.0):
        assert logistic_p_mass(lam) == pytest.approx(0.5, abs=1e-9)
        # the normalized variant doubles the raw formula
        assert logistic_closed_p(lam, 1.0 / (lam * lam), normalized=True) == \
            pytest.approx(2.0 * logistic_closed_p(lam, 1.0 / (lam * lam)), rel=0)


def test_wigner_change_of_variables_edges():
    assert wigner_change_of_variables(2.0, 1.0) == pytest.approx((1.0, 0.0))
    assert wigner_change_of_variables(1.0, 4.0) == pytest.approx((1.0, 0.0))


def test_wigner_midpoint():
    t, w = wigner_change_of_variables(2.0, 0.25)
    assert t == pytest.approx(0.5, abs=1e-15)
    assert w == pytest.approx((2.0 / math.pi) * math.sqrt(0.75), abs=1e-12)


def test_wigner_domain_error():
    with pytest.raises(DomainError):
        wigner_change_of_variables(2.0, 1.5)
    with pytest.raises(DomainError):
        wigner_change_of_variables(2.0, 0.0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.9])
def test_change_of_variables_identity(lam):
    # q(s) |ds/dt| equals the semicircle density (2/pi) sqrt(1-t^2)
    for s in interior_grid(lam):
        t, w = wigner_change_of_variables(lam, s)
        assert abs(w - (2.0 / math.pi) * math.sqrt(1.0 - t * t)) < 1e-10
        # and the saddle-point q agrees with the same transform
        w2 = zero_density_q(MapSpec1D.logistic(lam), s) \
            * 8.0 * t / (lam * lam)
        assert abs(w2 - w) < 1e-10


def test_delta_zero_degeneration():
    # f = a + 0*F(a) is the identity: every critical point solves s a = 1
    ident = MapSpec1D.identity()
    for s in (0.5, 1.0, 3.0):
        assert points_at(ident, s) == [complex(1.0 / s)]
        assert zero_density_q(ident, s) == 0.0


def test_positive_quadratic_has_no_density():
    f = MapSpec1D((0.0, 1.3, 0.5))  # lam a + a^2/2
    for s in (0.1, 0.5, 1.0, 5.0):
        assert zero_density_q(f, s) == 0.0


def test_problem_validation():
    for one in (zero_density_q, invariant_density_p):
        for s in (0.0, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                one(LOGISTIC2, s)


def _seeded_maps():
    rng = np.random.default_rng(12)
    maps = [MapSpec1D([0.0, *rng.uniform(-2.0, 2.0, degree)])
            for degree in range(1, 7)]
    maps.append(MapSpec1D((0.0, 1.5, -0.7, 0.0)))        # trailing zero
    maps.append(MapSpec1D((0.0, 2.0, 0.0, 0.0, -0.25)))  # sparse quartic
    return maps


@pytest.mark.parametrize("f", _seeded_maps(), ids=lambda f: f"deg{f.degree}")
def test_sweep_equals_one_point_calls_bitwise(f):
    grid = np.linspace(0.01, 3.0, 37)
    sweep = saddle_sweep(f, grid)
    for name, one in (("q", zero_density_q), ("p", invariant_density_p)):
        assert np.array([one(f, float(s)) for s in grid]).tobytes() == \
            getattr(sweep, name).tobytes()
    for i, s in enumerate(grid):
        row = saddle_sweep(f, [float(s)])
        assert row.points[0].tobytes() == sweep.points[i].tobytes()
        assert row.selected[0] == sweep.selected[i]
    assert saddle_sweep(f, grid[::-1]).q.tobytes() == sweep.q[::-1].tobytes()


def test_support_end_inside_a_sweep_falls_back_to_poly_roots(monkeypatch):
    # s = 4 / lam^2 makes the critical polynomial -(a - 1)^2 (lam = 2): its
    # double root settles only past 53 bits, so that row alone goes through
    # poly_roots
    calls = []
    real = poly.poly_roots
    monkeypatch.setattr(poly, "poly_roots", lambda p: calls.append(p) or real(p))
    grid = [0.5, 0.9, 1.0, 1.1]
    sweep = saddle_sweep(LOGISTIC2, grid)
    assert len(calls) == 1
    assert sweep.q[2] == sweep.p[2] == 0.0
    assert list(sweep.q) == [zero_density_q(LOGISTIC2, s) for s in grid]
    assert list(sweep.p) == [invariant_density_p(LOGISTIC2, s) for s in grid]


def test_row_with_fewer_points_is_nan_padded():
    # 3e-330 s flushes to 0, leaving the linear s a - 1 at s = 1e-30
    f = MapSpec1D((0.0, 1.0, 0.0, 1e-300))
    sweep = saddle_sweep(f, [1e-30, 1.0])
    assert sweep.points[0][0] == 1 / 1e-30 and np.isnan(sweep.points[0][1:]).all()
    assert sweep.q[0] == sweep.p[0] == 0.0
    assert saddle_sweep(f, [1e-30]).points[0].tobytes() == sweep.points[0].tobytes()


@pytest.mark.parametrize("lam", [1e-11, 1e-6, 2.0])
def test_small_maps_keep_their_saddle(lam):
    # the saddle a = lam (1 +- i) / 2 at s = 2 / lam^2 is complex at every
    # scale; an absolute cut on Im a took it for real below lam ~ 1e-10
    f = MapSpec1D.logistic(lam)
    for s in (0.5 / lam**2, 2.0 / lam**2, 3.9 / lam**2):
        assert zero_density_q(f, s) == pytest.approx(logistic_closed_q(lam, s),
                                                     rel=1e-12)
        assert invariant_density_p(f, s) == pytest.approx(
            logistic_closed_p(lam, s), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_sweep_rejects_s_that_is_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        saddle_sweep(LOGISTIC2, [0.5, bad])
