import copy
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from pfdensity import odeiter
from pfdensity.errors import DomainError, SingularTau, TrajectoryEscape
from pfdensity.lorenz import LorenzParams, lorenz_system
from pfdensity.odeiter import (MAX_DIM, DifferentialIteration, OdeSystem,
                               critical_frequencies,
                               critical_frequency_solution, euler_iterate,
                               fixed_points, jacobian_eigen, seed_lattice)

DECAY = OdeSystem(1, [[((1,), -1.0)]])                      # F(a) = -a
ROTATION = OdeSystem.linear([[0.0, 1.0], [-1.0, 0.0]])
DIAG23 = OdeSystem.linear([[-2.0, 0.0], [0.0, -3.0]])
LORENZ = lorenz_system(LorenzParams(10.0, 28.0, 8.0 / 3.0))


def test_system_validation():
    with pytest.raises(ValueError):
        OdeSystem(1, [[((5,), 1.0)]])  # total degree > 4
    with pytest.raises(ValueError):
        OdeSystem(9, [[] for _ in range(9)])  # dim > 8
    with pytest.raises(ValueError):
        OdeSystem(2, [[((1,), 1.0)], []])  # exponent tuple of wrong length
    with pytest.raises(ValueError, match="need one component per dimension"):
        OdeSystem(2, [[((1, 0), 1.0)]])


def test_system_json_roundtrip():
    assert OdeSystem.from_json(LORENZ.to_json()) == LORENZ


def test_euler_linear_decay():
    it = DifferentialIteration(DECAY, delta=1e-3, n=1000)
    a_n, S_n = euler_iterate(it, [1.0])
    assert abs(a_n[0] - math.exp(-1.0)) < 2e-4
    assert abs((a_n[0] - 1.0) - 1e-3 * S_n[0]) < 1e-12


def test_euler_zero_field():
    zero = OdeSystem(2, [[], []])
    a_n, S_n = euler_iterate(DifferentialIteration(zero, 0.1, 50), [1.0, -2.0])
    assert np.array_equal(a_n, [1.0, -2.0])
    assert np.array_equal(S_n, [0.0, 0.0])


def test_euler_lorenz_bounded_and_identity():
    it = DifferentialIteration(LORENZ, delta=1e-3, n=10_000)
    a0 = np.array([1.0, 1.0, 1.0])
    a_n, S_n = euler_iterate(it, a0)
    assert np.all(np.abs(a_n) < 100.0)
    resid = np.max(np.abs((a_n - a0) - it.delta * S_n))
    assert resid <= 1e-10 * max(1.0, float(np.max(np.abs(a_n - a0))))


def _rk4(F, a0, t, n):
    a = np.array(a0, dtype=float)
    h = t / n
    for _ in range(n):
        k1 = F(a)
        k2 = F(a + h / 2 * k1)
        k3 = F(a + h / 2 * k2)
        k4 = F(a + h * k3)
        a = a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return a


def test_lorenz_reference_integration_also_bounded():
    # independent Runge-Kutta check that the trajectory is genuinely bounded
    a = _rk4(LORENZ, [1.0, 1.0, 1.0], 10.0, 10_000)
    assert np.all(np.abs(a) < 100.0)


def test_euler_first_order_convergence():
    def err(n):
        it = DifferentialIteration(DECAY, delta=1.0 / n, n=n)
        a_n, _ = euler_iterate(it, [1.0])
        return abs(a_n[0] - math.exp(-1.0))

    ratio = err(100) / err(200)
    assert 1.8 <= ratio <= 2.2


def test_trajectory_escape():
    growth = OdeSystem(1, [[((1,), 1.0)]])
    with pytest.raises(TrajectoryEscape) as exc:
        euler_iterate(DifferentialIteration(growth, 1.0, 100), [1.0])
    assert exc.value.step == 20  # doubling each step from 1: passes 1e6 at 2^20


def test_fixed_point_linear():
    pts, dropped = fixed_points(DECAY, radius=2.0)
    assert len(pts) == 1
    assert abs(pts[0][0]) < 1e-12


def test_fixed_points_logistic_field():
    field = OdeSystem(1, [[((1,), 1.0), ((2,), -1.0)]])  # a(1-a)
    pts, _ = fixed_points(field, radius=2.0)
    assert len(pts) == 2
    assert abs(pts[0][0] - 0.0) < 1e-12
    assert abs(pts[1][0] - 1.0) < 1e-12


def test_fixed_points_lorenz():
    alpha = math.sqrt((8.0 / 3.0) * 27.0)  # sqrt(beta (rho - 1)) = 8.485281...
    pts, _ = fixed_points(LORENZ, radius=10.0)
    assert len(pts) == 3
    expected = sorted([(-alpha, -alpha, 27.0), (0.0, 0.0, 0.0),
                       (alpha, alpha, 27.0)])
    for got, want in zip(pts, expected):
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-10
    for got in pts:
        r = np.max(np.abs(LORENZ(got)))
        assert r <= 1e-12 * (1.0 + float(np.max(np.abs(got))))


def test_seed_lattice_shape():
    seeds = seed_lattice(2, 1.0)
    assert len(seeds) == 25
    assert any(np.array_equal(s, [0.0, 0.0]) for s in seeds)


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
def test_seed_lattice_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError, match="radius must be finite"):
        seed_lattice(2, radius)


def test_seed_lattice_rejects_a_radius_whose_span_overflows():
    for radius in (1e308, -1e308):
        with pytest.raises(ValueError, match=re.escape(f"radius {radius!r}")):
            seed_lattice(2, radius)
    [edge, *inner, end] = [x for [x] in seed_lattice(1, 8e307)]
    assert (edge, end) == (-8e307, 8e307) and all(map(math.isfinite, inner))
    lattice = seed_lattice(3, 10.0)
    axis = [-10.0, -5.0, 0.0, 5.0, 10.0]
    assert [s.tolist() for s in lattice] == [[x, y, z] for x in axis
                                            for y in axis for z in axis]


def test_jacobian_eigen_diagonal():
    eig = jacobian_eigen(DIAG23, [0.0, 0.0]).eigenvalues
    assert sorted(z.real for z in eig) == pytest.approx([-3.0, -2.0])
    assert all(abs(z.imag) < 1e-14 for z in eig)


def test_jacobian_eigen_lorenz_origin():
    # oracle: the factored characteristic (beta+x)[(sigma+x)(1+x) - sigma rho]
    # gives -8/3 and (-11 +- sqrt(1201))/2 at (10, 28, 8/3)
    s1201 = math.sqrt(1201.0)
    expected = sorted([-8.0 / 3.0, (-11.0 - s1201) / 2.0, (-11.0 + s1201) / 2.0])
    got = jacobian_eigen(LORENZ, np.zeros(3))
    reals = sorted(z.real for z in got.eigenvalues)
    assert reals == pytest.approx(expected, abs=1e-10)
    # residual |det(J - lambda I)| per eigenvalue
    for z in got.eigenvalues:
        d = np.linalg.det(got.J - z.real * np.eye(3))
        assert abs(d) < 1e-8


def test_jacobian_eigen_rotation():
    eig = jacobian_eigen(ROTATION, [0.0, 0.0]).eigenvalues
    assert sorted((z.real, z.imag) for z in eig) == pytest.approx(
        [(0.0, -1.0), (0.0, 1.0)])


def _mp_eigenvalues(M, dps):
    """The eigenvalues of the double matrix M by mpmath.eig at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        if len(M) == 1:  # mpmath.eig returns (E, ER, EL) for a 1 x 1 matrix
            return [complex(M[0][0])]
        E = mpmath.eig(mpmath.matrix(M.tolist()), left=False, right=False)
        return [complex(w) for w in E]


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_jacobian_eigen_matches_mpmath_on_random_linear_fields(d):
    # LAPACK's dgeev is backward stable: each eigenvalue of these seeded
    # matrices lies within 1e-14 ||J||_2 of the 60-digit one (the worst of
    # the 40 is 1.5e-15 ||J||_2, at d = 7)
    for seed in range(5):
        M = np.random.default_rng(100 * d + seed).normal(size=(d, d))
        got = jacobian_eigen(OdeSystem.linear(M), np.ones(d)).eigenvalues
        want = _mp_eigenvalues(M, 60)
        bound = 1e-14 * np.linalg.norm(M, 2)
        assert all(min(abs(g - w) for g in got) <= bound for w in want)
        assert all(min(abs(g - w) for w in want) <= bound for g in got)
        assert got == sorted(got, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_jacobian_eigen_of_minus_identity_is_exact(d):
    # a d-fold eigenvalue costs dgeev nothing: every copy is exact
    eig = jacobian_eigen(OdeSystem.linear(-np.eye(d)), np.ones(d)).eigenvalues
    assert eig == [-1 + 0j] * d
    assert all(type(z) is complex for z in eig)


def test_frequency_solution_diagonal():
    s = critical_frequency_solution(DIAG23, [1.0, 1.0], 0.1)
    assert s == pytest.approx([1.25, 1.4285714285714286], abs=1e-14)


def test_frequency_solution_tau_zero():
    a = [2.0, -4.0]
    s = critical_frequency_solution(DIAG23, a, 0.0)
    assert s == pytest.approx([0.5, -0.25], abs=0)


def test_frequency_solution_singular():
    with pytest.raises(SingularTau) as exc:
        critical_frequency_solution(DIAG23, [1.0, 1.0], 0.5)
    assert exc.value.eigenvalue == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("d", range(1, 9))
def test_frequency_solution_well_conditioned_with_a_small_determinant(d):
    # I + 0.95 J = 0.05 I has det 0.05^d (3.9e-11 at d = 8) and condition 1
    s = critical_frequency_solution(OdeSystem.linear(-np.eye(d)), np.ones(d), 0.95)
    assert s.tolist() == [1.0 / (1.0 - 0.95)] * d  # 19.999999999999982


def test_frequency_solution_singular_relative_to_the_spectrum():
    # 1 + tau lambda = 1e-10 against |tau| max|mu| = 2: condition number 1e10
    sys_ = OdeSystem.linear([[-1e-6, 0.0], [0.0, -2e-6]])
    with pytest.raises(SingularTau) as exc:
        critical_frequency_solution(sys_, [1.0, 1.0], 1e6 - 1e-4)
    assert exc.value.eigenvalue == pytest.approx(-1e-6, rel=1e-9)


def test_frequency_solution_rejects_zero_coordinate():
    with pytest.raises(DomainError):
        critical_frequency_solution(DIAG23, [1.0, 0.0], 0.1)


def test_frequency_solution_residual():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0, size=3)
        tau = float(rng.uniform(0.0, 0.05))
        s = critical_frequency_solution(LORENZ, a, tau)
        J = LORENZ.jacobian(a)
        resid = s + tau * s @ J - 1.0 / a
        assert np.max(np.abs(resid)) < 1e-12 * float(np.max(np.abs(1.0 / a)))


def test_critical_frequencies_decay():
    res = critical_frequencies(DECAY, [0.7])
    assert res.taus == (1.0,)
    assert res.critical_tau == 1.0
    assert res.eigenvector is not None


def test_critical_frequencies_diag():
    res = critical_frequencies(DIAG23, [1.0, 1.0])
    assert res.taus == pytest.approx((0.5, 1.0 / 3.0))
    assert res.critical_tau == pytest.approx(0.5)
    # the flagged eigenvector is the left eigenvector for lambda = -2
    J = DIAG23.jacobian([1.0, 1.0])
    v = res.eigenvector
    assert np.max(np.abs(v @ J - (-2.0) * v)) < 1e-10


def test_critical_frequencies_eigenvector_sign_is_normalised():
    # LAPACK's last singular vector here is (-0.6154, 0.7882): the sign flips
    sys_ = OdeSystem.linear([[-3.0, -2.0], [-2.0, -2.0]])
    res = critical_frequencies(sys_, [1.0, 1.0])
    lam = (-5.0 + math.sqrt(17.0)) / 2.0      # the largest negative eigenvalue
    assert res.critical_tau == pytest.approx(-1.0 / lam, rel=1e-14)
    want = np.array([2.0, -3.0 - lam]) / math.hypot(2.0, -3.0 - lam)
    v = res.eigenvector
    assert v == pytest.approx(want, abs=1e-14)  # (0.6154..., -0.7882...)
    assert np.max(np.abs(v @ sys_.jacobian([1.0, 1.0]) - lam * v)) < 1e-14


def test_critical_frequencies_rotation_empty():
    res = critical_frequencies(ROTATION, [1.0, 1.0])
    assert res.taus == ()
    assert res.critical_tau is None
    assert res.eigenvector is None
    assert len(res.eigenvalues) == 2


NEAR_REAL_PAIR = OdeSystem.linear([[-1.0, 1e-9], [-1e-9, -1.0]])  # -1 +- 1e-9 i


def test_critical_frequencies_near_real_pair_is_complex():
    res = critical_frequencies(NEAR_REAL_PAIR, [1.0, 1.0])
    assert [z.imag for z in res.eigenvalues] == [-1e-9, 1e-9]
    assert res.taus == ()
    assert res.critical_tau is None


def test_frequency_solution_near_real_pair_is_not_singular():
    # no real eigenvalue, so no tau is singular: I + J = [[0, 1e-9], [-1e-9, 0]]
    s = critical_frequency_solution(NEAR_REAL_PAIR, [1.0, 1.0], 1.0)
    assert s.tolist() == pytest.approx([1e9, -1e9], rel=1e-15)


def test_defective_jacobian_keeps_its_exact_double_eigenvalue():
    sys_ = OdeSystem.linear([[-1.0, 1.0], [0.0, -1.0]])
    assert jacobian_eigen(sys_, [1.0, 1.0]).eigenvalues == [-1 + 0j, -1 + 0j]
    with pytest.raises(SingularTau) as exc:
        critical_frequency_solution(sys_, [1.0, 1.0], 1.0)
    assert exc.value.eigenvalue == -1.0


def test_general_solution_structure():
    """s_a + c*vec solves up to c*vec(I + tau J); the eigen-direction
    annihilates I + tau J exactly at tau = -1/lambda."""
    a = np.array([1.0, 1.0])
    J = DIAG23.jacobian(a)
    res = critical_frequencies(DIAG23, a)
    tau_star = res.critical_tau                 # -1/lambda for lambda = -2
    vec = res.eigenvector
    assert np.max(np.abs(vec @ (np.eye(2) + tau_star * J))) < 1e-10

    tau = 0.07                                  # away from the singular set
    s_a = critical_frequency_solution(DIAG23, a, tau)
    for c in (-2.0, 0.5, 10.0):
        lhs = (s_a + c * vec) @ (np.eye(2) + tau * J) - 1.0 / a
        rhs = c * (vec @ (np.eye(2) + tau * J))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_lorenz_trajectory_return_statistics():
    """Bounded-cycle consequence check: the histogram of a trajectory
    coordinate has bounded support and is deterministic."""
    it = DifferentialIteration(LORENZ, delta=1e-3, n=20_000)

    def first_coordinate_trace():
        a = np.array([1.0, 1.0, 1.0])
        out = np.empty(it.n)
        for k in range(it.n):
            a = a + it.delta * LORENZ(a)
            out[k] = a[0]
        return out

    trace = first_coordinate_trace()
    counts, edges = np.histogram(trace[5000:], bins=60)
    assert counts.sum() == 15_000
    assert -25.0 < edges[0] and edges[-1] < 25.0
    counts2, _ = np.histogram(first_coordinate_trace()[5000:], bins=60)
    assert np.array_equal(counts, counts2)


def test_iteration_validation():
    with pytest.raises(ValueError):
        DifferentialIteration(DECAY, 0.0, 10)
    with pytest.raises(ValueError):
        DifferentialIteration(DECAY, 0.1, 0)
    it = DifferentialIteration(DECAY, 0.25, 8)
    assert it.horizon == 2.0


# --- the compiled term tables against the loops they replaced ------------------
#
# _ref_call, _ref_jacobian, _ref_euler and _ref_fixed_points copy the numpy
# loops of OdeSystem.__call__, OdeSystem.jacobian, euler_iterate and
# fixed_points from before the field was compiled into term tables (only
# GUARD is written out as 1e6); the compiled path must agree bit for bit.

def _ref_call(sys, a):
    a = np.asarray(a, dtype=float)
    out = np.zeros(sys.dim)
    for i, terms in enumerate(sys.components):
        acc = 0.0
        for exps, coef in terms:
            v = coef
            for x, e in zip(a, exps):
                if e:
                    v *= x**e
            acc += v
        out[i] = acc
    return out


def _ref_jacobian(sys, a):
    a = np.asarray(a, dtype=float)
    J = np.zeros((sys.dim, sys.dim))
    for i, terms in enumerate(sys.components):
        for exps, coef in terms:
            for l, e in enumerate(exps):
                if e == 0:
                    continue
                v = coef * e
                for m, em in enumerate(exps):
                    p = em - 1 if m == l else em
                    if p:
                        v *= a[m]**p
                J[i, l] += v
    return J


def _ref_euler(it, a0):
    a = np.array(a0, dtype=float)
    S = np.zeros_like(a)
    delta = it.delta
    for step in range(1, it.n + 1):
        fa = _ref_call(it.system, a)
        S += fa
        a = a + delta * fa
        if not np.all(np.abs(a) <= 1e6):
            raise TrajectoryEscape(step)
    return a, S


def _ref_fixed_points(sys, seeds, max_iter=60):
    found = []
    dropped = 0
    for seed in seeds:
        a = np.array(seed, dtype=float)
        ok = False
        for _ in range(max_iter):
            fa = _ref_call(sys, a)
            if np.max(np.abs(fa)) <= 1e-13 * (1.0 + float(np.max(np.abs(a)))):
                ok = True
                break
            J = _ref_jacobian(sys, a)
            try:
                step = np.linalg.solve(J, fa)
            except np.linalg.LinAlgError:
                break
            a = a - step
            if not np.all(np.isfinite(a)) or np.max(np.abs(a)) > 1e6:
                break
        if not ok:
            dropped += 1
            continue
        resid = float(np.max(np.abs(_ref_call(sys, a))))
        if resid > 1e-12 * (1.0 + float(np.max(np.abs(a)))):
            dropped += 1
            continue
        if any(np.max(np.abs(a - b)) < 1e-8 for b in found):
            continue
        found.append(a)
    found.sort(key=lambda p: tuple(p))
    return found, dropped


def _random_system(rng, dim):
    """Up to four terms per component (some components empty), total degree <= 4."""
    comps = []
    for _ in range(dim):
        terms = []
        for _ in range(int(rng.integers(0, 5))):
            exps = [0] * dim
            for _ in range(int(rng.integers(0, 5))):
                exps[int(rng.integers(dim))] += 1
            terms.append((tuple(exps), float(rng.uniform(-2.0, 2.0))))
        comps.append(terms)
    return OdeSystem(dim, comps)


def _outcome(run):
    try:
        a_n, S_n = run()
    except TrajectoryEscape as exc:
        return "escape", exc.step
    return "bounded", a_n, S_n


def test_compiled_field_matches_reference_bitwise():
    rng = np.random.default_rng(20261018)
    escapes = bounded = 0
    for k in range(200):
        sys = _random_system(rng, 1 + k % 8)
        probe = rng.uniform(-3.0, 3.0, size=sys.dim)
        assert np.array_equal(sys(probe), _ref_call(sys, probe))
        assert np.array_equal(sys.jacobian(probe), _ref_jacobian(sys, probe))
        a = rng.uniform(-1.0, 1.0, size=sys.dim)
        it = DifferentialIteration(sys, float(rng.uniform(0.005, 0.05)), 200)
        got = _outcome(lambda: euler_iterate(it, a))
        want = _outcome(lambda: _ref_euler(it, a))
        assert got[0] == want[0]
        if want[0] == "escape":
            escapes += 1
            assert got[1] == want[1]
        else:
            bounded += 1
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])
    assert escapes >= 50 and bounded >= 50


def test_compiled_newton_matches_reference_bitwise():
    rng = np.random.default_rng(7)
    total = 0
    for k in range(24):
        sys = _random_system(rng, 1 + k % 3)
        seeds = seed_lattice(sys.dim, 2.0)
        pts, dropped = fixed_points(sys, seeds)
        want, want_dropped = _ref_fixed_points(sys, seeds)
        assert dropped == want_dropped
        assert len(pts) == len(want)
        assert all(np.array_equal(p, w) for p, w in zip(pts, want))
        total += len(pts)
    assert total > 0
    pts, dropped = fixed_points(LORENZ, radius=10.0)
    want, want_dropped = _ref_fixed_points(LORENZ, seed_lattice(3, 10.0))
    assert dropped == want_dropped
    assert all(np.array_equal(p, w) for p, w in zip(pts, want))


# F = (a0^2 - 1, a1^2): J = diag(2 a0, 2 a1) is exactly singular at the
# lattice seeds with a0 = 0 or a1 = 0 and regular at the others.
SQUARES = OdeSystem(2, [[((2, 0), 1.0), ((0, 0), -1.0)], [((0, 2), 1.0)]])


def _assert_matches_reference(got, want):
    pts, dropped = got
    want_pts, want_dropped = want
    assert dropped == want_dropped
    assert len(pts) == len(want_pts)
    assert all(np.array_equal(p, w) for p, w in zip(pts, want_pts))


def _counting_solve(monkeypatch):
    """Count the np.linalg.solve calls, and the LinAlgErrors they raise by
    the number of matrices solved (1 for a single J, m for an (m, d, d) stack)."""
    counts = {"calls": 0, "raised": []}
    solve = np.linalg.solve

    def counted(J, b):
        counts["calls"] += 1
        try:
            return solve(J, b)
        except np.linalg.LinAlgError:
            counts["raised"].append(len(J) if np.ndim(J) == 3 else 1)
            raise
    monkeypatch.setattr(np.linalg, "solve", counted)
    return counts


def test_newton_singular_seeds_in_a_stack_match_reference(monkeypatch):
    seeds = seed_lattice(2, 2.0)
    want = _ref_fixed_points(SQUARES, seeds)
    counts = _counting_solve(monkeypatch)
    got = fixed_points(SQUARES, seeds)
    _assert_matches_reference(got, want)
    assert (len(got.points), got.non_converged) == (6, 7)
    # a stack raised, and the seed-by-seed retry then raised for single seeds
    assert max(counts["raised"]) > 1 and min(counts["raised"]) == 1


def test_newton_across_blocks_matches_reference(monkeypatch):
    seeds = seed_lattice(3, 10.0)
    want = _ref_fixed_points(LORENZ, seeds)
    monkeypatch.setattr(odeiter, "_NEWTON_BLOCK", 7)
    _assert_matches_reference(fixed_points(LORENZ, seeds), want)
    monkeypatch.setattr(odeiter, "_NEWTON_BLOCK", 1)
    _assert_matches_reference(fixed_points(LORENZ, seeds), want)


def test_newton_solves_once_per_sweep(monkeypatch):
    counts = _counting_solve(monkeypatch)
    fixed_points(LORENZ, radius=10.0)  # 125 seeds, 698 Newton steps
    assert counts["raised"] == []
    assert 0 < counts["calls"] <= 60


def test_newton_non_finite_seeds_match_reference():
    # The reference accepts an infinite seed (its tolerance is infinite there);
    # fixed_points drops it instead and otherwise keeps the reference decisions.
    nan, inf = float("nan"), float("inf")
    seeds = [[0.0, nan], [nan, 0.0], [inf, 1.0], [1.0, -inf], [0.5, 0.25]]
    for sys in (OdeSystem(2, [[], []]), DIAG23, ROTATION,
                OdeSystem(2, [[((1, 0), -1.0)], []])):
        pts, dropped = fixed_points(sys, seeds)
        with np.errstate(all="ignore"):
            want, want_dropped = _ref_fixed_points(sys, seeds)
        finite = [w for w in want if np.all(np.isfinite(w))]
        assert dropped == want_dropped + len(want) - len(finite)
        assert len(pts) == len(finite)
        assert all(np.array_equal(p, w) for p, w in zip(pts, finite))


def test_newton_rejects_infinite_seed():
    sys = OdeSystem(2, [[((1, 0), -1.0)], []])  # F = (-a0, 0)
    assert fixed_points(sys, [[float("inf"), 1.0]]) == ([], 1)
    pts, dropped = fixed_points(DIAG23, [[float("inf"), 1.0], [3.0, 1.0]])
    assert dropped == 1 and len(pts) == 1
    assert np.array_equal(pts[0], [0.0, 0.0])


def test_field_overflow_gives_inf_like_reference():
    # float ** int raises OverflowError where numpy's power returns inf
    sys = OdeSystem(2, [[((2, 0), 1.0), ((0, 1), 1.0)], [((1, 3), -1.0)]])
    a = [1e200, -3.0]
    F, J = sys(a), sys.jacobian(a)
    with np.errstate(over="ignore", invalid="ignore"):
        want_F, want_J = _ref_call(sys, a), _ref_jacobian(sys, a)
    with pytest.raises(TrajectoryEscape) as exc:
        euler_iterate(DifferentialIteration(sys, 0.1, 5), a)
    assert np.array_equal(F, want_F) and np.isinf(F[0])
    assert np.array_equal(J, want_J, equal_nan=True)
    assert exc.value.step == 1


def test_euler_nan_start_escapes_at_step_one():
    with pytest.raises(TrajectoryEscape) as exc:
        euler_iterate(DifferentialIteration(LORENZ, 1e-3, 10),
                      [float("nan"), 1.0, 1.0])
    assert exc.value.step == 1


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    for k in range(40):
        sys = _random_system(rng, 1 + k % 5)
        a = rng.uniform(-1.5, 1.5, size=sys.dim)
        J = sys.jacobian(a)
        h = 1e-5
        for l in range(sys.dim):
            e = np.zeros(sys.dim)
            e[l] = h
            fd = (sys(a + e) - sys(a - e)) / (2 * h)
            assert np.max(np.abs(J[:, l] - fd)) < 1e-7 * (1.0 + np.max(np.abs(J)))


def test_wrong_dimension_points_are_errors():
    for bad in ([1.0, 2.0], [1.0, 2.0, 3.0, 99.0], [[1.0, 2.0, 3.0]], 1.0,
                np.ones((3, 1)), np.ones((1, 3)), (1.0, 2.0), "123"):
        with pytest.raises(ValueError):
            LORENZ(bad)
        with pytest.raises(ValueError):
            LORENZ.jacobian(bad)
    with pytest.raises(ValueError):
        fixed_points(LORENZ, seeds=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        critical_frequencies(LORENZ, [1.0, 2.0])


@pytest.mark.parametrize("point", [
    [1.5, -2.0, 3.0], (1.5, -2.0, 3.0), np.array([1.5, -2.0, 3.0]), [1, -2, 3],
    np.array([1, -2, 3]), [Fraction(1, 3), Fraction(-2, 7), 5],
    [np.float32(0.1), np.float32(-2.5), 3.0], [True, False, 2.0], range(3),
    ["1.5", "-2", "3e-1"]])
def test_point_is_what_numpy_makes_of_it(point):
    got = LORENZ._point(point)
    assert got == np.asarray(point, dtype=float).tolist()
    assert all(type(v) is float for v in got)


@pytest.mark.parametrize("point", [[[1.0, 2.0], [3.0]], [np.ones(1), 2.0, 3.0]])
def test_ragged_points_are_errors(point):
    with pytest.raises(ValueError):
        np.asarray(point, dtype=float)
    with pytest.raises(ValueError):
        LORENZ._point(point)


def test_term_tables_stay_out_of_equality_hash_and_repr():
    twin = OdeSystem.from_json(LORENZ.to_json())
    assert twin == LORENZ and hash(twin) == hash(LORENZ)
    assert "_terms" not in repr(LORENZ) and "_dterms" not in repr(LORENZ)
    assert set(LORENZ.to_json()) == {"dim", "components"}


def _assert_same_as_reference(sys, a, delta=0.01, n=50):
    """F, J and n Euler steps at a agree with the reference loops bit for bit
    (NaN payloads aside)."""
    got = (sys(a), sys.jacobian(a), _outcome(
        lambda: euler_iterate(DifferentialIteration(sys, delta, n), a)))
    with np.errstate(all="ignore"):
        want = (_ref_call(sys, a), _ref_jacobian(sys, a),
                _outcome(lambda: _ref_euler(DifferentialIteration(sys, delta, n), a)))
    for g, w in zip(got[:2], want[:2]):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert g[~nan].tobytes() == w[~nan].tobytes()
    assert got[2][0] == want[2][0]
    if want[2][0] == "escape":
        assert got[2][1] == want[2][1]
    else:
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got[2][1:], want[2][1:]))


def test_generated_code_keeps_zero_signs_apart():
    # Two systems with one structure whose coefficients differ only in the
    # sign of a zero.  Every sum starts at 0.0, so the sign never reaches F, J
    # or the Euler loop; both must match the reference in either order.
    plus = OdeSystem(2, [[((0, 1), 0.0)], [((1, 0), -1.0), ((0, 0), 0.0)]])
    minus = OdeSystem(2, [[((0, 1), -0.0)], [((1, 0), -1.0), ((0, 0), -0.0)]])
    assert plus == minus  # 0.0 == -0.0, so they compare equal
    for first, second in ((plus, minus), (minus, plus)):
        for sys in (first, second):
            for a in ([0.5, 2.0], [-0.5, -2.0], [0.0, -0.0]):
                _assert_same_as_reference(sys, a)


@pytest.mark.parametrize("coef", [math.inf, -math.inf, math.nan])
def test_generated_code_takes_non_finite_coefficients(coef):
    sys = OdeSystem(2, [[((1, 0), -1.0), ((0, 2), coef)],
                        [((1, 1), coef), ((0, 0), 0.5)]])
    for a in ([0.5, 0.25], [0.0, 1.0], [1.0, 0.0], [-2.0, -0.0]):
        _assert_same_as_reference(sys, a)


def test_generated_code_on_dim_8_degree_4_fields():
    rng = np.random.default_rng(88)
    for _ in range(6):
        comps = []
        for i in range(8):
            terms = []
            for _ in range(5):
                exps = [0] * 8
                for _ in range(4):
                    exps[int(rng.integers(8))] += 1
                terms.append((tuple(exps), float(rng.uniform(-1.0, 1.0))))
            terms.append((tuple(int(j == i) for j in range(8)), -2.0))
            comps.append(terms)
        sys = OdeSystem(8, comps)
        for scale in (0.1, 1.0, 3.0):
            _assert_same_as_reference(sys, rng.uniform(-scale, scale, size=8),
                                      delta=0.005, n=100)


def test_generated_code_takes_thousands_of_terms():
    # one statement per term: a single 5000-term expression would exceed the
    # compiler's nesting depth
    sys = OdeSystem(2, [[((1, 0), -1e-4)] * 5000, [((1, 1), 1e-3)] * 3000])
    for a in ([0.5, 0.25], [-1.5, 2.0]):
        _assert_same_as_reference(sys, a, n=3)


def test_system_survives_pickle_and_deepcopy():
    it = DifferentialIteration(LORENZ, 1e-3, 2000)
    want = euler_iterate(it, [1.0, 2.0, 3.0])
    for twin in (pickle.loads(pickle.dumps(LORENZ)), copy.deepcopy(LORENZ)):
        assert twin == LORENZ and twin._terms == LORENZ._terms
        assert twin._dterms == LORENZ._dterms
        got = euler_iterate(DifferentialIteration(twin, 1e-3, 2000), [1.0, 2.0, 3.0])
        assert got.a_n.tobytes() == want.a_n.tobytes()
        assert got.S_n.tobytes() == want.S_n.tobytes()
        assert twin.jacobian([1.0, 2.0, 3.0]).tobytes() == \
            LORENZ.jacobian([1.0, 2.0, 3.0]).tobytes()
