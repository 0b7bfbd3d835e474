import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdensity.bell import MapSpec1D
from pfdensity.errors import DegenerateForm
from pfdensity.quadform import (QuadSplit, SymmetricForm, projected_form,
                                split_density, split_gamma, symmetric_eigen)
from pfdensity.saddle import zero_density_q

LORENZ_Q_34 = [[0.0, 4.0, -3.0],
               [4.0, 0.0, 0.0],
               [-3.0, 0.0, 0.0]]


def test_form_storage_is_triangular():
    S = SymmetricForm.from_matrix([[1.0, 2.0], [2.0, 3.0]])
    assert S.lower == ((1.0,), (2.0, 3.0))
    assert np.array_equal(S.matrix(), [[1.0, 2.0], [2.0, 3.0]])


def test_form_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymmetricForm.from_matrix([[0.0, 1.0], [0.5, 0.0]])


def test_already_diagonal():
    eig, T = symmetric_eigen(SymmetricForm.from_matrix(np.diag([2.0, -3.0])))
    assert np.array_equal(eig, [-3.0, 2.0])
    # permutation with the positive-leading-entry sign convention
    assert np.array_equal(T, [[0.0, 1.0], [1.0, 0.0]])


def test_off_diagonal_pair():
    eig, T = symmetric_eigen(SymmetricForm.from_matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eig, [-1.0, 1.0], atol=1e-15)
    inv = 1.0 / np.sqrt(2.0)
    assert np.allclose(T[:, 0], [inv, -inv], atol=1e-15)
    assert np.allclose(T[:, 1], [inv, inv], atol=1e-15)


def test_lorenz_embedded_spectrum():
    # characteristic mu(mu^2 - y^2 - z^2) = 0 with (y,z) = (3,4): mu = 5
    eig, _ = symmetric_eigen(SymmetricForm.from_matrix(LORENZ_Q_34))
    assert np.allclose(eig, [-5.0, 0.0, 5.0], atol=1e-12)


def _random_symmetric(rng, d):
    M = rng.normal(size=(d, d))
    return (M + M.T) / 2.0


def test_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        M = _random_symmetric(rng, d)
        eig, T = symmetric_eigen(SymmetricForm.from_matrix(M))
        assert np.max(np.abs(T @ np.diag(eig) @ T.T - M)) < 1e-12
        assert np.max(np.abs(T @ T.T - np.eye(d))) < 1e-12
        assert abs(abs(np.linalg.det(T)) - 1.0) < 1e-12
        assert np.all(np.diff(eig) >= 0)


def test_large_dimension_converges():
    rng = np.random.default_rng(11)
    M = _random_symmetric(rng, 10)
    eig, T = symmetric_eigen(SymmetricForm.from_matrix(M))
    assert np.allclose(np.sort(np.linalg.eigvalsh(M)), eig, atol=1e-10)


def test_projected_form_sum():
    Q = [np.diag([1.0, 0.0]), [[0.0, 1.0], [1.0, 0.0]]]
    S = projected_form([2.0, 3.0], Q)
    assert np.array_equal(S.matrix(), [[2.0, 3.0], [3.0, 0.0]])


def test_split_d1_logistic_reduces_to_direct_problem():
    # dyadic s: the float rescaling in the dispatch is exact, so the
    # dispatched density is bitwise equal to the direct one
    lam = 2.0
    for s in (0.25, 0.5, 1.0, 2.0):
        split = split_gamma([s], [lam], [[[-0.5]]])
        assert split.D[0] < 0.0
        direct = zero_density_q(MapSpec1D.logistic(lam), s)
        assert split_density(split, 0) == direct


def test_split_d1_general_s_close():
    lam, s = 3.9, 0.3137
    split = split_gamma([s], [lam], [[[-0.5]]])
    got = split_density(split, 0)
    direct = zero_density_q(MapSpec1D.logistic(lam), s)
    assert got == pytest.approx(direct, rel=1e-12)


def test_split_mixed_signature():
    # D = diag(+1, -1) after projection: one constraint, one arcsine coordinate
    Q = [np.diag([1.0, 0.0]), np.diag([0.0, -1.0])]
    split = split_gamma([1.0, 1.0], [0.7, 0.9], Q)
    assert list(np.sign(split.D)) == [-1.0, 1.0]
    assert split_density(split, 1) == 0.0
    # the gamma_- coordinate is logistic with multiplier 0.9 / 2 at s = 2
    q = split_density(split, 0)
    assert q > 0.0
    assert q == zero_density_q(MapSpec1D.logistic(0.45), 2.0)


def test_split_degenerate_eigenvalue():
    Q = [np.diag([1.0, 0.0]), np.diag([0.0, 0.0])]
    with pytest.raises(DegenerateForm):
        split_gamma([1.0, 1.0], [1.0, 1.0], Q)


def test_split_lambda_vector():
    # S = diag(-2, -6); ascending eigenvalues permute the coordinates,
    # and Lambda = (s*lam)^t T follows the permutation
    Q = [np.diag([-1.0, 0.0]), np.diag([0.0, -2.0])]
    split = split_gamma([2.0, 3.0], [0.5, 0.25], Q)
    assert np.allclose(split.D, [-6.0, -2.0])
    assert np.allclose(split.Lambda, [0.75, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_volume_invariance(d, seed):
    rng = np.random.default_rng(seed)
    M = _random_symmetric(rng, d)
    _, T = symmetric_eigen(SymmetricForm.from_matrix(M))
    assert abs(abs(np.linalg.det(T)) - 1.0) < 1e-12


def test_other_fixed_points_via_associated_field():
    # the secondary fixed points of f(a) = lam a + Q a^2 solve a(1 - lam) = Q a^2;
    # they are located as zeros of the associated field f(a) - a
    from pfdensity.odeiter import OdeSystem, fixed_points
    lam = 2.0
    field = OdeSystem(1, [[((1,), lam - 1.0), ((2,), -0.5)]])
    pts, _ = fixed_points(field, radius=4.0)
    got = sorted(float(p[0]) for p in pts)
    assert got == pytest.approx([0.0, 2.0 * (lam - 1.0)], abs=1e-10)
