import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfdensity.quadform import SymmetricForm, symmetric_eigen

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


def test_form_rejects_ragged_or_non_square_input():
    with pytest.raises(ValueError, match="lower triangle rows must have lengths 1..d"):
        SymmetricForm([[1.0], [2.0]])
    with pytest.raises(ValueError, match="matrix must be square"):
        SymmetricForm.from_matrix([[1.0, 2.0]])


@pytest.mark.parametrize("M", [[[np.nan, 1.0], [2.0, 0.0]],
                               [[0.0, np.inf], [5.0, 0.0]],
                               [[np.inf, 0.0], [0.0, 1.0]]])
def test_form_rejects_non_finite_entries(M):
    # NaN compares false and inf - inf is NaN, so neither may reach the
    # symmetry test; the constructor rejects them too
    with pytest.raises(ValueError, match="must be finite"):
        SymmetricForm.from_matrix(M)
    [bad] = [x for row in M for x in row if not np.isfinite(x)]
    with pytest.raises(ValueError, match="must be finite"):
        SymmetricForm([[0.0], [bad, 0.0]])


def test_form_near_the_double_range_does_not_overflow():
    S = SymmetricForm.from_matrix([[1e308, 0.0], [0.0, 1.0]])
    assert S.lower == ((1e308,), (0.0, 1.0))
    eig, _ = symmetric_eigen(S)
    assert list(eig) == [1.0, 1e308]
    # triangles that differ in the last bit, where their sum overflows
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricForm.from_matrix([[0.0, 1.5e308], [np.nextafter(1.5e308, 0.0), 0.0]])


def test_exactly_symmetric_form_is_stored_bit_for_bit():
    M = [[-0.0, 5e-324, -0.0], [5e-324, 0.0, 0.3], [-0.0, 0.3, 1.7976931348623157e308]]
    S = SymmetricForm.from_matrix(M)
    assert [[struct.pack("<d", x) for x in row] for row in S.lower] == \
        [[struct.pack("<d", x) for x in M[i][:i + 1]] for i in range(3)]


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
