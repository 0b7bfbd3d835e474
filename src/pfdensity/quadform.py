"""Orthogonal splitting of quadratic maps f(a) = lam*a + Q a^2 in R^d.

For a dual vector s the projected quadratic form S = sum_l s_l Q_l is
symmetric; its eigen-decomposition S = T D T^t separates the
exponent into independent one-dimensional pieces

    gamma_+(u) = Lambda_l u + K_l^2 u^2 - ln u   (D_l > 0)
    gamma_-(u) = Lambda_l u - K_l^2 u^2 - ln u   (D_l < 0)

with Lambda = (s*lam)^t T and K_l^2 = |D_l|.  The split is (T, D, Lambda)
and nothing more.  Each gamma_- coordinate is a logistic-type saddle
(effective multiplier Lambda_l / 2K_l^2 at dual value 2K_l^2), which
split_density solves; gamma_+ coordinates never produce complex saddles and
only contribute the constraint Lambda_l u_l = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import MapSpec1D
from .errors import DegenerateForm
from .saddle import zero_density_q

__all__ = [
    "SymmetricForm",
    "QuadSplit",
    "symmetric_eigen",
    "projected_form",
    "split_gamma",
    "split_density",
]

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricForm:
    """Symmetric matrix stored as its lower triangle (symmetry by construction)."""

    lower: tuple

    def __init__(self, lower):
        lower = tuple(tuple(float(x) for x in row) for row in lower)
        for i, row in enumerate(lower):
            if len(row) != i + 1:
                raise ValueError("lower triangle rows must have lengths 1..d")
        object.__setattr__(self, "lower", lower)

    @classmethod
    def from_matrix(cls, M) -> "SymmetricForm":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        scale = max(1.0, float(np.max(np.abs(M))))
        if float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        d = M.shape[0]
        sym = (M + M.T) / 2.0
        return cls(tuple(tuple(sym[i, :i + 1]) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def matrix(self) -> np.ndarray:
        d = self.dim
        M = np.zeros((d, d))
        for i, row in enumerate(self.lower):
            for j, v in enumerate(row):
                M[i, j] = v
                M[j, i] = v
        return M


def symmetric_eigen(S: SymmetricForm):
    """S = T diag(eig) T^t by LAPACK's symmetric eigensolver (np.linalg.eigh).

    Returns (eigenvalues ascending, T) with unit-norm columns whose first
    non-negligible component is positive, so results are deterministic.
    """
    eig, V = np.linalg.eigh(S.matrix())
    for j in range(V.shape[1]):
        col = V[:, j]
        lead = 0.0
        for v in col:
            if abs(v) > _SIGN_TOL * max(1.0, float(np.max(np.abs(col)))):
                lead = v
                break
        if lead < 0:
            V[:, j] = -col
    return eig, V


def projected_form(s, Q) -> SymmetricForm:
    """S = sum_l s_l Q_l for component quadratic-form matrices Q_l."""
    s = np.asarray(s, dtype=float)
    mats = [np.asarray(m, dtype=float) for m in Q]
    if len(mats) != s.size:
        raise ValueError("need one quadratic matrix per component of s")
    S = np.zeros_like(mats[0])
    for w, m in zip(s, mats):
        S = S + w * m
    return SymmetricForm.from_matrix(S)


@dataclass(frozen=True)
class QuadSplit:
    T: np.ndarray
    D: np.ndarray
    Lambda: np.ndarray


def split_gamma(s, lam, Q) -> QuadSplit:
    """Diagonalise the projected form: S = T diag(D) T^t, Lambda = (s*lam)^t T.

    Raises DegenerateForm when any eigenvalue is below 1e-12 of the
    spectral radius (the p vs d-p sign split needs strict signs).
    """
    s = np.asarray(s, dtype=float)
    lam = np.asarray(lam, dtype=float)
    S = projected_form(s, Q)
    D, T = symmetric_eigen(S)

    radius = float(np.max(np.abs(D)))
    if radius == 0.0 or np.min(np.abs(D)) < _SIGN_TOL * radius:
        raise DegenerateForm(
            f"projected form has an eigenvalue below {_SIGN_TOL} of the "
            f"spectral radius {radius:.3e}")

    return QuadSplit(T=T, D=D, Lambda=(s * lam) @ T)


def split_density(split: QuadSplit, index: int) -> float:
    """Zero density of one coordinate; gamma_+ coordinates contribute none."""
    if split.D[index] > 0.0:
        return 0.0
    s_eff = 2.0 * -float(split.D[index])
    lam_eff = float(split.Lambda[index]) / s_eff
    return zero_density_q(MapSpec1D.logistic(lam_eff), s_eff)
