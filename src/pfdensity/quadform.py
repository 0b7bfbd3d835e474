"""Symmetric forms and their eigen-decomposition S = T diag(eig) T^t.

No command calls this module.  It stays for two callers: the benchmark's
lorenz workload times symmetric_eigen as its quadform.eigen layer, and the
tests use it as the independent oracle for lorenz.q_decomposition's
closed-form eigenbasis of Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SymmetricForm", "symmetric_eigen"]

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
            bad = [x for x in row if not math.isfinite(x)]
            if bad:
                raise ValueError(f"form entries must be finite, got {bad[0]!r}")
        object.__setattr__(self, "lower", lower)

    @classmethod
    def from_matrix(cls, M) -> "SymmetricForm":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        d = M.shape[0]
        # both triangles through __init__, which rejects a non-finite entry;
        # M is stored as given, and only if its triangles are equal
        lower, upper = (cls(A[i, :i + 1] for i in range(d)) for A in (M, M.T))
        if lower != upper:
            raise ValueError("matrix is not symmetric")
        return lower

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
        tol = _SIGN_TOL * max(1.0, float(np.max(np.abs(col))))
        if next((v for v in col if abs(v) > tol), 0.0) < 0:
            V[:, j] = -col
    return eig, V
