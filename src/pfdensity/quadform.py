"""Symmetric forms and their eigen-decomposition S = T diag(eig) T^t.

No command calls this module.  It stays for two callers: the benchmark's
lorenz workload times symmetric_eigen as its quadform.eigen layer, and the
tests use it as the independent oracle for lorenz.q_decomposition's
closed-form eigenbasis of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SymmetricForm", "symmetric_eigen"]

_SIGN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SymmetricForm:
    """Square, finite matrix equal to its transpose (-0.0 == 0.0), stored read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.array(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        bad = M[~np.isfinite(M)]
        if bad.size:
            raise ValueError(f"form entries must be finite, got {float(bad[0])!r}")
        if not np.array_equal(M, M.T):
            raise ValueError("matrix is not symmetric")
        M.flags.writeable = False
        object.__setattr__(self, "matrix", M)

    @classmethod
    def from_matrix(cls, M) -> "SymmetricForm":
        return cls(M)


def symmetric_eigen(S: SymmetricForm):
    """S = T diag(eig) T^t by LAPACK's symmetric eigensolver (np.linalg.eigh).

    Returns (eigenvalues ascending, T) with unit-norm columns whose first
    entry above 1e-12 * max(1, max |column|) is positive, so results are
    deterministic.  eigh reads only the lower triangle.
    """
    eig, T = np.linalg.eigh(S.matrix)
    A = np.abs(T)
    big = A > _SIGN_TOL * A.max(axis=0, initial=1.0)
    lead = big & (np.cumsum(big, axis=0) == 1)
    np.negative(T, out=T, where=(lead & (T < 0)).any(axis=0))
    return eig, T
