"""Differential iteration for polynomial ODE fields da/dt = F(a).

The explicit Euler step f(a) = a + delta*F(a), iterated n times with
delta = t/n, is treated as a bounded polynomial iteration.  This module
provides the iteration itself (with its exact partial-sum identity
a_n - a_0 = delta * S_n), Newton location of the zeros of F, analytic
Jacobians with Faddeev-LeVerrier characteristic polynomials, and the
critical-frequency solve s(I + tau*J) = 1/a whose singularities sit at
tau = -1/lambda for real eigenvalues lambda of J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, SingularTau, TrajectoryEscape
from .poly import Polynomial, RootConfig, poly_roots

__all__ = [
    "OdeSystem",
    "DifferentialIteration",
    "EulerResult",
    "FixedPoints",
    "JacobianEigen",
    "FrequencyResult",
    "euler_iterate",
    "seed_lattice",
    "fixed_points",
    "char_poly_faddeev",
    "jacobian_eigen",
    "critical_frequency_solution",
    "critical_frequencies",
]

GUARD = 1e6
MAX_TOTAL_DEGREE = 4
MAX_DIM = 8
_SINGULAR_DET = 1e-10
_TAU_PROXIMITY = 1e-10


@dataclass(frozen=True)
class OdeSystem:
    """Polynomial vector field; component l is a list of (exps, coef) terms."""

    dim: int
    components: tuple

    def __init__(self, dim, components):
        if not (1 <= dim <= MAX_DIM):
            raise ValueError(f"dim must be in 1..{MAX_DIM}")
        comps = []
        for terms in components:
            norm = []
            for exps, coef in terms:
                exps = tuple(int(e) for e in exps)
                if len(exps) != dim or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r}")
                if sum(exps) > MAX_TOTAL_DEGREE:
                    raise ValueError(
                        f"total degree {sum(exps)} exceeds {MAX_TOTAL_DEGREE}")
                norm.append((exps, float(coef)))
            comps.append(tuple(norm))
        if len(comps) != dim:
            raise ValueError("need one component per dimension")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "components", tuple(comps))

    def __call__(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        out = np.zeros(self.dim)
        for i, terms in enumerate(self.components):
            acc = 0.0
            for exps, coef in terms:
                v = coef
                for x, e in zip(a, exps):
                    if e:
                        v *= x**e
                acc += v
            out[i] = acc
        return out

    def jacobian(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        J = np.zeros((self.dim, self.dim))
        for i, terms in enumerate(self.components):
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

    @classmethod
    def linear(cls, matrix) -> "OdeSystem":
        M = np.asarray(matrix, dtype=float)
        d = M.shape[0]
        comps = []
        for i in range(d):
            terms = []
            for j in range(d):
                if M[i, j] != 0.0:
                    exps = tuple(1 if k == j else 0 for k in range(d))
                    terms.append((exps, M[i, j]))
            comps.append(terms)
        return cls(d, comps)

    @classmethod
    def from_json(cls, obj: dict) -> "OdeSystem":
        comps = [[(tuple(t["exps"]), t["coef"]) for t in comp]
                 for comp in obj["components"]]
        return cls(obj["dim"], comps)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "components": [[{"exps": list(e), "coef": c} for e, c in terms]
                           for terms in self.components],
        }


@dataclass(frozen=True)
class DifferentialIteration:
    system: OdeSystem
    delta: float
    n: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def horizon(self) -> float:
        return self.delta * self.n


class EulerResult(NamedTuple):
    a_n: np.ndarray
    S_n: np.ndarray


def euler_iterate(it: DifferentialIteration, a0) -> EulerResult:
    """n explicit Euler steps; S_n accumulates the field values so the
    identity a_n - a0 = delta * S_n holds up to rounding."""
    a = np.array(a0, dtype=float)
    if a.shape != (it.system.dim,):
        raise ValueError("a0 has the wrong dimension")
    S = np.zeros_like(a)
    F = it.system
    delta = it.delta
    for step in range(1, it.n + 1):
        fa = F(a)
        S += fa
        a = a + delta * fa
        if not np.all(np.abs(a) <= GUARD):
            raise TrajectoryEscape(step)
    return EulerResult(a_n=a, S_n=S)


def seed_lattice(dim: int, radius: float, per_axis: int = 5) -> list:
    """per_axis^dim Newton seeds on a regular lattice in [-radius, radius]^dim."""
    axis = np.linspace(-radius, radius, per_axis)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return [np.array(pt) for pt in zip(*(g.ravel() for g in grids))]


class FixedPoints(NamedTuple):
    points: list
    non_converged: int


def fixed_points(sys: OdeSystem, seeds=None, radius: float = 2.0,
                 max_iter: int = 60) -> FixedPoints:
    """Newton iteration from every seed; converged roots are deduplicated
    at distance 1e-8 and must satisfy |F(alpha)| <= 1e-12 (1 + |alpha|)."""
    if seeds is None:
        seeds = seed_lattice(sys.dim, radius)
    found = []
    dropped = 0
    for seed in seeds:
        a = np.array(seed, dtype=float)
        ok = False
        for _ in range(max_iter):
            fa = sys(a)
            if np.max(np.abs(fa)) <= 1e-13 * (1.0 + float(np.max(np.abs(a)))):
                ok = True
                break
            J = sys.jacobian(a)
            try:
                step = np.linalg.solve(J, fa)
            except np.linalg.LinAlgError:
                break
            a = a - step
            if not np.all(np.isfinite(a)) or np.max(np.abs(a)) > GUARD:
                break
        if not ok:
            dropped += 1
            continue
        resid = float(np.max(np.abs(sys(a))))
        if resid > 1e-12 * (1.0 + float(np.max(np.abs(a)))):
            dropped += 1
            continue
        if any(np.max(np.abs(a - b)) < 1e-8 for b in found):
            continue
        found.append(a)
    found.sort(key=lambda p: tuple(p))
    return FixedPoints(found, dropped)


def char_poly_faddeev(J) -> Polynomial:
    """Characteristic polynomial det(lambda I - J) by the trace recursion,
    returned with ascending coefficients and monic leading term."""
    J = np.asarray(J, dtype=float)
    d = J.shape[0]
    coeffs_desc = [1.0]
    M = np.eye(d)
    for k in range(1, d + 1):
        JM = J @ M
        c = -np.trace(JM) / k
        coeffs_desc.append(float(c))
        M = JM + c * np.eye(d)
    return Polynomial(list(reversed(coeffs_desc)))


class JacobianEigen(NamedTuple):
    J: np.ndarray
    char_poly: Polynomial
    eigenvalues: list


def jacobian_eigen(sys: OdeSystem, a, cfg: RootConfig = RootConfig()) -> JacobianEigen:
    J = sys.jacobian(a)
    cp = char_poly_faddeev(J)
    eig = poly_roots(cp, cfg)
    return JacobianEigen(J=J, char_poly=cp, eigenvalues=eig)


def _real_eigenvalues(eigenvalues, tol: float = 1e-9) -> list:
    return [z.real for z in eigenvalues
            if abs(z.imag) <= tol * (1.0 + abs(z.real))]


def critical_frequency_solution(sys: OdeSystem, a, tau: float) -> np.ndarray:
    """Row-vector solve s (I + tau J) = 1/a.

    SingularTau is raised when I + tau J is numerically singular or tau is
    within 1e-10 of -1/lambda for a real eigenvalue lambda: that is the
    discontinuity of the resolvent, reported with the offending eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a == 0.0):
        raise DomainError("all coordinates of a must be nonzero")
    J = sys.jacobian(a)
    d = J.shape[0]
    A = np.eye(d) + tau * J

    eig = poly_roots(char_poly_faddeev(J))
    for lam in _real_eigenvalues(eig):
        if lam != 0.0 and abs(tau + 1.0 / lam) < _TAU_PROXIMITY:
            raise SingularTau(tau, lam)
    det = float(np.linalg.det(A))
    if abs(det) < _SINGULAR_DET:
        real = _real_eigenvalues(eig)
        nearest = min(real, key=lambda l: abs(tau + 1.0 / l) if l != 0 else np.inf,
                      default=None)
        raise SingularTau(tau, nearest)

    rhs = 1.0 / a
    return np.linalg.solve(A.T, rhs)


def _left_eigenvector(J: np.ndarray, lam: float) -> np.ndarray:
    """Unit left eigenvector of J for eigenvalue lam, sign-normalised."""
    d = J.shape[0]
    _, _, Vt = np.linalg.svd(J.T - lam * np.eye(d))
    v = Vt[-1]
    v = v / np.linalg.norm(v)
    for x in v:
        if abs(x) > 1e-12:
            if x < 0:
                v = -v
            break
    return v


@dataclass(frozen=True)
class FrequencyResult:
    a: np.ndarray
    taus: tuple
    critical_tau: Optional[float]
    eigenvector: Optional[np.ndarray]
    eigenvalues: tuple


def critical_frequencies(sys: OdeSystem, a) -> FrequencyResult:
    """tau = -1/lambda for every real nonzero eigenvalue of J(a).

    The maximal positive tau is flagged as the critical asymptotic
    frequency together with its left eigenvector; complex eigenvalues are
    reported but excluded from the tau candidates.  An empty tau list (no
    real eigenvalue) is a reported condition, not an error.
    """
    a = np.asarray(a, dtype=float)
    J = sys.jacobian(a)
    eig = poly_roots(char_poly_faddeev(J))
    real = [l for l in _real_eigenvalues(eig) if abs(l) > 1e-12]
    taus = tuple(sorted((-1.0 / l for l in real), reverse=True))

    critical = None
    vec = None
    positives = [t for t in taus if t > 0.0]
    if positives:
        critical = max(positives)
        lam = -1.0 / critical
        vec = _left_eigenvector(J, lam)

    return FrequencyResult(a=a, taus=taus, critical_tau=critical,
                           eigenvector=vec, eigenvalues=tuple(eig))
