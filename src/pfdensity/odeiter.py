"""Differential iteration for polynomial ODE fields da/dt = F(a).

The explicit Euler step f(a) = a + delta*F(a), iterated n times with
delta = t/n, is treated as a bounded polynomial iteration.  This module
provides the iteration itself (with its exact partial-sum identity
a_n - a_0 = delta * S_n), Newton location of the zeros of F, analytic
Jacobians with Faddeev-LeVerrier characteristic polynomials, and the
critical-frequency solve s(I + tau*J) = 1/a whose singularities sit at
tau = -1/lambda for real eigenvalues lambda of J.

Each OdeSystem is compiled once, at construction, into two term tables of
rows (k, coef, ((index, exponent), ...)) that keep only nonzero exponents:
`_terms` has one row per term of F_k, `_dterms` one row per term of
dF_i/da_l (k = i*dim + l, coefficient coef*e_l).  F, J, the Euler loop and
Newton all evaluate these tables on Python floats in the original term
order (v = coef; v *= x_j**e for each factor; out[k] += v), and Euler keeps
S += F, then a + delta*F, and the |a_i| <= GUARD test that also catches
NaN.  Every result is therefore bit-identical to a direct loop over the
(exps, coef) terms in numpy doubles; tests/test_odeiter.py keeps that loop
as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, SingularTau, TrajectoryEscape
from .poly import Polynomial, poly_roots

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


def _max_abs(x: list) -> float:
    """max |x_i|, NaN when any x_i is NaN (as np.max(np.abs(x)))."""
    return math.nan if any(v != v for v in x) else max(map(abs, x))


def _evaluate(rows, size: int, x: list) -> list:
    """Sum the terms of a table at the point x (a list of floats): row
    (k, coef, ((j, e), ...)) adds coef * x_j**e * ... to out[k], in row order."""
    out = [0.0] * size
    try:
        for k, v, factors in rows:
            for j, e in factors:
                v *= x[j] ** e
            out[k] += v
    except OverflowError:
        # float ** int raises where numpy's power returns +-inf; so do that
        return _evaluate(rows, size, [np.float64(u) for u in x])
    return out


@dataclass(frozen=True)
class OdeSystem:
    """Polynomial vector field; component l is a list of (exps, coef) terms."""

    dim: int
    components: tuple
    _terms: tuple = field(init=False, compare=False, repr=False)
    _dterms: tuple = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "_terms", tuple(
            (i, coef, tuple((j, e) for j, e in enumerate(exps) if e))
            for i, terms in enumerate(comps) for exps, coef in terms))
        object.__setattr__(self, "_dterms", tuple(
            (i * self.dim + l, coef * e,
             tuple((m, em - (m == l)) for m, em in enumerate(exps) if em - (m == l)))
            for i, terms in enumerate(comps) for exps, coef in terms
            for l, e in enumerate(exps) if e))

    def _point(self, a) -> list:
        a = np.asarray(a, dtype=float)
        if a.shape != (self.dim,):
            raise ValueError(
                f"point has shape {a.shape}, the system needs ({self.dim},)")
        return a.tolist()

    def __call__(self, a) -> np.ndarray:
        return np.array(_evaluate(self._terms, self.dim, self._point(a)))

    def jacobian(self, a) -> np.ndarray:
        d = self.dim
        return np.reshape(_evaluate(self._dterms, d * d, self._point(a)), (d, d))

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
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta!r}")
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
    a = it.system._point(a0)
    S = [0.0] * len(a)
    terms, dim = it.system._terms, it.system.dim
    delta = it.delta
    for step in range(1, it.n + 1):
        fa = _evaluate(terms, dim, a)
        S = [s + f for s, f in zip(S, fa)]
        a = [x + delta * f for x, f in zip(a, fa)]
        if not all(abs(x) <= GUARD for x in a):
            raise TrajectoryEscape(step)
    return EulerResult(a_n=np.array(a), S_n=np.array(S))


def seed_lattice(dim: int, radius: float) -> list:
    """5^dim Newton seeds on a regular lattice in [-radius, radius]^dim."""
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius!r}")
    axis = np.linspace(-radius, radius, 5)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return [np.array(pt) for pt in zip(*(g.ravel() for g in grids))]


class FixedPoints(NamedTuple):
    points: list
    non_converged: int


def fixed_points(sys: OdeSystem, seeds=None, radius: float = 2.0) -> FixedPoints:
    """At most 60 Newton steps from every seed; a root is accepted once
    |F(alpha)| <= 1e-13 (1 + |alpha|) with every coordinate finite, and
    deduplicated at distance 1e-8."""
    if seeds is None:
        seeds = seed_lattice(sys.dim, radius)
    found = []
    dropped = 0
    for seed in seeds:
        x = sys._point(seed)
        ok = False
        for _ in range(60):
            fa = _evaluate(sys._terms, sys.dim, x)
            tol = 1e-13 * (1.0 + _max_abs(x))
            if all(abs(v) <= tol for v in fa):
                # an infinite coordinate makes tol infinite, so any F passes
                ok = all(map(math.isfinite, x))
                break
            try:
                step = np.linalg.solve(sys.jacobian(x), fa)
            except np.linalg.LinAlgError:
                break
            x = [u - s for u, s in zip(x, step.tolist())]
            if not all(abs(u) <= GUARD for u in x):
                break
        if not ok:
            dropped += 1
            continue
        if any(all(abs(u - v) < 1e-8 for u, v in zip(x, b)) for b in found):
            continue
        found.append(x)
    found.sort(key=tuple)
    return FixedPoints([np.array(p) for p in found], dropped)


def char_poly_faddeev(J) -> Polynomial:
    """Characteristic polynomial det(lambda I - J) by the trace recursion,
    returned with ascending coefficients and monic leading term."""
    J = np.asarray(J, dtype=float)
    d = J.shape[0]
    coeffs_desc = [1.0]
    M = np.eye(d)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite c
        for k in range(1, d + 1):
            JM = J @ M
            c = -np.trace(JM) / k
            coeffs_desc.append(float(c))
            M = JM + c * np.eye(d)
    if not all(map(math.isfinite, coeffs_desc)):
        raise DomainError("the characteristic polynomial of the Jacobian "
                          "is not finite in doubles")
    return Polynomial(list(reversed(coeffs_desc)))


class JacobianEigen(NamedTuple):
    J: np.ndarray
    char_poly: Polynomial
    eigenvalues: list


def jacobian_eigen(sys: OdeSystem, a) -> JacobianEigen:
    J = sys.jacobian(a)
    cp = char_poly_faddeev(J)
    eig = poly_roots(cp)
    return JacobianEigen(J=J, char_poly=cp, eigenvalues=eig)


def _real_eigenvalues(eigenvalues) -> list:
    return [z.real for z in eigenvalues
            if abs(z.imag) <= 1e-9 * (1.0 + abs(z.real))]


def critical_frequency_solution(sys: OdeSystem, a, tau: float) -> np.ndarray:
    """Row-vector solve s (I + tau J) = 1/a.

    SingularTau is raised when I + tau J is numerically singular or tau is
    within 1e-10 of -1/lambda for a real eigenvalue lambda: that is the
    discontinuity of the resolvent, reported with the offending eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a == 0.0):
        raise DomainError("all coordinates of a must be nonzero")
    J, _, eig = jacobian_eigen(sys, a)
    A = np.eye(J.shape[0]) + tau * J

    real = _real_eigenvalues(eig)
    for lam in real:
        if lam != 0.0 and abs(tau + 1.0 / lam) < _TAU_PROXIMITY:
            raise SingularTau(tau, lam)
    det = float(np.linalg.det(A))
    if abs(det) < _SINGULAR_DET:
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
    J, _, eig = jacobian_eigen(sys, a)
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
