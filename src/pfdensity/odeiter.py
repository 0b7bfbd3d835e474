"""Differential iteration for polynomial ODE fields da/dt = F(a).

The explicit Euler step f(a) = a + delta*F(a), iterated n times with
delta = t/n, is treated as a bounded polynomial iteration.  This module
provides the iteration itself (with its exact partial-sum identity
a_n - a_0 = delta * S_n), Newton location of the zeros of F, analytic
Jacobians with their spectra from LAPACK, and the critical-frequency
solve s(I + tau*J) = 1/a whose singularities sit at tau = -1/lambda for
real eigenvalues lambda of J.

Each OdeSystem is compiled once, at construction, into two term tables:
`_terms` with one row per term of F_k, `_dterms` with one per term of
dF_i/da_l (k = i*dim + l, coefficient coef*e_l).  A table is its structure,
rows (k, ((index, exponent), ...)) that keep only nonzero exponents, and
its coefficients.  For each structure, Python source is generated once per
process and cached: out_k = 0.0, then out_k += c_n*a_j**e*... for each row
in order, with a_j for e = 1 (x**1 is exactly x) and a_j**e for e >= 2
(pow can differ from repeated products in the last bit).  The coefficients
arrive as arguments, so inf, NaN and the sign of a zero need no literal
and no two systems share them.  F and J are such functions; the Euler loop
is one function too, on locals a_i and S_i: S_i + F_i, then
a_i + delta*F_i, then the |a_i| <= GUARD test that also catches NaN.  Every
result is therefore bit-identical to a direct loop over the (exps, coef)
terms in numpy doubles; tests/test_odeiter.py keeps that loop as the
reference.

fixed_points runs Newton from its seeds in blocks of _NEWTON_BLOCK.  Each
sweep evaluates F, the tolerance test and J per seed with those generated
functions, then solves the stacked Jacobians of every seed still stepping
in one np.linalg.solve; a LinAlgError from the stack reruns that sweep's
solves seed by seed, so only a seed whose own J is singular stops.  LAPACK
solves each matrix of a stack as it solves it alone, so the points and the
drop count are bit-identical to the loop of single solves, seed by seed.

OdeSystem's construction and JSON, its point check of a list or tuple of
ints and floats, DifferentialIteration and its Euler loop (iterate, which
returns lists) run without numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import _finite, _OnFirstUse
from .errors import DomainError, SingularTau, TrajectoryEscape

np = _OnFirstUse("numpy", globals(), "np")

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
    "jacobian_eigen",
    "critical_frequency_solution",
    "critical_frequencies",
]

GUARD = 1e6
MAX_TOTAL_DEGREE = 4
MAX_DIM = 8
_SINGULAR = 1e-10  # critical_frequency_solution's relative singularity bound


def _sums(shape, size: int, out: str) -> list:
    """Source lines that set out_k, k < size, to 0.0 and then add, for the
    n-th row (k, ((j, e), ...)) of `shape` in row order, the term
    c_n*a_j**e*..., with a_j for e = 1.  One statement per term keeps the
    compiler's nesting depth fixed however many terms a table has."""
    lines = [f"{out}_{k} = 0.0" for k in range(size)]
    for n, (k, factors) in enumerate(shape):
        lines.append(f"{out}_{k} += c_{n}" + "".join(
            f"*a_{j}" if e == 1 else f"*a_{j}**{e}" for j, e in factors))
    return lines


def _names(prefix: str, count: int) -> str:
    return ", ".join(f"{prefix}_{i}" for i in range(count))


@functools.lru_cache(maxsize=256)
def _compiled(kind: str, dim: int, size: int, shape: tuple):
    """The function of `kind` generated for the table structure `shape`:
    "sums" maps (c, a) to out, "euler" runs the Euler loop from a."""
    head = f"    [{_names('c', len(shape))}] = c\n    [{_names('a', dim)}] = a\n"
    if kind == "sums":
        src = (f"def sums(c, a):\n{head}"
               + "".join(f"    {line}\n" for line in _sums(shape, size, "o"))
               + f"    return [{_names('o', size)}]\n")
    else:
        src = (f"def euler(c, a, delta, n, G):\n{head}"
               f"    {' = '.join(f'S_{i}' for i in range(dim))} = 0.0\n"
               "    for step in range(1, n + 1):\n"
               + "".join(f"        {line}\n" for line in _sums(shape, dim, "f"))
               + "".join(f"        S_{i} = S_{i} + f_{i}\n" for i in range(dim))
               + "".join(f"        a_{i} = a_{i} + delta*f_{i}\n" for i in range(dim))
               + "        if not (" + " and ".join(
                   f"abs(a_{i}) <= G" for i in range(dim)) + "):\n"
               "            raise TrajectoryEscape(step)\n"
               f"    return [{_names('a', dim)}], [{_names('S', dim)}]\n")
    scope = {"TrajectoryEscape": TrajectoryEscape}
    exec(compile(src, f"<odeiter {kind}>", "exec"), scope)
    return scope[kind]


def _generated(kind: str, table: tuple, dim: int, size: int, x: list, *args):
    """Run the generated function of `kind` on a (shape, coefs) table; where
    a power overflows (OverflowError on floats) rerun it on np.float64 copies
    of x, whose power returns +-inf as numpy does (its warnings silenced).
    Points past step 1 of the Euler loop are bounded by GUARD, so only its
    first step can overflow."""
    shape, coefs = table
    fn = _compiled(kind, dim, size, shape)
    try:
        return fn(coefs, x, *args)
    except OverflowError:
        with np.errstate(all="ignore"):
            return fn(coefs, [np.float64(u) for u in x], *args)


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
                given = tuple(exps)
                exps = tuple(int(e) for e in given)
                if exps != given or len(exps) != dim or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {given!r}")
                if sum(exps) > MAX_TOTAL_DEGREE:
                    raise ValueError(
                        f"total degree {sum(exps)} exceeds {MAX_TOTAL_DEGREE}")
                try:
                    coef = float(coef)
                except OverflowError:  # an int beyond the double range
                    raise DomainError(f"the coefficient of the term {exps!r} "
                                      "is beyond the double range") from None
                norm.append((exps, coef))
            comps.append(tuple(norm))
        if len(comps) != dim:
            raise ValueError("need one component per dimension")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "components", tuple(comps))
        f_rows = [(i, coef, tuple((j, e) for j, e in enumerate(exps) if e))
                  for i, comp in enumerate(comps) for exps, coef in comp]
        j_rows = [(i * self.dim + l, coef * e,
                   tuple((m, em - (m == l)) for m, em in enumerate(exps)
                         if em - (m == l)))
                  for i, comp in enumerate(comps) for exps, coef in comp
                  for l, e in enumerate(exps) if e]
        for name, rows in (("_terms", f_rows), ("_dterms", j_rows)):
            object.__setattr__(self, name, (
                tuple((k, factors) for k, _, factors in rows),
                tuple(coef for _, coef, _ in rows)))

    def _point(self, a) -> list:
        """a as the floats of np.asarray(a, dtype=float).tolist(), read
        without numpy for a list or tuple of ints and floats; a point of
        any shape but (dim,) is a ValueError."""
        if isinstance(a, (list, tuple)) and all(type(v) in (int, float) for v in a):
            shape, x = (len(a),), [float(v) for v in a]
        else:
            a = np.asarray(a, dtype=float)
            shape, x = a.shape, a.tolist()
        if shape != (self.dim,):
            raise ValueError(
                f"point has shape {shape}, the system needs ({self.dim},)")
        return x

    def __call__(self, a) -> np.ndarray:
        return np.array(self._field(self._point(a)))

    def jacobian(self, a) -> np.ndarray:
        d = self.dim
        return np.reshape(
            _generated("sums", self._dterms, d, d * d, self._point(a)), (d, d))

    def _field(self, x: list) -> list:
        return _generated("sums", self._terms, self.dim, self.dim, x)

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
        """The system of to_json's object shape; a malformed one is a
        ValueError that names the key at fault."""
        def number(x, kind=(int, float)):
            return isinstance(x, kind) and not isinstance(x, bool)

        obj = obj if isinstance(obj, dict) else {}
        if not number(obj.get("dim"), int):
            raise ValueError('a system is a JSON object whose "dim" is an integer')
        comps = obj.get("components")
        if not (isinstance(comps, list) and all(
                isinstance(comp, list) and all(isinstance(t, dict) for t in comp)
                for comp in comps)):
            raise ValueError('"components" must be a list of lists of terms')
        terms = [t for comp in comps for t in comp]
        if not all(isinstance(t.get("exps"), list)
                   and all(number(e, int) for e in t["exps"]) for t in terms):
            raise ValueError('each term\'s "exps" must be a list of integers')
        if not all(number(t.get("coef")) for t in terms):
            raise ValueError('each term\'s "coef" must be a number')
        for t in terms:  # json reads NaN and Infinity; an int may be any size
            if isinstance(t["coef"], float) and not math.isfinite(t["coef"]):
                raise DomainError(f"the coefficient of the term {tuple(t['exps'])!r} "
                                  f"= {t['coef']!r} is not finite")
        return cls(obj["dim"], [[(tuple(t["exps"]), t["coef"]) for t in comp]
                                for comp in comps])

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
        if not (_finite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def horizon(self) -> float:
        return self.delta * self.n

    def iterate(self, a0) -> tuple:
        """n explicit Euler steps from a0: (a_n, S_n) as lists of floats,
        S_n the sum of the field values, so a_n - a0 = delta * S_n up to
        rounding; TrajectoryEscape once a coordinate leaves |a| <= GUARD."""
        sys = self.system
        return _generated("euler", sys._terms, sys.dim, sys.dim,
                          sys._point(a0), self.delta, self.n, GUARD)


class EulerResult(NamedTuple):
    a_n: np.ndarray
    S_n: np.ndarray


def euler_iterate(it: DifferentialIteration, a0) -> EulerResult:
    """it.iterate(a0) as arrays."""
    a, S = it.iterate(a0)
    return EulerResult(a_n=np.array(a), S_n=np.array(S))


def seed_lattice(dim: int, radius: float) -> list:
    """5^dim Newton seeds on a regular lattice in [-radius, radius]^dim."""
    if not _finite(radius):
        raise ValueError(f"radius must be finite, got {radius!r}")
    if not math.isfinite(2.0 * radius):  # linspace would overflow the span
        raise ValueError(f"radius {radius!r} is too large: the lattice's "
                         "span 2*radius overflows doubles")
    axis = np.linspace(-radius, radius, 5)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return [np.array(pt) for pt in zip(*(g.ravel() for g in grids))]


class FixedPoints(NamedTuple):
    points: list
    non_converged: int


def _newton_steps(J: list, F: list, dim: int) -> list:
    """The Newton steps J_k^-1 F_k as lists, from one stacked solve; where
    that raises LinAlgError, from one solve per k, with None for a
    singular J_k."""
    Js = np.reshape(J, (len(J), dim, dim))
    Fs = np.array(F, dtype=float)
    try:
        return np.linalg.solve(Js, Fs[:, :, None])[:, :, 0].tolist()
    except np.linalg.LinAlgError:
        pass
    steps = []
    for Jk, Fk in zip(Js, Fs):
        try:
            steps.append(np.linalg.solve(Jk, Fk).tolist())
        except np.linalg.LinAlgError:
            steps.append(None)
    return steps


def _newton(sys: OdeSystem, xs: list) -> list:
    """At most 60 Newton steps from every point of xs, in sweeps over the
    points still stepping, each updated in xs; whether each converged."""
    d = sys.dim
    ok = [False] * len(xs)
    active = range(len(xs))
    for _ in range(60):
        todo, F = [], []
        for i in active:
            x = xs[i]
            fa = sys._field(x)
            tol = 1e-13 * (1.0 + max(map(abs, x)))
            if all(abs(v) <= tol for v in fa):
                # an infinite coordinate makes tol infinite, so any F passes
                ok[i] = all(map(math.isfinite, x))
            else:
                todo.append(i)
                F.append(fa)
        if not todo:
            break
        J = [_generated("sums", sys._dterms, d, d * d, xs[i]) for i in todo]
        active = []
        for i, step in zip(todo, _newton_steps(J, F, d)):
            if step is None:
                continue
            x = xs[i] = [u - s for u, s in zip(xs[i], step)]
            if all(abs(u) <= GUARD for u in x):
                active.append(i)
    return ok


_NEWTON_BLOCK = 4096  # seeds per block: at most this many Jacobians stacked


def fixed_points(sys: OdeSystem, seeds=None, radius: float = 2.0) -> FixedPoints:
    """At most 60 Newton steps from every seed; a root is accepted once
    |F(alpha)| <= 1e-13 (1 + |alpha|) with every coordinate finite, and
    deduplicated at distance 1e-8.

    Seeds go through in blocks of _NEWTON_BLOCK, with one stacked
    np.linalg.solve per Newton sweep of a block; if that raises
    LinAlgError, the sweep solves seed by seed and drops a seed whose own
    solve raises.  Every step, point and drop is bit-identical to a loop
    of single solves, seed by seed, and acceptance and deduplication run
    in seed order."""
    if seeds is None:
        seeds = seed_lattice(sys.dim, radius)
    found = []
    dropped = 0
    it = iter(seeds)
    while block := [sys._point(s) for s in itertools.islice(it, _NEWTON_BLOCK)]:
        for x, ok in zip(block, _newton(sys, block)):
            if not ok:
                dropped += 1
            elif not any(all(abs(u - v) < 1e-8 for u, v in zip(x, b))
                         for b in found):
                found.append(x)
    found.sort(key=tuple)
    return FixedPoints([np.array(p) for p in found], dropped)


class JacobianEigen(NamedTuple):
    J: np.ndarray
    eigenvalues: list


def jacobian_eigen(sys: OdeSystem, a) -> JacobianEigen:
    """J(a) and its eigenvalues from LAPACK's backward-stable dgeev
    (np.linalg.eigvals) as Python complex, sorted by (real, imag) as
    poly_roots sorts; a J that is not finite in doubles is a DomainError."""
    J = sys.jacobian(a)
    if not np.all(np.isfinite(J)):
        raise DomainError("the Jacobian is not finite in doubles")
    eig = sorted(map(complex, np.linalg.eigvals(J)),
                 key=lambda z: (z.real, z.imag))
    return JacobianEigen(J=J, eigenvalues=eig)


def critical_frequency_solution(sys: OdeSystem, a, tau: float) -> np.ndarray:
    """Row-vector solve s (I + tau J) = 1/a.

    The eigenvalues of I + tau J are 1 + tau mu for the eigenvalues mu of
    J, so it is singular exactly where tau = -1/lambda for a real lambda.
    SingularTau is raised, naming the real lambda (one whose imaginary
    part dgeev returns as exactly 0.0) that comes closest, when
    |1 + tau lambda| <= _SINGULAR * max(1, |tau| max|mu|): a bound
    relative to the largest eigenvalue of I + tau J.  No determinant is
    tested: det(0.05 I_8) = 3.9e-11 belongs to a matrix of condition
    number 1, and a determinant far from 0 can belong to one that is
    nearly singular.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a == 0.0):
        raise DomainError("all coordinates of a must be nonzero")
    J, eig = jacobian_eigen(sys, a)
    lam = min((z.real for z in eig if z.imag == 0.0),
              key=lambda l: abs(1.0 + tau * l), default=None)
    scale = max(1.0, abs(tau) * max(map(abs, eig)))
    if lam is not None and abs(1.0 + tau * lam) <= _SINGULAR * scale:
        raise SingularTau(tau, lam)
    return np.linalg.solve((np.eye(J.shape[0]) + tau * J).T, 1.0 / a)


def _left_eigenvector(J: np.ndarray, lam: float) -> np.ndarray:
    """Unit left eigenvector of J for eigenvalue lam (the last right
    singular vector of J^T - lam I), its first entry above 1e-12 in
    modulus made positive."""
    v = np.linalg.svd(J.T - lam * np.eye(J.shape[0]))[2][-1]
    return -v if v[np.argmax(np.abs(v) > 1e-12)] < 0 else v


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
    reported but excluded from the tau candidates.  An eigenvalue is real
    when its imaginary part is exactly 0.0, as dgeev returns every real
    one, so a pair off the real axis by 1e-9 stays complex.  An empty tau
    list (no real eigenvalue) is a reported condition, not an error.
    """
    a = np.asarray(a, dtype=float)
    J, eig = jacobian_eigen(sys, a)
    real = [z.real for z in eig if z.imag == 0.0 and abs(z.real) > 1e-12]
    taus = tuple(sorted((-1.0 / l for l in real), reverse=True))

    critical = vec = None
    lam = max((l for l in real if l < 0.0), default=None)
    if lam is not None:  # -1/lam is increasing in lam < 0: the largest tau
        critical = -1.0 / lam
        vec = _left_eigenvector(J, lam)

    return FrequencyResult(a=a, taus=taus, critical_tau=critical,
                           eigenvector=vec, eigenvalues=tuple(eig))
