"""Dense univariate polynomials and simultaneous-iteration root finding.

Coefficients are stored ascending (coeffs[k] multiplies x^k) and may be
ints, Fractions, floats or complex; exact coefficient types survive
arithmetic and evaluation, which lets callers generate polynomials in
exact rational arithmetic and only round when solving for roots.

Roots are found with the Aberth-Ehrlich simultaneous iteration at a
working precision the solver picks itself (Bini & Fiorentino's MPSolve,
Numer. Algorithms 23, 2000): Python complex at 53 bits, then mpmath at
each wider level of _LEVELS, each from the roots of the one before, until
every root's relative error estimate is within _TARGET.  One rule,
_within_target, decides that for Aberth, the quadratic closed form and the
batch kernel alike.  The first level starts from the Newton polygon of
log2|a_k| (_newton_starts).
Conditioning decides how far a polynomial climbs: logistic H_12 settles
at 53 bits, H_64 at 128, and H_128 and the 4-fold root of (x - 1)^4 at
the top, 256 (bell.chain_roots solves such chains without the monomial
basis).
A level that cannot hold the polynomial is skipped: a coefficient beyond
the double range, a nonzero one that becomes 0 as a double, or start
points or roots that are not finite.  A root still above _TARGET at the
last level raises NonConvergence; one beyond the double range raises
DomainError.

At every level a root is frozen once its residual is within the
running-error bound of Horner's rule, |p(z)| <= eps = 4 n u sum|a_k||z|^k
with u = 2^-bits (MPSolve's stopping rule), and its error estimate is the
shift that moves p by eps.  Both are relative to the terms of p at z, so
tiny roots are judged like any others.  Degrees 1 and 2 use closed forms.
All three work on the coefficients divided by the power of two that
brings the largest into [1, 2), which keeps the closed forms' products
inside the double range; the closed forms keep the caller's coefficients
where that division would round one of them.

poly_roots_batch solves a stack of polynomials of one degree, such as the
critical polynomials of a density grid, at once: the closed forms and the
Aberth sweeps run as numpy operations on every row, from the eigenvalues
of the companion matrices, with the same freeze rule and _TARGET at 53
bits, and a row that misses them goes to poly_roots.  Only this batch
code imports numpy; Polynomial, poly_roots and real_zeros run without it.
The solver follows what the caller holds: a stack takes the batch kernel,
a single polynomial the scalar path.  Running poly_roots' 53-bit level
through the batch kernel on one row made the mpmath levels, which climb
from those roots, take logistic H_128 3.3-3.8 s against 2.0-2.4 s (2-vCPU
host, Python 3.11, numpy 2.4, mpmath 1.3 without gmpy2).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .errors import DegreeZero, DomainError, NonConvergence

if TYPE_CHECKING:
    import numpy as np

# mpmath's working precision is process-global state; hold this lock around
# any block that changes it so that concurrent library callers stay correct.
# mpmath itself is imported where it is used: most processes never climb
# past 53 bits, and importing it costs about 40 ms of start-up.
MP_LOCK = threading.Lock()

MAX_SWEEPS = 400  # Aberth sweeps per level before an unfrozen root misses
_LEVELS = (53, 128, 256)  # working precisions, in bits, in turn
_TARGET = 2.0 ** -40  # every root's relative error estimate must reach this
_REAL_AXIS_TOL = 1e-8  # |Im z| <= tol (1 + |Re z|) counts as real
# A batched solve takes rows in blocks of about this many entries of its
# (rows, n, n) Aberth arrays, so a long grid never holds all of them at once;
# an Aberth sweep builds those arrays in blocks of columns of the same size.
_BATCH_ENTRIES = 1 << 16

__all__ = [
    "Polynomial",
    "poly_roots",
    "poly_roots_batch",
    "real_zeros",
]


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        coeffs = [0]
    return tuple(coeffs)


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; trailing zero coefficients are stripped on build."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _horner(self.coeffs, x)


def _horner(coeffs, x):
    """Horner evaluation of ascending coeffs; the result type follows the operands."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class _Arith:
    """The number type one level of the root solve works in.

    _DOUBLE serves the 53-bit level, _mp_arith(bits) the wider ones.
    """

    num: Callable[[Any], Any]   # coefficient, root or numeric string -> working number
    one: Any
    exp: Callable
    sqrt: Callable
    frexp: Callable  # (mantissa, exponent) computed in the working type
    isfinite: Callable
    pi: Any
    unit: Any   # a root freezes once |p(z)| <= 4*n*unit*sum|a_k||z|^k
    tiny: Any   # stand-in for z_i - z_j == 0


_DOUBLE = _Arith(num=complex, one=1.0, exp=cmath.exp, sqrt=cmath.sqrt,
                 frexp=math.frexp, isfinite=cmath.isfinite, pi=math.pi,
                 unit=2.0 ** -53, tiny=1e-30)


def _mp_arith(bits: int) -> _Arith:
    """mpmath arithmetic; build and use it under mpmath.workprec(bits)."""
    import mpmath

    return _Arith(num=mpmath.mpmathify, one=mpmath.mpf(1), exp=mpmath.exp,
                  sqrt=mpmath.sqrt, frexp=mpmath.frexp,
                  isfinite=mpmath.isfinite, pi=+mpmath.pi,
                  unit=mpmath.mpf(2) ** -bits,
                  tiny=mpmath.mpf("1e-60"))


# pi (3 - sqrt 5), which no difference j1/m1 - j2/m2 of fractions of a
# turn matches
_GOLDEN_ANGLE = math.pi * (3 - math.sqrt(5))


def _upper_hull(points):
    """Vertices of the upper convex hull of the points (k, y), k increasing."""
    hull = []
    for k, y in points:
        # drop the last vertex while it lies on or below the chord to (k, y)
        while len(hull) > 1:
            (k0, y0), (k1, y1) = hull[-2:]
            if (k1 - k0) * (y - y0) < (y1 - y0) * (k - k0):
                break
            hull.pop()
        hull.append((k, y))
    return hull


def _newton_starts(c, ar: _Arith):
    """Start points from the Newton polygon of log2|c_k| (c_0, c_n != 0).

    Each edge k1 -> k2 of the upper convex hull of the points (k, log2|c_k|)
    puts k2 - k1 points on a circle of radius 2^-slope, where those two terms
    balance, so roots spread over many decades start near their own moduli
    (Bini, Numer. Algorithms 13, 1996).  log2 comes from ar.frexp, so it
    holds for mpf values beyond the double range.
    """
    n = len(c) - 1
    hull = _upper_hull([(k, exp2 + math.log2(mant)) for k, (mant, exp2)
                        in enumerate(ar.frexp(abs(x)) for x in c) if mant])
    return _circle_starts([(k2 - k1, (abs(c[k1]) / abs(c[k2])) ** (ar.one / (k2 - k1)))
                           for (k1, _), (k2, _) in zip(hull, hull[1:])],
                          ar.pi / (2 * n), ar.pi, ar.exp)


def _circle_starts(edges, offset, pi, exp):
    """m points spaced evenly on a circle of the radius, turned by offset,
    for each Newton-polygon edge (m, radius), in the arithmetic of pi, exp.

    Two edges of nearly equal slope can round to one radius, and one offset
    would then put their j = 0 starts on one point, which Aberth never
    separates (two of the six starts of x^6 + x^2 + 1 - 2^-53).  So an edge
    on the circle of the one before turns by a further _GOLDEN_ANGLE.
    """
    z, last = [], None
    for m, radius in edges:
        if radius == last:
            offset += _GOLDEN_ANGLE
        last = radius
        z += [radius * exp(1j * (2 * pi * j / m + offset)) for j in range(m)]
    return z


def _quadratic_roots(c0, c1, c2, sqrt):
    """Stable closed form; a zero discriminant yields an exact double root.

    c0, c2 != 0 and max|c_k| >= 1 (in [1, 2) once normalised), so the
    larger of c1 +- sq, hence q, is never 0.
    """
    sq = sqrt(c1 * c1 - 4 * c2 * c0)
    q = -0.5 * (c1 + sq if (c1.conjugate() * sq).real >= 0 else c1 - sq)
    return [q / c2, c0 / q]


def _within_target(z, eps, a, b):
    """Whether h / |z| <= _TARGET for the h with a h + b h^2 / 2 = eps.

    eps is Horner's error bound at the root z, the most by which rounding
    moves p there, and a = |p'(z)|, b = |p''(z)|: h is how far that moves
    the root.  b keeps h finite at an exact double root, where a = 0 (the
    logistic saddle at s = 4 / lam^2).  Works elementwise on numpy arrays.
    """
    return 2 * eps <= _TARGET * abs(z) * (a + (a * a + 2 * b * eps) ** 0.5)


def _quadratic_ok(c0, c1, c2, z, unit):
    """_within_target for a root z of c0 + c1 x + c2 x^2 from the closed
    form, whose eps is 8 units of the terms; elementwise on arrays too."""
    eps = 8 * unit * (abs(c0) + abs(c1 * z) + abs(c2 * z * z))
    return _within_target(z, eps, abs(c1 + 2 * c2 * z), abs(2 * c2))


def _aberth(c, ar: _Arith, z):
    """Aberth-Ehrlich iteration on working numbers c from start points z.

    Returns the roots and, for each, whether it met Horner's error bound
    and, where it did, _TARGET (_within_target; the first-order estimate
    eps / |p'(z)| is never below its h, so p'' is evaluated only where that
    misses).  A root whose residual meets the bound still takes the step
    computed there before it is frozen; freezing it first costs accuracy at
    high degree (logistic H_128 leaves its 128-bit level 3e-9 off the
    Hermite nodes instead of 3e-11, and the 256-bit level starts from there).
    """
    n = len(c) - 1
    d = [k * c[k] for k in range(1, n + 1)]
    dd = [k * (k - 1) * c[k] for k in range(2, n + 1)]
    mags = [abs(x) for x in c]
    bound = 4 * n * ar.unit  # running-error bound of Horner, in units of sum|a_k||z|^k
    z = list(z)
    frozen = [False] * n
    settled = [False] * n

    for _ in range(MAX_SWEEPS):
        if all(frozen):
            break
        for i in range(n):
            if frozen[i]:
                continue
            zi = z[i]
            pv, dv = _horner(c, zi), _horner(d, zi)
            eps = bound * _horner(mags, abs(zi))
            if pv != 0:
                if dv == 0:
                    # deterministic nudge off the stationary point
                    z[i] = zi * ar.num("1.000000001") + ar.num("1e-9")
                    continue
                ratio = pv / dv
                s = 0
                for j in range(n):
                    if j != i:
                        dz = zi - z[j]
                        if dz == 0:
                            dz = ar.tiny
                        s += 1 / dz
                den = 1 - ratio * s
                z[i] = zi - (ratio if den == 0 else ratio / den)
            if abs(pv) <= eps:
                frozen[i] = True
                a = abs(dv)
                settled[i] = eps <= _TARGET * abs(zi) * a or _within_target(
                    zi, eps, a, abs(_horner(dd, zi)))
    return z, settled


def _level(coeffs, ar: _Arith, z):
    """One level of the solve, in ar's working type, started from z.

    coeffs has degree >= 1 and a nonzero constant term; z is None on the
    first level that runs, which starts from the Newton polygon.  Returns
    None where this level cannot hold the polynomial or its roots, else the
    roots and the residuals of those that miss _TARGET.
    """
    try:
        c = [ar.num(x) for x in coeffs]
    except OverflowError:  # an int or Fraction beyond the double range
        return None
    # Power-of-two normalisation to max|c_k| in [1, 2).  The exponent comes
    # from the working type: a float would overflow for an mpf beyond the
    # double range and leave c unscaled.
    scale = (2 * ar.one) ** (ar.frexp(max(map(abs, c)))[1] - 1)
    scaled = [x / scale for x in c]
    if len(c) <= 3 and scale > 1 and [x * scale for x in scaled] != c:
        # The scale changes no rounding unless, above 1, it rounds a double
        # into the subnormal range or to zero (1e300 x^2 + 1e-300 would gain
        # a double root at 0); the closed forms keep c then.
        scaled = c
    # Only doubles flush (2^-1100 -> 0.0), which would move the roots
    if any(x == 0 and y != 0 for x, y in zip(scaled, coeffs)):
        return None
    if len(c) == 2:  # its error estimate is 8 units at every level
        roots, settled = [-scaled[0] / scaled[1]], [True]
    elif len(c) == 3:
        c0, c1, c2 = scaled
        roots = _quadratic_roots(c0, c1, c2, ar.sqrt)
        settled = [_quadratic_ok(c0, c1, c2, r, ar.unit) for r in roots]
    else:
        z = _newton_starts(scaled, ar) if z is None else [ar.num(x) for x in z]
        if not all(map(ar.isfinite, z)):  # a radius beyond the double range
            return None
        roots, settled = _aberth(scaled, ar, z)
    if not all(map(ar.isfinite, roots)):
        return None
    # the residuals of the roots that miss, in the caller's units
    return roots, [float(abs(_horner(scaled, r)) * scale)
                   for r, ok in zip(roots, settled) if not ok]


def _to_double(r) -> complex:
    out = complex(r)
    if not cmath.isfinite(out):
        import mpmath

        mant, exp2 = mpmath.frexp(abs(r))
        decades = math.log10(mant) + exp2 * math.log10(2)
        raise DomainError(
            f"a root of modulus about 1e{round(decades)} is not finite as a double")
    return out


def _solve(coeffs) -> list:
    """Roots of a polynomial of degree >= 1 with nonzero constant term."""
    z = None
    for bits in _LEVELS:
        if bits == 53:
            out = _level(coeffs, _DOUBLE, z)
        else:
            import mpmath

            with MP_LOCK, mpmath.workprec(bits):
                out = _level(coeffs, _mp_arith(bits), z)
        if out is not None:
            z, missed = out
            if not missed:
                return [_to_double(r) for r in z]
    raise NonConvergence(
        f"{len(missed)} of {len(z)} roots did not reach relative error 2^-40 "
        f"in {MAX_SWEEPS} sweeps at {_LEVELS[-1]} bits "
        f"(worst residual {max(missed):.3e})",
        worst_residual=max(missed),
    )


def poly_roots(p: Polynomial) -> list:
    """All `degree` roots of p, with multiplicity, deterministically ordered.

    Exact zero trailing coefficients are peeled off as roots at the origin
    before the rest are solved for, at the working precision each needs.  A
    NaN or infinite coefficient, or a root that is not finite as a double,
    raises DomainError; a root that misses the error target at every level
    raises NonConvergence.
    """
    coeffs = list(p.coeffs)
    if len(coeffs) == 1:
        raise DegreeZero("constant polynomial has no roots to solve for")
    for k, c in enumerate(coeffs):
        if c != c or abs(c) == math.inf:
            raise DomainError(f"coefficient a_{k} = {c!r} is not finite")

    roots = []
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(0j)
        coeffs.pop(0)

    if len(coeffs) > 1:
        roots += _solve(coeffs)

    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


def _horner_rows(c, z):
    """Row i of c (m, k) evaluated at each point of row i of z (m, n).

    Every operation is elementwise, so a row's values do not depend on the
    other rows it is solved with.
    """
    return _horner(list(c.T[:, :, None]), z)


def _companion_starts(c):
    """Eigenvalues of the companion matrix of each row of c (m, n + 1).

    A row whose companion matrix is not finite (c_n tiny against the rest)
    gets NaN starts.
    """
    import numpy as np

    m, n = c.shape[0], c.shape[1] - 1
    comp = np.zeros((m, n, n), dtype=complex)
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -c[:, :-1] / c[:, -1:]
    z = np.full((m, n), np.nan, dtype=complex)
    finite = np.isfinite(comp[:, :, -1]).all(axis=1)
    z[finite] = np.linalg.eigvals(comp[finite])
    return z


def _horner_step(c):
    """_batch_aberth's evaluator for the coefficient rows c (m, n + 1)."""
    import numpy as np

    n = c.shape[1] - 1
    d = c[:, 1:] * np.arange(1, n + 1)
    dd = d[:, 1:] * np.arange(1, n)
    mags = np.abs(c)
    bound = 4 * n * _DOUBLE.unit

    def evaluate(rows, zr):
        pv, dv = _horner_rows(c[rows], zr), _horner_rows(d[rows], zr)
        eps = bound * _horner_rows(mags[rows], np.abs(zr))
        settled = _within_target(zr, eps, np.abs(dv),
                                 np.abs(_horner_rows(dd[rows], zr)))
        return np.where(pv == 0, 0, pv / dv), np.abs(pv) <= eps, settled
    return evaluate


def _batch_aberth(evaluate, z):
    """Aberth sweeps on the roots z (m, n) of m polynomials at once, in doubles.

    evaluate(rows, zr) gives each root's Newton correction (0 where p = 0),
    whether it may freeze and whether it is good there (for _horner_step:
    Horner's bound and _TARGET).  The Jacobi form of _aberth: each sweep steps
    every unfrozen root from the roots of the sweep before, and a root
    freezes after that step.  The sums of 1/(z_i - z_j) run over j in turn,
    built in blocks of about _BATCH_ENTRIES entries.  Returns the roots and,
    per row, whether every root froze within MAX_SWEEPS, stayed finite and
    was good where it froze.
    """
    import numpy as np

    n = z.shape[1]
    good = np.isfinite(z).all(axis=1)
    active = np.repeat(good[:, None], n, axis=1)
    for _ in range(MAX_SWEEPS):
        rows = np.flatnonzero(active.any(axis=1))
        if rows.size == 0:
            break
        zr, act = z[rows], active[rows]
        ratio, near, settled = evaluate(rows, zr)
        width = max(1, _BATCH_ENTRIES // (rows.size * n))  # columns per block
        total = None
        for lo in range(0, n, width):
            diff = zr[:, :, None] - zr[:, None, lo:lo + width]
            diff[diff == 0] = _DOUBLE.tiny
            inv = 1 / diff
            cols = np.arange(lo, min(n, lo + width))
            inv[:, cols, cols - lo] = 0
            for j in range(inv.shape[2]):
                total = inv[:, :, j] if total is None else total + inv[:, :, j]
        step = np.where(ratio == 0, 0, ratio / (1 - ratio * total))
        frozen = act & near
        z[rows] = zr = np.where(act, zr - step, zr)
        good[rows] &= np.isfinite(zr).all(axis=1) & ~(frozen & ~settled).any(axis=1)
        active[rows] = act & ~frozen & good[rows, None]
    return z, good & ~active.any(axis=1)


def _batch_level(coeffs):
    """53-bit roots of the rows of coeffs (m, n + 1), each row sorted like
    poly_roots, and whether each row passed: finite coefficients, c_0 and
    c_n nonzero, an exact power-of-two normalisation, and every root finite,
    within Horner's bound and _TARGET.
    """
    import numpy as np

    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    roots = np.full((m, n), np.nan, dtype=complex)
    ok = np.zeros(m, dtype=bool)
    if n < 1:
        return roots, ok
    with np.errstate(all="ignore"):
        scale = np.ldexp(1.0, np.frexp(np.abs(coeffs).max(axis=1))[1] - 1)[:, None]
        c = (coeffs / scale).astype(complex)
        rows = np.flatnonzero(np.isfinite(coeffs).all(axis=1)
                              & (c[:, 0] != 0) & (c[:, -1] != 0)
                              & (c * scale == coeffs).all(axis=1))
        c = c[rows]
        if n == 1:  # its error estimate is 8 units
            z, good = -c[:, :1] / c[:, 1:], np.ones(len(rows), dtype=bool)
        elif n == 2:  # _quadratic_roots on every row
            c0, c1, c2 = c[:, :1], c[:, 1:2], c[:, 2:]
            sq = np.sqrt(c1 * c1 - 4 * c2 * c0)
            q = -0.5 * np.where((c1.conj() * sq).real >= 0, c1 + sq, c1 - sq)
            z = np.hstack([q / c2, c0 / q])
            good = _quadratic_ok(c0, c1, c2, z, _DOUBLE.unit).all(axis=1)
        else:
            z, good = _batch_aberth(_horner_step(c), _companion_starts(c))
        good &= np.isfinite(z).all(axis=1)
    order = np.lexsort((z.imag, z.real), axis=-1)
    roots[rows] = np.take_along_axis(z, order, axis=-1)
    ok[rows] = good
    return roots, ok


def poly_roots_batch(coeffs) -> np.ndarray:
    """The roots of every row of an (m, n + 1) array of ascending coefficients.

    Returns an (m, n) complex array; row i holds the roots of row i, sorted
    like poly_roots.  Each row is normalised by its own power of two and
    solved in doubles, degrees 1 and 2 in closed form and higher degrees by
    Aberth sweeps over the whole block from the eigenvalues of the companion
    matrices, with the freeze rule and _TARGET of the scalar solve.  A row
    that misses either, or that has a zero c_0 or c_n or a non-finite
    coefficient, is solved by poly_roots instead, which climbs in precision
    or raises as it does for one polynomial; where its c_n is 0 it has fewer
    roots and the rest of its row is NaN.  Rows go through in blocks of
    about _BATCH_ENTRIES / n^2, and a row's result does not depend on the
    rows it is solved with.
    """
    import numpy as np

    coeffs = np.asarray(coeffs)
    m, n = coeffs.shape[0], coeffs.shape[1] - 1
    out = np.full((m, n), np.nan, dtype=complex)
    size = max(1, _BATCH_ENTRIES // max(1, n * n))
    for lo in range(0, m, size):
        block = coeffs[lo:lo + size]
        roots, ok = _batch_level(block)
        out[lo:lo + size][ok] = roots[ok]
        for i in np.flatnonzero(~ok):
            r = poly_roots(Polynomial(block[i].tolist()))
            out[lo + i, :len(r)] = r
    return out


def real_zeros(roots) -> list:
    """Roots that lie on the real axis up to _REAL_AXIS_TOL, sorted."""
    out = [r.real for r in roots
           if abs(r.imag) <= _REAL_AXIS_TOL * (1.0 + abs(r.real))]
    out.sort()
    return out
