"""Dense univariate polynomials and simultaneous-iteration root finding.

Coefficients are stored ascending (coeffs[k] multiplies x^k) and may be
ints, Fractions, floats or complex; exact coefficient types survive
arithmetic and evaluation, which lets callers generate polynomials in
exact rational arithmetic and only round when solving for roots.

Roots are found with the Aberth-Ehrlich simultaneous iteration.  One
iteration runs over one of two number types: Python complex at
precision_bits == 53, or mpmath at higher precision (needed for
high-degree polynomials whose monomial-basis conditioning is poor).  It
starts from the Newton polygon of log2|a_k|, one circle per hull edge
(_newton_starts).  Above 53 bits it first solves a double copy of the
polynomial the same way, then polishes those roots in mpmath; the polygon
of the mpmath copy is the fallback when the double copy cannot stand in
for the polynomial.

One rule decides every root at every precision: a root is frozen once its
residual is within the running-error bound of Horner's rule,
|p(z)| <= 4 n u sum|a_k||z|^k with u = 2^-bits (Bini & Fiorentino's
stopping rule in MPSolve).  The iteration stops when every root is frozen,
and a root still unfrozen after MAX_SWEEPS sweeps raises NonConvergence.
The bound is relative to the terms of p at z, so tiny roots are judged
like any others.  A root beyond the double range is an error.  Degrees 1
and 2 use closed forms in the same types.  All three work on the
coefficients divided by the power of two that brings the largest into
[1, 2), which keeps the closed forms' products inside the double range;
the closed forms keep the caller's coefficients where that division would
round one of them.  At 53 bits a nonzero coefficient that becomes 0 as a
double, on conversion or by that division, is an error above degree 1.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import mpmath

from .errors import CoefficientOverflow, DegreeZero, DomainError, NonConvergence

# mpmath's working precision is process-global state; hold this lock around
# any block that changes it so that concurrent library callers stay correct.
MP_LOCK = threading.Lock()

MAX_SWEEPS = 400  # Aberth sweeps before an unfrozen root is NonConvergence
_REAL_AXIS_TOL = 1e-8  # |Im z| <= tol (1 + |Re z|) counts as real

__all__ = [
    "Polynomial",
    "poly_eval",
    "poly_derivative",
    "poly_roots",
    "real_zeros",
]


def _is_zero(c) -> bool:
    return c == 0


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and _is_zero(coeffs[-1]):
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
        return poly_eval(self, x)

    def derivative(self) -> "Polynomial":
        return poly_derivative(self)


def _horner(coeffs, x):
    """Horner evaluation of ascending coeffs; the result type follows the operands."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_eval(p: Polynomial, x):
    return _horner(p.coeffs, x)


def poly_derivative(p: Polynomial) -> Polynomial:
    if p.degree == 0:
        return Polynomial([0])
    return Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])


@dataclass(frozen=True)
class _Arith:
    """The number type one root solve works in.

    _DOUBLE serves 53-bit solves and the seeds of wider ones; _mp_arith(bits)
    polishes those seeds.
    """

    num: Callable[[Any], Any]   # coefficient (or numeric string) -> working number
    one: Any
    exp: Callable
    sqrt: Callable
    frexp: Callable  # (mantissa, exponent) computed in the working type
    pi: Any
    unit: Any   # a root freezes once |p(z)| <= 4*n*unit*sum|a_k||z|^k
    tiny: Any   # stand-in for z_i - z_j == 0


def _to_complex(c) -> complex:
    try:
        return complex(c)
    except OverflowError:  # an int or Fraction beyond the double range
        raise CoefficientOverflow(
            remedy="a higher --precision-bits (precision_bits > 53) "
                   "solves in mpmath instead") from None


def _to_mp(c):
    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    if isinstance(c, complex):
        return mpmath.mpc(c.real, c.imag)
    return mpmath.mpf(c)


_DOUBLE = _Arith(num=_to_complex, one=1.0, exp=cmath.exp, sqrt=cmath.sqrt,
                 frexp=math.frexp, pi=math.pi, unit=2.0 ** -53, tiny=1e-30)


def _mp_arith(bits: int) -> _Arith:
    """mpmath arithmetic; build and use it under mpmath.workprec(bits)."""
    return _Arith(num=_to_mp, one=mpmath.mpf(1), exp=mpmath.exp,
                  sqrt=mpmath.sqrt, frexp=mpmath.frexp, pi=+mpmath.pi,
                  unit=mpmath.mpf(2) ** -bits,
                  tiny=mpmath.mpf("1e-60"))


def _newton_starts(c, ar: _Arith):
    """Start points from the Newton polygon of log2|c_k| (c_0, c_n != 0).

    Each edge k1 -> k2 of the upper convex hull of the points (k, log2|c_k|)
    puts k2 - k1 points on a circle of radius 2^-slope, where those two terms
    balance, so roots spread over many decades start near their own moduli
    (Bini, Numer. Algorithms 13, 1996).  log2 comes from ar.frexp, so it
    holds for mpf values beyond the double range.
    """
    n = len(c) - 1
    hull = []  # vertices (k, log2|c_k|), left to right
    for k, x in enumerate(c):
        if x == 0:
            continue
        mant, exp2 = ar.frexp(abs(x))
        y = exp2 + math.log2(mant)
        # drop the last vertex while it lies on or below the chord to (k, y)
        while len(hull) > 1:
            (k0, y0), (k1, y1) = hull[-2:]
            if (k1 - k0) * (y - y0) < (y1 - y0) * (k - k0):
                break
            hull.pop()
        hull.append((k, y))
    offset = ar.pi / (2 * n)
    z = []
    for (k1, _), (k2, _) in zip(hull, hull[1:]):
        m = k2 - k1
        radius = (abs(c[k1]) / abs(c[k2])) ** (ar.one / m)
        z += [radius * ar.exp(1j * (2 * ar.pi * j / m + offset)) for j in range(m)]
    return z


def _quadratic(c0, c1, c2, sqrt):
    """Stable closed form; a zero discriminant yields an exact double root."""
    sq = sqrt(c1 * c1 - 4 * c2 * c0)
    q = -0.5 * (c1 + sq if (c1.conjugate() * sq).real >= 0 else c1 - sq)
    if q == 0:
        return [0j, 0j]
    return [q / c2, c0 / q]


def _aberth(c, ar: _Arith, z):
    """Aberth-Ehrlich iteration on working numbers c from start points z.

    Returns the roots and, for each, whether it met Horner's error bound.
    A root whose residual meets the bound still takes the step computed
    there before it is frozen; freezing it first costs accuracy at high
    degree (H_128 at 128 bits: 2e-9 relative error instead of 3e-11).
    """
    n = len(c) - 1
    d = [k * c[k] for k in range(1, n + 1)]
    mags = [abs(x) for x in c]
    bound = 4 * n * ar.unit  # running-error bound of Horner, in units of sum|a_k||z|^k
    z = list(z)
    frozen = [False] * n

    for _ in range(MAX_SWEEPS):
        if all(frozen):
            break
        for i in range(n):
            if frozen[i]:
                continue
            zi = z[i]
            pv = _horner(c, zi)
            if pv == 0:
                frozen[i] = True
                continue
            dv = _horner(d, zi)
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
            frozen[i] = abs(pv) <= bound * _horner(mags, abs(zi))
    return z, frozen


def _double_seeds(c):
    """53-bit Aberth roots of c (max|c_k| in [1, 2)), or None where the
    double copy of c cannot stand in for it.

    After that normalisation no coefficient overflows a double; small ones
    may underflow, and a leading or constant one that underflows to 0
    leaves a different polynomial.  Seeds need not meet the 53-bit error
    bound; the polish decides.
    """
    cd = [complex(x) for x in c]
    if cd[-1] == 0 or cd[0] == 0:
        return None
    z, _ = _aberth(cd, _DOUBLE, _newton_starts(cd, _DOUBLE))
    if not all(cmath.isfinite(x) for x in z):
        return None
    return z


def _aberth_roots(c, ar: _Arith, scale) -> list:
    """Aberth roots of working numbers c, each within Horner's error bound.

    c is the caller's polynomial divided by scale.  Above 53 bits a
    double-precision solve supplies the start points and the working type
    only polishes them; the Newton polygon of c is the fallback.
    """
    seeds = None if ar is _DOUBLE else _double_seeds(c)
    z, frozen = _aberth(c, ar, _newton_starts(c, ar) if seeds is None
                        else map(ar.num, seeds))
    if not all(frozen):
        # in the caller's units, not the scaled ones
        worst = float(max(abs(_horner(c, zi)) for zi, done in zip(z, frozen)
                          if not done) * scale)
        raise NonConvergence(
            f"{frozen.count(False)} of {len(z)} Aberth roots did not meet "
            f"Horner's error bound in {MAX_SWEEPS} sweeps "
            f"(worst residual {worst:.3e})",
            worst_residual=worst,
        )
    return z


def _solve(coeffs, ar: _Arith) -> list:
    """Roots of a polynomial of degree >= 1 with nonzero constant term."""
    c = [ar.num(x) for x in coeffs]
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
    # Only doubles flush (2^-1100 -> 0.0); a linear root that small is 0 anyway
    if len(c) > 2 and any(x == 0 and y != 0 for x, y in zip(scaled, coeffs)):
        raise DomainError(
            "a coefficient underflows to 0 as a double; "
            "a higher --precision-bits (precision_bits > 53) keeps it")
    roots = ([-scaled[0] / scaled[1]] if len(c) == 2 else
             _quadratic(*scaled, ar.sqrt) if len(c) == 3 else
             _aberth_roots(scaled, ar, scale))
    out = [complex(r) for r in roots]
    for r, o in zip(roots, out):
        if not cmath.isfinite(o):
            mant, exp2 = ar.frexp(abs(r))
            size = ""
            if 0 < mant < 1:  # finite in the working type
                decades = math.log10(mant) + exp2 * math.log10(2)
                size = f" of modulus about 1e{round(decades)}"
            raise DomainError(f"a root{size} is not finite as a double")
    return out


def poly_roots(p: Polynomial, precision_bits: int = 53) -> list:
    """All `degree` roots of p, with multiplicity, deterministically ordered.

    precision_bits (>= 53) is the working precision.  Exact zero trailing
    coefficients are peeled off as roots at the origin before the rest are
    solved for.  At 53 bits a coefficient beyond the double range raises
    CoefficientOverflow, and one that underflows to 0 DomainError; at any
    precision a root that is not finite as a double raises DomainError.
    """
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    coeffs = list(p.coeffs)
    if len(coeffs) == 1:
        raise DegreeZero("constant polynomial has no roots to solve for")

    roots = []
    while len(coeffs) > 1 and _is_zero(coeffs[0]):
        roots.append(0j)
        coeffs.pop(0)

    if len(coeffs) > 1:
        if precision_bits == 53:
            roots += _solve(coeffs, _DOUBLE)
        else:
            with MP_LOCK, mpmath.workprec(precision_bits):
                roots += _solve(coeffs, _mp_arith(precision_bits))

    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


def real_zeros(roots) -> list:
    """Roots that lie on the real axis up to _REAL_AXIS_TOL, sorted."""
    out = [r.real for r in roots
           if abs(r.imag) <= _REAL_AXIS_TOL * (1.0 + abs(r.real))]
    out.sort()
    return out
