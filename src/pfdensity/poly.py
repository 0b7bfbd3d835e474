"""Dense univariate polynomials and simultaneous-iteration root finding.

Coefficients are stored ascending (coeffs[k] multiplies x^k) and may be
ints, Fractions, floats or complex; exact coefficient types survive
arithmetic and evaluation, which lets callers generate polynomials in
exact rational arithmetic and only round when solving for roots.

Roots are found with the Aberth-Ehrlich simultaneous iteration.  One
iteration runs over one of two number types: Python complex at
cfg.precision_bits == 53, or mpmath at higher precision (needed for
high-degree polynomials whose monomial-basis conditioning is poor).  At 53
bits it starts from points equally spaced on a circle bounding the root
moduli (the tighter of the Cauchy and Fujiwara bounds).  Above 53 bits it
first solves a double copy of the polynomial the same way, then polishes
those roots in mpmath; the circle is the fallback when the double copy
cannot stand in for the polynomial.

One rule decides every root at every precision: a root is frozen once its
residual is within the running-error bound of Horner's rule,
|p(z)| <= 4 n u sum|a_k||z|^k with u = 2^-bits (Bini & Fiorentino's
stopping rule in MPSolve).  The iteration stops when every root is frozen,
and a root still unfrozen after cfg.max_iterations sweeps raises
NonConvergence.  The bound is relative to the terms of p at z, so tiny
roots are judged like any others.  A root beyond the double range is an
error.  Degrees 1 and 2 use closed forms in the same types.  All three work
on the coefficients divided by the power of two that brings the largest
into [1, 2), which keeps the closed forms' products inside the double
range; the closed forms keep the caller's coefficients where that division
would round one of them, and at 53 bits Aberth refuses a coefficient that
it would flush to zero.
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

__all__ = [
    "Polynomial",
    "RootConfig",
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


@dataclass(frozen=True)
class RootConfig:
    max_iterations: int = 400
    precision_bits: int = 53
    real_axis_tol: float = 1e-8

    def __post_init__(self):
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")


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


def _start_radius(mags, one):
    """Initial circle radius: min of the Cauchy and Fujiwara root bounds.

    The Cauchy bound 1 + max|a_k/a_n| explodes when the leading coefficient
    is small against the rest (factorially-growing chains); Fujiwara's
    2 max_k |a_{n-k}/a_n|^(1/k) stays within a factor 2 of the largest root.
    """
    n = len(mags) - 1
    an = mags[-1]
    cauchy = one + max(mags[:-1]) / an
    fuji = 0
    for k in range(1, n + 1):
        m = mags[n - k] / (an if k < n else 2 * an)
        if m > 0:
            fuji = max(fuji, m ** (one / k))
    fuji *= 2
    if fuji == 0:
        return min(cauchy, one)
    return min(cauchy, fuji)


def _circle(c, ar: _Arith):
    """Start points equally spaced on a circle bounding the root moduli."""
    n = len(c) - 1
    radius = _start_radius([abs(x) for x in c], ar.one)
    offset = ar.pi / (2 * n)
    return [radius * ar.exp(1j * (2 * ar.pi * k / n + offset)) for k in range(n)]


def _quadratic(c0, c1, c2, sqrt):
    """Stable closed form; a zero discriminant yields an exact double root."""
    sq = sqrt(c1 * c1 - 4 * c2 * c0)
    q = -0.5 * (c1 + sq if (c1.conjugate() * sq).real >= 0 else c1 - sq)
    if q == 0:
        return [0j, 0j]
    return [q / c2, c0 / q]


def _aberth(c, ar: _Arith, z, max_iterations):
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

    for _ in range(max_iterations):
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


def _double_seeds(c, max_iterations):
    """53-bit Aberth roots of c (max|c_k| in [1, 2)), or None where the
    double copy of c cannot stand in for it.

    After that normalisation no coefficient overflows a double; small ones
    may underflow, and a leading one that underflows to 0 leaves no
    polynomial of the same degree to solve.  Seeds need not meet the
    53-bit error bound; the polish decides.
    """
    cd = [complex(x) for x in c]
    if cd[-1] == 0:
        return None
    z, _ = _aberth(cd, _DOUBLE, _circle(cd, _DOUBLE), max_iterations)
    if not all(cmath.isfinite(x) for x in z):
        return None
    return z


def _aberth_roots(c, ar: _Arith, cfg: RootConfig, scale) -> list:
    """Aberth roots of working numbers c, each within Horner's error bound.

    c is the caller's polynomial divided by scale.  Above 53 bits a
    double-precision solve supplies the start points and the working type
    only polishes them; the circle is the fallback.
    """
    seeds = None if ar is _DOUBLE else _double_seeds(c, cfg.max_iterations)
    z, frozen = _aberth(c, ar, _circle(c, ar) if seeds is None
                        else map(ar.num, seeds), cfg.max_iterations)
    if not all(frozen):
        # in the caller's units, not the scaled ones
        worst = float(max(abs(_horner(c, zi)) for zi, done in zip(z, frozen)
                          if not done) * scale)
        raise NonConvergence(
            f"{frozen.count(False)} of {len(z)} Aberth roots did not meet "
            f"Horner's error bound in {cfg.max_iterations} sweeps "
            f"(worst residual {worst:.3e})",
            worst_residual=worst,
        )
    return z


def _solve(coeffs, ar: _Arith, cfg: RootConfig) -> list:
    """Roots of a polynomial of degree >= 1 with nonzero constant term."""
    c = [ar.num(x) for x in coeffs]
    # Power-of-two normalisation to max|c_k| in [1, 2).  The exponent comes
    # from the working type: a float would overflow for an mpf beyond the
    # double range and leave c unscaled.
    scale = (2 * ar.one) ** (ar.frexp(max(map(abs, c)))[1] - 1)
    scaled = [x / scale for x in c]
    if len(c) > 3:
        if any(x == 0 and y != 0 for x, y in zip(scaled, c)):
            raise DomainError(
                "a coefficient underflows to 0 when scaled to the largest; "
                "a higher --precision-bits (precision_bits > 53) keeps it")
        roots = _aberth_roots(scaled, ar, cfg, scale)
    else:
        # The scale changes no rounding unless, above 1, it rounds a double
        # into the subnormal range or to zero (1e300 x^2 + 1e-300 would gain
        # a double root at 0); keep c then.
        if scale <= 1 or [x * scale for x in scaled] == c:
            c = scaled
        roots = [-c[0] / c[1]] if len(c) == 2 else _quadratic(*c, ar.sqrt)
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


def poly_roots(p: Polynomial, cfg: RootConfig = RootConfig()) -> list:
    """All `degree` roots of p, with multiplicity, deterministically ordered.

    Exact zero trailing coefficients are peeled off as roots at the origin
    before the rest are solved for.  At 53 bits a coefficient beyond the
    double range raises CoefficientOverflow; at any precision a root that
    is not finite as a double raises DomainError.
    """
    coeffs = list(p.coeffs)
    if len(coeffs) == 1:
        raise DegreeZero("constant polynomial has no roots to solve for")

    roots = []
    while len(coeffs) > 1 and _is_zero(coeffs[0]):
        roots.append(0j)
        coeffs.pop(0)

    if len(coeffs) > 1:
        if cfg.precision_bits == 53:
            roots += _solve(coeffs, _DOUBLE, cfg)
        else:
            with MP_LOCK, mpmath.workprec(cfg.precision_bits):
                roots += _solve(coeffs, _mp_arith(cfg.precision_bits), cfg)

    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


def real_zeros(roots, cfg: RootConfig = RootConfig()) -> list:
    """Roots that lie on the real axis up to cfg.real_axis_tol, sorted."""
    out = [r.real for r in roots
           if abs(r.imag) <= cfg.real_axis_tol * (1.0 + abs(r.real))]
    out.sort()
    return out
