"""Steepest-descent analysis of gamma(a) = s*f(a) - ln(a) for 1-D maps.

The critical points solve s*a*f'(a) - 1 = 0.  When the critical point of
maximal Re(gamma) is complex, it carries the asymptotic density of real
zeros, q(s) = |Im f(a_c)| / pi; when it is real it dominates every
oscillatory contribution and q = 0.  The invariant density p(s) = -s dq/ds
follows from the same saddle: differentiating the critical-point equation
gives da_c/ds, hence dq/ds, in closed form, so p costs one root solve.
Closed forms for the logistic family serve as oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import mpmath

from .bell import MapSpec1D
from .errors import DomainError
from .poly import MP_LOCK, Polynomial, _horner, poly_roots

__all__ = [
    "SaddleProblem",
    "SaddleResult",
    "critical_polynomial",
    "critical_points",
    "analyze",
    "zero_density_q",
    "logistic_closed_q",
    "logistic_closed_p",
    "logistic_p_mass",
    "invariant_density_p",
    "wigner_change_of_variables",
]

_IMAG_CUTOFF = 1e-10  # below this, a critical point counts as real


@dataclass(frozen=True)
class SaddleProblem:
    f: MapSpec1D
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and self.s > 0):
            raise ValueError("s must be finite and positive")


@dataclass(frozen=True)
class SaddleResult:
    critical_points: tuple
    residuals: tuple
    selected: Optional[int]
    gamma_real: Optional[float]
    q_value: float


def critical_polynomial(prob: SaddleProblem) -> Polynomial:
    """s*a*f'(a) - 1 as a dense polynomial in a."""
    fc = prob.f.coeffs
    # a*f'(a) has coefficient k*fc[k] on a^k
    coeffs = [k * c * prob.s for k, c in enumerate(fc)]
    coeffs[0] = -1.0
    return Polynomial(coeffs)


def critical_points(prob: SaddleProblem) -> list:
    return poly_roots(critical_polynomial(prob))


def _gamma(prob: SaddleProblem, a: complex) -> complex:
    return prob.s * prob.f(a) - cmath.log(a)


def analyze(prob: SaddleProblem) -> SaddleResult:
    """Locate critical points, select the dominant one if complex, report q."""
    points = critical_points(prob)
    cp = critical_polynomial(prob)
    residuals = tuple(abs(cp(a)) for a in points)

    # conjugates tie on Re(gamma); a real point in the lead means no saddle
    best = max(range(len(points)),
               key=lambda i: (_gamma(prob, points[i]).real, points[i].imag))
    if abs(points[best].imag) <= _IMAG_CUTOFF:
        return SaddleResult(tuple(points), residuals, None, None, 0.0)

    a_sel = points[best]
    gamma_real = _gamma(prob, a_sel).real
    q = abs(prob.f(a_sel).imag) / math.pi
    return SaddleResult(tuple(points), residuals, best, gamma_real, q)


def zero_density_q(prob: SaddleProblem) -> float:
    return analyze(prob).q_value


def logistic_closed_q(lam: float, s: float) -> float:
    """(lam/2pi) sqrt(1/s - lam^2/4) on (0, 4/lam^2), 0 outside."""
    if s <= 0.0:
        return 0.0
    radicand = 1.0 / s - lam * lam / 4.0
    if radicand <= 0.0:
        return 0.0
    return lam / (2.0 * math.pi) * math.sqrt(radicand)


def logistic_closed_p(lam: float, s: float, normalized: bool = False) -> float:
    """Raw closed-form invariant density lam / (2 pi sqrt(4s - s^2 lam^2)).

    The raw formula integrates to 1/2 over its support (0, 4/lam^2);
    normalized=True doubles it to unit mass.
    """
    radicand = 4.0 * s - s * s * lam * lam
    if radicand <= 0.0:
        return 0.0
    value = lam / (2.0 * math.pi * math.sqrt(radicand))
    return 2.0 * value if normalized else value


def logistic_p_mass(lam: float) -> float:
    """Integral of the raw closed-form p over its support (tanh-sinh quadrature)."""
    hi = 4.0 / (lam * lam)
    with MP_LOCK, mpmath.workdps(30):
        val = mpmath.quad(
            lambda s: lam / (2 * mpmath.pi * mpmath.sqrt(4 * s - s**2 * lam**2)),
            [0, hi],
        )
    return float(val)


def invariant_density_p(prob: SaddleProblem) -> float:
    """p(s) = -s q'(s) from the selected saddle a_c, in closed form.

    Differentiating s*a*f'(a) = 1 in s gives
    a' = -1 / (s^2 (f'(a_c) + a_c f''(a_c))), and q = |Im f(a_c)| / pi gives
    q' = sign(Im f(a_c)) Im(f'(a_c) a') / pi.  p = 0 where q = 0.
    """
    res = analyze(prob)
    if res.selected is None:
        return 0.0
    a = res.critical_points[res.selected]
    fc = prob.f.coeffs
    slope = _horner([k * c for k, c in enumerate(fc)][1:], a)  # f'(a)
    curvature = _horner([k * k * c for k, c in enumerate(fc)][1:], a)  # f' + a f''
    da = -1.0 / (prob.s * prob.s * curvature)
    sign = math.copysign(1.0, prob.f(a).imag)
    return -prob.s * sign * (slope * da).imag / math.pi


def wigner_change_of_variables(lam: float, s: float) -> tuple:
    """Map s to the semicircle variable: t = lam*sqrt(s)/2, w = q(s)*ds/dt.

    Analytically w = (2/pi) sqrt(1 - t^2); the returned w is computed from
    the closed-form q so tests can check the identity independently.
    """
    if not (0.0 < s <= 4.0 / (lam * lam)):
        raise DomainError(f"s={s!r} outside (0, 4/lam^2]")
    t = lam * math.sqrt(s) / 2.0
    ds_dt = 8.0 * t / (lam * lam)
    w = logistic_closed_q(lam, s) * ds_dt
    return t, w
