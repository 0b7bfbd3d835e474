"""Steepest-descent analysis of gamma(a) = s*f(a) - ln(a) for 1-D maps.

The critical points solve s*a*f'(a) - 1 = 0.  When the critical point of
maximal Re(gamma) is complex, it carries the asymptotic density of real
zeros, q(s) = |Im f(a_c)| / pi; when it is real it dominates every
oscillatory contribution and q = 0.  The invariant density p(s) = -s dq/ds
follows from the same saddle: differentiating the critical-point equation
gives da_c/ds, hence dq/ds, in closed form, so p costs no further solve.
Closed forms for the logistic family serve as oracles.

saddle_sweep does the whole analysis for an array of s: the critical
polynomials of the grid are one (m, deg f + 1) array that
poly.poly_roots_batch solves at once, and the selection, q and p are array
operations.  The one-point functions (analyze, zero_density_q,
invariant_density_p) are one-element sweeps, so there is one selection
rule.  The choice of root solver follows what the caller holds: a grid
of polynomials of one degree takes the batched 53-bit kernel, and a single
polynomial, such as a chain H_n, keeps the scalar poly_roots.  A batch of
one costs 270-370 us against 65-85 us for a cubic, and companion starts
slow the high-precision polish of logistic H_128 from 1.7-2.1 s to 3.1 s
(measured as in the poly module).  So a one-point call here costs more
than it did with one scalar solve per point: about 150 us against 30 us
for a logistic point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from .bell import MapSpec1D
from .errors import DomainError
from .poly import MP_LOCK, Polynomial, _horner, poly_roots_batch

__all__ = [
    "SaddleProblem",
    "SaddleResult",
    "SaddleSweep",
    "saddle_sweep",
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

_IMAG_CUTOFF = 1e-10  # |Im a| <= cutoff |a|: the critical point a counts as real


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
    return list(analyze(prob).critical_points)


@dataclass(frozen=True)
class SaddleSweep:
    """The saddle analysis on a grid of s; entry or row i belongs to s[i]."""

    points: np.ndarray      # (m, n) critical points, each row sorted by (Re, Im)
    selected: np.ndarray    # (m,) index of the saddle in its row, -1 where q = 0
    gamma_real: np.ndarray  # (m,) Re gamma at the saddle, NaN where there is none
    q: np.ndarray           # (m,) zero density
    p: np.ndarray           # (m,) invariant density -s q'(s)


def saddle_sweep(f: MapSpec1D, s) -> SaddleSweep:
    """Critical points, saddle, q and p of f at every s of a 1-D array.

    The saddle is the critical point of largest (Re gamma, Im a), which
    breaks the tie between conjugates; where it is real (|Im a| <= 1e-10 |a|)
    q = p = 0.  Differentiating s*a*f'(a) = 1 in s gives
    a' = -1 / (s^2 (f'(a_c) + a_c f''(a_c))), and q = |Im f(a_c)| / pi gives
    q' = sign(Im f(a_c)) Im(f'(a_c) a') / pi, so p = -s q' in closed form.
    """
    s = np.asarray(s, dtype=float)
    if not (np.isfinite(s) & (s > 0)).all():
        raise ValueError("s must be finite and positive")
    fc = f.coeffs
    kc = [k * c for k, c in enumerate(fc)]  # a*f'(a) has k*fc[k] on a^k
    while len(kc) > 1 and kc[-1] == 0:
        kc.pop()
    crit = s[:, None] * np.array(kc)
    crit[:, 0] = -1.0
    points = poly_roots_batch(crit)

    rows = np.arange(len(s))
    with np.errstate(all="ignore"):
        fa = _horner(fc, points)
        gamma = (s[:, None] * fa - np.log(points)).real
        # a NaN entry (a row with fewer points) never leads
        gamma = np.where(np.isnan(gamma), -np.inf, gamma)
        lead = gamma == gamma.max(axis=1, keepdims=True)
        best = np.where(lead, points.imag, -np.inf).argmax(axis=1)
        a = points[rows, best]
        saddle = np.abs(a.imag) > _IMAG_CUTOFF * np.abs(a)
        f_a = fa[rows, best]
        q = np.where(saddle, np.abs(f_a.imag) / math.pi, 0.0)
        slope = _horner([k * c for k, c in enumerate(fc)][1:], a)
        curvature = _horner([k * k * c for k, c in enumerate(fc)][1:], a)
        da = -1.0 / (s * s * curvature)
        sign = np.copysign(1.0, f_a.imag)
        p = np.where(saddle, -s * sign * (slope * da).imag / math.pi, 0.0)
    return SaddleSweep(points, np.where(saddle, best, -1),
                       np.where(saddle, gamma[rows, best], np.nan), q, p)


def analyze(prob: SaddleProblem) -> SaddleResult:
    """Locate critical points, select the dominant one if complex, report q."""
    sweep = saddle_sweep(prob.f, [prob.s])
    points = tuple(complex(a) for a in sweep.points[0] if a == a)
    cp = critical_polynomial(prob)
    residuals = tuple(abs(cp(a)) for a in points)
    if sweep.selected[0] < 0:
        return SaddleResult(points, residuals, None, None, 0.0)
    return SaddleResult(points, residuals, int(sweep.selected[0]),
                        float(sweep.gamma_real[0]), float(sweep.q[0]))


def zero_density_q(prob: SaddleProblem) -> float:
    return float(saddle_sweep(prob.f, [prob.s]).q[0])


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
    """p(s) = -s q'(s) from the selected saddle, in closed form (saddle_sweep)."""
    return float(saddle_sweep(prob.f, [prob.s]).p[0])


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
