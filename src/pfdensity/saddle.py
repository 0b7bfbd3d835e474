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
operations.  zero_density_q and invariant_density_p are one-element
sweeps, so there is one selection rule and one check on s; an s that
overflows a coefficient of the critical polynomial, or leaves it no term
in a, is a DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _OnFirstUse
from .errors import DomainError
from .poly import MP_LOCK, _horner, _trim, poly_roots_batch

mpmath = _OnFirstUse("mpmath", globals(), "mpmath")

if TYPE_CHECKING:
    from .bell import MapSpec1D

__all__ = [
    "SaddleSweep",
    "saddle_sweep",
    "zero_density_q",
    "logistic_closed_q",
    "logistic_closed_p",
    "logistic_p_mass",
    "invariant_density_p",
]

_IMAG_CUTOFF = 1e-10  # |Im a| <= cutoff |a|: the critical point a counts as real


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
    if s.ndim != 1:
        raise ValueError("s must be a 1-D array")
    if not (np.isfinite(s) & (s > 0)).all():
        raise ValueError("s must be finite and positive")
    fc = f.coeffs
    kc = _trim([k * c for k, c in enumerate(fc)])  # a*f'(a) has k*fc[k] on a^k
    with np.errstate(over="ignore"):
        crit = s[:, None] * np.array(kc)
    crit[:, 0] = -1.0
    finite = np.isfinite(crit).all(axis=1)
    if not finite.all():
        raise DomainError(f"s = {float(s[finite.argmin()])!r} overflows a "
                          "coefficient of the critical polynomial s*a*f'(a) - 1")
    flat = (crit[:, 1:] == 0).all(axis=1)  # f' = 0, or every s*k*c_k underflows
    if flat.any():
        raise DomainError(f"s = {float(s[flat.argmax()])!r} leaves the critical "
                          "polynomial s*a*f'(a) - 1 with no term in a")
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


def zero_density_q(f: MapSpec1D, s: float) -> float:
    return float(saddle_sweep(f, [s]).q[0])


def logistic_closed_q(lam: float, s: float) -> float:
    """(lam/2pi) sqrt(1/s - lam^2/4) on (0, 4/lam^2), 0 outside."""
    if s <= 0.0:
        return 0.0
    radicand = 1.0 / s - lam * lam / 4.0
    if radicand <= 0.0:
        return 0.0
    return lam / (2.0 * math.pi) * math.sqrt(radicand)


def logistic_closed_p(lam: float, s: float) -> float:
    """Raw closed-form invariant density lam / (2 pi sqrt(4s - s^2 lam^2)),
    which integrates to 1/2 over its support (0, 4/lam^2)."""
    radicand = 4.0 * s - s * s * lam * lam
    if radicand <= 0.0:
        return 0.0
    return lam / (2.0 * math.pi * math.sqrt(radicand))


def logistic_p_mass(lam: float) -> float:
    """Integral of the raw closed-form p over its support (tanh-sinh quadrature)."""
    hi = 4.0 / (lam * lam)
    with MP_LOCK, mpmath.workdps(30):
        val = mpmath.quad(
            lambda s: lam / (2 * mpmath.pi * mpmath.sqrt(4 * s - s**2 * lam**2)),
            [0, hi],
        )
    return float(val)


def invariant_density_p(f: MapSpec1D, s: float) -> float:
    """p(s) = -s q'(s) from the selected saddle, in closed form (saddle_sweep)."""
    return float(saddle_sweep(f, [s]).p[0])
