"""The Lorenz field as a differential iteration, end to end.

Covers the fixed points and their characteristic cubics, the projected
quadratic form Q with its constant orthogonal eigenbasis T and spectrum
(0, -mu, +mu), the linear l-coefficients at each fixed point (including
the shifted variants at alpha_+/-), the condition surfaces, and the
asymptotic cycle density q(s) = |l2| sqrt(8 mu - l2^2) / (8 pi mu) on the
admissible region l2^2 < 8 mu.

The l-coefficients are defined by the matrix product l = L T^t (the
identity l.u = L(T^t u) is property-tested); the condition surfaces and
the cycle density are expressed in these coordinates.  The exact
three-way factorisation of the projected exponent lives in the
diagonalising basis a = T u, where
y.f(Tu) = m1*u + (m2*v - d*v^2) + (m3*w + d*w^2) with m = L T and
d = delta*mu/2 holds to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateDirection, DomainError
from .odeiter import OdeSystem, jacobian_eigen
from .poly import Polynomial, poly_roots

__all__ = [
    "LorenzParams",
    "LorenzDecomposition",
    "CycleSample",
    "FIXED_POINT_TAGS",
    "lorenz_system",
    "fixed_point",
    "fixed_points_by_tag",
    "characteristic_at_fixed_points",
    "q_matrix",
    "q_decomposition",
    "L_coefficients",
    "l_coefficients",
    "projection_value",
    "factor_coefficients",
    "factorized_exponent",
    "cycle_sample",
    "cycle_density",
    "direction_grid",
    "lorenz_report",
]

FIXED_POINT_TAGS = ("theta", "alpha_plus", "alpha_minus")


@dataclass(frozen=True)
class LorenzParams:
    sigma: float
    rho: float
    beta: float

    def __post_init__(self):
        for name in ("sigma", "rho", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def alpha(self) -> Optional[float]:
        """sqrt(beta (rho - 1)); defined only when rho > 1."""
        if self.rho > 1.0:
            return math.sqrt(self.beta * (self.rho - 1.0))
        return None


def lorenz_system(p: LorenzParams) -> OdeSystem:
    """da/dt = sigma(b-a); db/dt = rho a - b - ac; dc/dt = -beta c + ab."""
    return OdeSystem(3, [
        [((1, 0, 0), -p.sigma), ((0, 1, 0), p.sigma)],
        [((1, 0, 0), p.rho), ((0, 1, 0), -1.0), ((1, 0, 1), -1.0)],
        [((0, 0, 1), -p.beta), ((1, 1, 0), 1.0)],
    ])


def fixed_point(p: LorenzParams, tag: str) -> np.ndarray:
    if tag == "theta":
        return np.zeros(3)
    alpha = p.alpha
    if alpha is None:
        raise DomainError(f"fixed point {tag!r} requires rho > 1")
    z = alpha * alpha / p.beta
    if tag == "alpha_plus":
        return np.array([alpha, alpha, z])
    if tag == "alpha_minus":
        return np.array([-alpha, -alpha, z])
    raise ValueError(f"unknown tag {tag!r}")


def fixed_points_by_tag(p: LorenzParams) -> dict:
    tags = FIXED_POINT_TAGS if p.rho > 1.0 else ("theta",)
    return {tag: fixed_point(p, tag) for tag in tags}


def characteristic_at_fixed_points(p: LorenzParams):
    """(cubic at theta, cubic at alpha_+/-) with ascending coefficients.

    theta:   (beta + x) [(sigma + x)(1 + x) - sigma rho]
    alpha:   x^3 + (sigma+beta+1) x^2 + beta(sigma+rho) x + 2 sigma beta (rho-1)
    """
    s, r, b = p.sigma, p.rho, p.beta
    # expand (beta + x)(x^2 + (sigma+1)x + sigma(1-rho))
    theta = Polynomial([
        b * s * (1.0 - r),
        s * (1.0 - r) + b * (s + 1.0),
        s + 1.0 + b,
        1.0,
    ])
    if p.rho <= 1.0:
        return theta, None
    alpha_cubic = Polynomial([
        2.0 * s * b * (r - 1.0),
        b * (s + r),
        s + b + 1.0,
        1.0,
    ])
    return theta, alpha_cubic


def q_matrix(direction) -> np.ndarray:
    """Hessian of the projected quadratic (zb - yc)a for axis (x, y, z)."""
    _, y, z = (float(v) for v in direction)
    return np.array([[0.0, z, -y],
                     [z, 0.0, 0.0],
                     [-y, 0.0, 0.0]])


@dataclass(frozen=True)
class LorenzDecomposition:
    direction: tuple
    mu: float
    Q: np.ndarray
    T: np.ndarray
    Lambda: np.ndarray


def q_decomposition(direction) -> LorenzDecomposition:
    """Constant orthogonal eigenbasis of Q: columns of T for (0, -mu, +mu)."""
    x, y, z = (float(v) for v in direction)
    mu = math.hypot(y, z)
    if mu == 0.0:
        raise DegenerateDirection("projection axis has y = z = 0")
    s2 = math.sqrt(2.0)
    T = np.array([
        [0.0,          1.0 / s2,       1.0 / s2],
        [y / mu, -z / (mu * s2),  z / (mu * s2)],
        [z / mu,  y / (mu * s2), -y / (mu * s2)],
    ])
    Lambda = np.diag([0.0, -mu, mu])
    return LorenzDecomposition(direction=(x, y, z), mu=mu,
                               Q=q_matrix(direction), T=T, Lambda=Lambda)


def _alpha_shift(p: LorenzParams, direction, delta: float, tag: str):
    """Additive shift of L when recentring the iteration at alpha_+/-."""
    if tag == "theta":
        return np.zeros(3)
    alpha = p.alpha
    if alpha is None:
        raise DomainError(f"fixed point {tag!r} requires rho > 1")
    if tag == "alpha_minus":
        alpha = -alpha
    x, y, z = (float(v) for v in direction)
    return delta * np.array([
        z * alpha - y * alpha * alpha / p.beta,
        z * alpha,
        -y * alpha,
    ])


def L_coefficients(p: LorenzParams, direction, delta: float,
                   tag: str = "theta") -> tuple:
    """Coefficients of the linear part y.f(a) - delta(zb - yc)a = L.a."""
    x, y, z = (float(v) for v in direction)
    L = np.array([
        x * (1.0 - delta * p.sigma) + delta * p.rho * y,
        delta * p.sigma * x + y * (1.0 - delta),
        z * (1.0 - delta * p.beta),
    ])
    L = L + _alpha_shift(p, direction, delta, tag)
    return tuple(L)


def l_coefficients(dec: LorenzDecomposition, p: LorenzParams, delta: float,
                   tag: str = "theta") -> tuple:
    """l = L T^t: the coefficients the condition surfaces are written in."""
    L = np.array(L_coefficients(p, dec.direction, delta, tag))
    return tuple(float(v) for v in L @ dec.T.T)


def projection_value(p: LorenzParams, direction, delta: float, a,
                     tag: str = "theta") -> float:
    """y.f(a) for the (possibly recentred) differential iteration, directly."""
    x, y, z = (float(v) for v in direction)
    av, bv, cv = (float(v) for v in a)
    L = L_coefficients(p, direction, delta, tag)
    return L[0] * av + L[1] * bv + L[2] * cv + delta * (z * bv - y * cv) * av


def factor_coefficients(dec: LorenzDecomposition, p: LorenzParams,
                        delta: float, tag: str = "theta") -> tuple:
    """(m, d): linear coefficients m = L T and quadratic weight d = delta*mu/2
    of the exact factorisation in the diagonalising basis a = T u."""
    L = np.array(L_coefficients(p, dec.direction, delta, tag))
    return tuple(L @ dec.T), delta * dec.mu / 2.0


def factorized_exponent(dec: LorenzDecomposition, p: LorenzParams,
                        delta: float, u, tag: str = "theta") -> float:
    """g1(u) + g2(v) + g3(w) = y.f(Tu): linear + random + positive factor."""
    (m1, m2, m3), d = factor_coefficients(dec, p, delta, tag)
    uu, vv, ww = (float(x) for x in u)
    g1 = m1 * uu
    g2 = m2 * vv - d * vv * vv
    g3 = m3 * ww + d * ww * ww
    return g1 + g2 + g3


class CycleSample(NamedTuple):
    l1: float
    l2: float
    l3: float
    mu: float
    admissible: bool
    density: float


def cycle_sample(dec: LorenzDecomposition) -> CycleSample:
    """Normalised-coordinate cycle analysis at the direction (r, s, t) of dec.

    Uses the delta -> 0 limit of the l-coefficients (the shift terms of the
    alpha fixed points vanish with delta, so the sample is tag-independent);
    density q = |l2| sqrt(8 mu - l2^2) / (8 pi mu) when l2^2 < 8 mu, else 0.
    The l1 and l3 values locate the condition surfaces reported alongside.
    """
    l = np.array(dec.direction) @ dec.T.T
    l1, l2, l3 = (float(v) for v in l)
    mu = dec.mu
    admissible = l2 * l2 < 8.0 * mu
    if admissible and l2 != 0.0:
        density = abs(l2) * math.sqrt(8.0 * mu - l2 * l2) / (8.0 * math.pi * mu)
    else:
        density = 0.0
    return CycleSample(l1=l1, l2=l2, l3=l3, mu=mu,
                       admissible=admissible, density=density)


def cycle_density(s_point) -> float:
    """Density value at a normalised direction; 0 outside the admissible set."""
    return cycle_sample(q_decomposition(s_point)).density


def direction_grid() -> list:
    """6 x 8 deterministic unit directions avoiding the degenerate axis y = z = 0."""
    grid = []
    for i in range(6):
        th = math.pi * (i + 0.5) / 6
        for j in range(8):
            ph = 2.0 * math.pi * j / 8
            grid.append((math.cos(th),
                         math.sin(th) * math.cos(ph),
                         math.sin(th) * math.sin(ph)))
    return grid


def lorenz_report(p: LorenzParams, delta: float = 1e-3) -> dict:
    """JSON-able end-to-end report: fixed points with spectra, per-tag
    condition surfaces on direction_grid(), admissibility mask and densities."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    grid = direction_grid()

    theta_cubic, alpha_cubic = characteristic_at_fixed_points(p)
    sys = lorenz_system(p)
    tags = FIXED_POINT_TAGS if p.rho > 1.0 else ("theta",)

    fps = []
    for tag in tags:
        pt = fixed_point(p, tag)
        eig = jacobian_eigen(sys, pt)
        cubic = theta_cubic if tag == "theta" else alpha_cubic
        roots = poly_roots(cubic)
        fps.append({
            "tag": tag,
            "point": [float(v) for v in pt],
            "eigenvalues": [[z.real, z.imag] for z in eig.eigenvalues],
            "characteristic_roots": [[z.real, z.imag] for z in roots],
        })

    surfaces = {"l1": {tag: [] for tag in tags}, "l3": {tag: [] for tag in tags}}
    samples = []
    for g in grid:
        dec = q_decomposition(g)
        for tag in tags:
            l1, _, l3 = l_coefficients(dec, p, delta, tag)
            surfaces["l1"][tag].append(l1)
            surfaces["l3"][tag].append(l3)
        samples.append(cycle_sample(dec))

    return {
        "params": {"sigma": p.sigma, "rho": p.rho, "beta": p.beta,
                   "alpha": p.alpha, "delta": delta},
        "grid": [list(g) for g in grid],
        "fixed_points": fps,
        "surfaces": surfaces,
        "admissible_mask": [s.admissible for s in samples],
        "density_samples": [s.density for s in samples],
    }
