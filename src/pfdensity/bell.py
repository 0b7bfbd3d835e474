"""Bell-polynomial chains for 1-D polynomial maps with a fixed point at 0.

For a map f with f(0) = 0, the polynomials H_n(y, a) are defined by

    d^n/da^n e^{y f(a)} = H_n(y, a) e^{y f(a)}.

Differentiating e^{y f} n times gives the complete-Bell recurrence
(Comtet, Advanced Combinatorics, 1974, sec. 3.3)

    H_0 = 1,  H_n = y sum_{i=1}^{min(n, deg f)} C(n-1, i-1) f^(i)(a) H_{n-i},

so at fixed a the chain needs only the derivatives f^(i)(a); at a = 0
they are i! f_i.  Everything is carried out in exact rational arithmetic
(every float is a dyadic rational, so no rounding enters the chain);
callers choose between float and exact coefficient views.  The resolving
gap e^n(y) = y^n - H_n(y,0) and the triangular coefficient system built on
the gaps live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CoefficientOverflow, ResonanceDetected
from .poly import Polynomial, _horner

__all__ = [
    "MapSpec1D",
    "CoefficientSystem",
    "bell_chain",
    "bell_sequence",
    "bell_sequence_exact",
    "resolving_gap",
    "resolving_gap_exact",
    "solve_coefficient_system",
    "classify_multiplier",
    "scaled_float_coeffs",
]

@dataclass(frozen=True)
class MapSpec1D:
    """Polynomial map f(a) = sum coeffs[k] a^k with coeffs[0] = 0."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("map must have degree >= 1")
        if coeffs[0] != 0.0:
            raise ValueError("coeffs[0] must be 0 (fixed point at the origin)")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def lam(self) -> float:
        """Multiplier at the fixed point, f'(0)."""
        return self.coeffs[1]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def exact_coeffs(self) -> tuple:
        return tuple(Fraction(c) for c in self.coeffs)

    def __call__(self, x):
        return _horner(self.coeffs, x)

    @classmethod
    def logistic(cls, lam: float) -> "MapSpec1D":
        return cls((0.0, lam, -0.5))

    @classmethod
    def identity(cls) -> "MapSpec1D":
        return cls((0.0, 1.0))

    @classmethod
    def m_hermite(cls, lam: float, m: int) -> "MapSpec1D":
        """f(a) = lam*a - a^m/m (the trinomial critical-point family)."""
        if m < 2:
            raise ValueError("m must be >= 2")
        coeffs = [0.0] * (m + 1)
        coeffs[1] = lam
        coeffs[m] = -1.0 / m
        return cls(coeffs)

    @classmethod
    def from_json(cls, obj: dict) -> "MapSpec1D":
        return cls(obj["coeffs"])

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}


def bell_chain(derivs, n: int) -> list:
    """[H_0(y,a), ..., H_n(y,a)] at one point a, as exact polynomials in y.

    derivs[i-1] is f^(i)(a) for i = 1 .. deg f; the rows follow from the
    complete-Bell recurrence in O(n^2 deg f) Fraction operations.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x = [Fraction(c) for c in derivs]
    rows = [[Fraction(1)]]
    for m in range(1, n + 1):
        row = [Fraction(0)] * (m + 1)
        for i, xi in enumerate(x[:m], start=1):
            if xi:
                w = math.comb(m - 1, i - 1) * xi
                for k, c in enumerate(rows[m - i]):
                    if c:
                        row[k + 1] += w * c
        rows.append(row)
    return [Polynomial(row) for row in rows]


def bell_sequence_exact(f: MapSpec1D, n: int) -> list:
    """[H_0(y), ..., H_n(y)] at a = 0 with exact Fraction coefficients."""
    return bell_chain([math.factorial(i) * c
                       for i, c in enumerate(f.exact_coeffs()) if i], n)


def _check_float_range(p: Polynomial, order: int) -> Polynomial:
    out = []
    for c in p.coeffs:
        try:
            fc = float(c)
        except OverflowError:
            raise CoefficientOverflow(order) from None
        out.append(fc)
    return Polynomial(out)


def bell_sequence(f: MapSpec1D, n: int) -> list:
    """Float-coefficient view of the chain at a = 0.

    Raises CoefficientOverflow if any coefficient cannot be represented in
    double precision; use bell_sequence_exact / scaled_float_coeffs then.
    """
    return [_check_float_range(p, m)
            for m, p in enumerate(bell_sequence_exact(f, n))]


def resolving_gap_exact(f: MapSpec1D, n: int) -> Polynomial:
    """e^n(y) = y^n - H_n(y, 0), exact; leading coefficient is 1 - lam^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    H = bell_sequence_exact(f, n)[n]
    coeffs = [-c for c in H.coeffs] + [Fraction(0)] * max(0, n + 1 - len(H.coeffs))
    coeffs = list(coeffs[:n + 1])
    coeffs[n] += 1
    return Polynomial(coeffs)


def resolving_gap(f: MapSpec1D, n: int) -> Polynomial:
    return _check_float_range(resolving_gap_exact(f, n), n)


def scaled_float_coeffs(p: Polynomial):
    """(normalised float coefficients, log2 scale) for out-of-range polynomials.

    Coefficients are divided by 2**log2_scale so the largest magnitude lands
    near 1; the log-scale is returned separately and is exact.
    """
    mags = [abs(c) for c in p.coeffs if c != 0]
    if not mags:
        return [0.0] * len(p.coeffs), 0
    maxmag = max(mags)
    if isinstance(maxmag, Fraction):
        log2_scale = maxmag.numerator.bit_length() - maxmag.denominator.bit_length()
    else:
        log2_scale = int(math.floor(math.log2(float(maxmag))))
    scale = Fraction(2) ** log2_scale
    return [float(Fraction(c) / scale) for c in p.coeffs], log2_scale


@dataclass(frozen=True)
class CoefficientSystem:
    """Solved triangular system: sum_{m<=n} b*_m e^m(y) cancels in degrees 1..n-1.

    b_star[m-1] holds b*_m for 0 < m < n (b*_0 = 1 by the normalisation
    Phi(0) = 1, b*_n = b_n is the chosen free constant).  h[m] stores the
    coefficients of H_m(y).
    """

    n: int
    b_n: float
    b_star: tuple
    h: tuple


def classify_multiplier(lam: float, n: int = 1) -> str:
    """attracting / repelling / neutral according to |lam^n| vs 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mag = abs(lam) ** n
    if mag < 1.0:
        return "attracting"
    if mag > 1.0:
        return "repelling"
    return "neutral"


def _resonance_check(lam: float, n: int):
    for m in range(1, n + 1):
        try:
            gap = abs(1.0 - lam**m)
        except OverflowError:
            continue
        if math.isfinite(gap) and gap < 1e-12:
            raise ResonanceDetected(m, lam)


def solve_coefficient_system(f: MapSpec1D, n: int, b_n: float) -> CoefficientSystem:
    """Back-substitute the triangular system for the b*_m, exactly.

    The y^k coefficient (1 <= k < n) of sum b*_m e^m(y) is
    b*_k (1 - lam^k) - sum_{m>k} b*_m h_{mk}; setting each to zero gives the
    b*_k from the top degree downwards.  Requires lam^m != 1 for m <= n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b_n == 0:
        raise ValueError("b_n must be nonzero")
    _resonance_check(f.lam, n)

    hs = bell_sequence_exact(f, n)
    lam = Fraction(f.lam)

    rows = [p.coeffs for p in hs]

    b = {n: Fraction(b_n)}
    for k in range(n - 1, 0, -1):
        acc = Fraction(0)
        for m in range(k + 1, n + 1):
            row = rows[m]
            if k < len(row) and row[k]:   # H_m has no y^k below k = m / deg f
                acc += b[m] * row[k]
        b[k] = acc / (1 - lam**k)

    b_star = tuple(float(b[m]) for m in range(1, n))
    h = tuple(tuple(float(c) for c in hs[m].coeffs) for m in range(n + 1))
    return CoefficientSystem(n=n, b_n=float(b_n), b_star=b_star, h=h)
