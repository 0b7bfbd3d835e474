"""Bell-polynomial chains for 1-D polynomial maps with a fixed point at 0.

For a map f with f(0) = 0, the polynomials H_n(y, a) are defined by

    d^n/da^n e^{y f(a)} = H_n(y, a) e^{y f(a)}.

Differentiating e^{y f} n times gives the complete-Bell recurrence
(Comtet, Advanced Combinatorics, 1974, sec. 3.3)

    H_0 = 1,  H_n = y sum_{i=1}^{min(n, deg f)} C(n-1, i-1) f^(i)(a) H_{n-i},

so at fixed a the chain needs only the derivatives f^(i)(a); at a = 0
they are i! f_i.  Over the lcm D of their denominators (a power of two for
a float map) the recurrence runs in plain ints, so no rounding enters the
chain; callers read it as exact Fractions or as correctly rounded floats.
The resolving gap e^n(y) = y^n - H_n(y,0) and the triangular coefficient
system built on the gaps live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CoefficientOverflow, ResonanceDetected
from .poly import Polynomial, _horner, _trim

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


def _int_chain(derivs, n: int):
    """(rows, D): H_m(y, a) = sum_{k<=m} rows[m][k] (y/D)^k, D the lcm of the
    denominators of derivs[i-1] = f^(i)(a).  Callers pop each row as they
    convert it, so the ints and their view never coexist.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    D = math.lcm(*(Fraction(c).denominator for c in derivs))
    X = [int(Fraction(c) * D) for c in derivs]
    rows = [[1]]
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        for i, xi in enumerate(X[:m], start=1):
            if xi:
                w = math.comb(m - 1, i - 1) * xi
                for k, c in enumerate(rows[m - i], start=1):
                    row[k] += w * c
        rows.append(row)
    return rows, D


def _derivs_at_0(f: MapSpec1D) -> list:
    return [math.factorial(i) * c for i, c in enumerate(f.exact_coeffs()) if i]


def _exact(row, D) -> Polynomial:
    zero = Fraction(0)  # one object for the many zeros below y^(m / deg f)
    return Polynomial([Fraction(c, D**k) if c else zero for k, c in enumerate(row)])


def _floats(row, D, order) -> list:
    """row[k] / D**k, each rounded once to the nearest double (int true division)."""
    try:
        return [c / D**k for k, c in enumerate(row)]
    except OverflowError:
        raise CoefficientOverflow(order) from None


def bell_chain(derivs, n: int) -> list:
    """[H_0(y,a), ..., H_n(y,a)] as exact polynomials in y; derivs[i-1] = f^(i)(a)."""
    rows, D = _int_chain(derivs, n)
    return [_exact(rows.pop(0), D) for _ in range(n + 1)]


def bell_sequence_exact(f: MapSpec1D, n: int) -> list:
    """[H_0(y), ..., H_n(y)] at a = 0 with exact Fraction coefficients."""
    return bell_chain(_derivs_at_0(f), n)


def bell_sequence(f: MapSpec1D, n: int) -> list:
    """Float view of the chain at a = 0: each coefficient is the nearest double.

    Raises CoefficientOverflow if a coefficient is beyond the double range;
    use bell_sequence_exact / scaled_float_coeffs then.
    """
    rows, D = _int_chain(_derivs_at_0(f), n)
    return [Polynomial(_floats(rows.pop(0), D, m)) for m in range(n + 1)]


def _gap_row(f: MapSpec1D, n: int):
    """(row, D): the y^k coefficient of e^n(y) = y^n - H_n(y, 0) is row[k] / D**k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows, D = _int_chain(_derivs_at_0(f), n)
    return [-c for c in rows[n][:n]] + [D**n - rows[n][n]], D


def resolving_gap_exact(f: MapSpec1D, n: int) -> Polynomial:
    """e^n(y) = y^n - H_n(y, 0), exact; leading coefficient is 1 - lam^n."""
    return _exact(*_gap_row(f, n))


def resolving_gap(f: MapSpec1D, n: int) -> Polynomial:
    return Polynomial(_floats(*_gap_row(f, n), n))


def scaled_float_coeffs(p: Polynomial):
    """(normalised float coefficients, log2 scale) for out-of-range polynomials.

    Coefficients are divided by 2**log2_scale so the largest magnitude lands
    near 1; the log-scale is returned separately and is exact.
    """
    mags = [abs(c) for c in p.coeffs if c != 0]
    if not mags:
        return [0.0] * len(p.coeffs), 0
    maxmag = max(mags)
    if isinstance(maxmag, (int, Fraction)):
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
    b*_k from the top degree downwards (lam^m != 1 for m <= n).  With
    lam = ln/ld, b*_m = B[m] / Q[m] stays unreduced, Q[k] = r_k Q[k+1] with
    r_k = (ld**k - ln**k) D**k, and the sum over m is Horner in the r_m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b_n == 0:
        raise ValueError("b_n must be nonzero")
    _resonance_check(f.lam, n)

    rows, D = _int_chain(_derivs_at_0(f), n)
    ln, ld = f.lam.as_integer_ratio()
    r = [(ld**k - ln**k) * D**k for k in range(n + 1)]
    B, Q = [0] * (n + 1), [0] * (n + 1)
    B[n], Q[n] = Fraction(b_n).as_integer_ratio()
    for k in range(n - 1, 0, -1):
        acc = 0
        for m in range(n, k, -1):
            acc = acc * r[m] + B[m] * rows[m][k]
        B[k], Q[k] = acc * ld**k, r[k] * Q[k + 1]
    b_star = tuple(B[m] / Q[m] if B[m] else 0.0 for m in range(1, n))  # 0 / -Q is -0.0
    h = tuple(tuple(_floats(_trim(rows.pop(0)), D, m)) for m in range(n + 1))
    return CoefficientSystem(n=n, b_n=float(b_n), b_star=b_star, h=h)
