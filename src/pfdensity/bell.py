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
chain_roots solves H_n(y, 0) by the recurrence itself in doubles (Bini,
Gemignani & Tisseur, SIAM J. Matrix Anal. Appl. 27, 2005) and certifies
each real root by exact integer signs.  The resolving gap and the
triangular coefficient system built on the gaps live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CoefficientOverflow, DegreeZero, DomainError, ResonanceDetected
from .poly import Polynomial, _batch_aberth, _horner, _trim, _upper_hull, poly_roots

__all__ = [
    "MapSpec1D",
    "CoefficientSystem",
    "bell_chain",
    "bell_sequence",
    "bell_sequence_exact",
    "resolving_gap",
    "resolving_gap_exact",
    "chain_roots",
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
        for k, c in enumerate(coeffs):
            if not math.isfinite(c):
                raise DomainError(f"map coefficient a_{k} = {c!r} is not finite")
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


def _chain_step(derivs, n: int, m0: int):
    """poly._batch_aberth's evaluator for Q = H_n(y, 0) / y^m0: (H_m, H'_m) by
    the recurrence in complex doubles, the last deg f rows rescaled at each
    step by a power of two (exact), the correction Q/Q' = H / (H' - m0 H/y),
    and a freeze once that is within a few ulps of |y|."""
    w = [[(i, math.comb(m - 1, i - 1) * float(c)) for i, c in enumerate(derivs[:m], 1)
          if c] or [(1, 0.0)] for m in range(1, n + 1)]

    def evaluate(rows, y):
        win = [np.array([np.ones_like(y), np.zeros_like(y)])]  # rows (H_m, H'_m)
        for (i, c), *rest in w:
            s = sum((c * win[-i] for i, c in rest), c * win[-i])
            new = y * s
            new[1] += s[0]
            win = win[1 - len(derivs):] + [new]  # the last deg f rows
            big = np.maximum(abs(new[0]), abs(win[-2][0]))
            win = [v * np.ldexp(1.0, -np.frexp(big)[1]) for v in win]
        h, hp = win[-1]
        corr = h / (hp - m0 * h / y)  # 0, not NaN, where H = 0
        return corr, abs(corr) <= 2.0 ** -50 * abs(y), True
    return evaluate


def _certified(row, D, m0: int, xs) -> bool:
    """Whether each x of xs lies within 2^-40 |x| of its own real root of Q.

    Each bracket end x(1 -+ 2^-40) is an int P over one 2^E, where Q has the
    sign of sum_k row[k] P^(k-m0) (2^E D)^(deg-k).  Disjoint brackets, each
    with a strict sign change (none at x = 0), hold one root each."""
    E = max(x.as_integer_ratio()[1].bit_length() for x in xs) + 39
    Ms = [int(Fraction(x) * 2**E) for x in xs]  # exact, multiples of 2^40
    ends = [sorted((M - (M >> 40), M + (M >> 40))) for M in Ms]
    if any(hi >= lo for (_, hi), (lo, _) in zip(ends, ends[1:])):
        return False
    q, deg = 2**E * D, len(row) - 1
    terms = [row[k] * q ** (deg - k) for k in range(m0, deg + 1)]
    return all(_horner(terms, lo) * _horner(terms, hi) < 0 for lo, hi in ends)


def chain_roots(f: MapSpec1D, n: int) -> list:
    """All roots of H_n(y, 0), with multiplicity, sorted like poly_roots.

    H_n = y^m0 Q(y), m0 exact.  Aberth sweeps by the recurrence start from
    the Newton polygon of log2|row[k] / D^k|, which converts no coefficient.
    Unless the real parts of Q's N roots are finite and _certified, every
    root comes from poly_roots on the exact H_n instead.
    """
    derivs = _derivs_at_0(f)
    rows, D = _int_chain(derivs, n)
    row = _trim(rows[n])
    if not any(row):
        raise DegreeZero(f"H_{n} is identically zero for this map")
    m0 = next(k for k, c in enumerate(row) if c)
    N = len(row) - 1 - m0
    if N > 0:
        try:
            evaluate = _chain_step(derivs, n, m0)
        except OverflowError:  # a weight beyond the double range
            return poly_roots(_exact(row, D))
        hull = _upper_hull([(k, math.log2(abs(c)) - k * math.log2(D))
                            for k, c in enumerate(row) if c])
        with np.errstate(all="ignore"):  # as _newton_starts, on 2^-slope circles
            z = np.concatenate([np.exp2((y1 - y2) / (k2 - k1)) * np.exp(
                2j * np.pi * np.arange(k2 - k1) / (k2 - k1) + 1j * np.pi / (2 * N))
                for (k1, y1), (k2, y2) in zip(hull, hull[1:])])
            z, ok = _batch_aberth(evaluate, z[None])
        xs = sorted(float(r.real) for r in z[0])
        if ok[0] and all(map(math.isfinite, xs)) and _certified(row, D, m0, xs):
            return sorted([0j] * m0 + list(map(complex, xs)), key=lambda r: r.real)
    return poly_roots(_exact(row, D))


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
