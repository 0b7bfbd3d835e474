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
each real root by the signs of H_n at the ends of a 2^-40 bracket: interval
ratios in doubles for a quadratic map, Horner on truncated-int balls for any
other, and the recurrence in exact ints at each end those leave open.  A
quadratic map's chain is Hermite, its zeros start at the eigenvalues of a
Laguerre Jacobi matrix (Golub & Welsch), and it builds the int chain only to
fall back to poly_roots; any other map starts from its int row's Newton
polygon.  The resolving gap and the triangular coefficient system built on
the gaps live here too.  Only chain_roots' sweeps, starts and ratio signs
use numpy, so the chain, gap and system run without it.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import _finite, _OnFirstUse
from .errors import CoefficientOverflow, DegreeZero, DomainError, ResonanceDetected
from .poly import (_TARGET, Polynomial, _batch_aberth, _circle_starts, _trim,
                   _upper_hull, poly_roots)

np = _OnFirstUse("numpy", globals(), "np")

__all__ = [
    "MapSpec1D",
    "CoefficientSystem",
    "bell_sequence",
    "bell_sequence_exact",
    "resolving_gap",
    "chain_roots",
    "solve_coefficient_system",
]

_BALL_BITS = 64  # _certified's ball width is deg H_n + this many bits

@dataclass(frozen=True)
class MapSpec1D:
    """Polynomial map f(a) = sum coeffs[k] a^k with coeffs[0] = 0."""

    coeffs: tuple

    def __init__(self, coeffs):
        values = []
        for k, c in enumerate(coeffs):
            try:
                c = float(c)
            except OverflowError:  # an int or Fraction beyond the double range
                raise DomainError(
                    f"map coefficient a_{k} is beyond the double range") from None
            if not math.isfinite(c):
                raise DomainError(f"map coefficient a_{k} = {c!r} is not finite")
            values.append(c)
        coeffs = tuple(values)
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
        """The map of an object {"coeffs": [numbers]}; any other shape, or a
        true or false among the numbers, is a ValueError."""
        coeffs = obj.get("coeffs") if isinstance(obj, dict) else None
        if not (isinstance(coeffs, list) and all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs)):
            raise ValueError('a map is a JSON object whose "coeffs" is a list of numbers')
        return cls(coeffs)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}


def _int_chain(derivs, n: int):
    """(D, rows): rows yields H_0, ..., H_n with H_m(y, a) = sum_k row[k] (y/D)^k,
    D the lcm of the denominators of derivs[i-1] = f^(i)(a).  It holds only
    the last len(derivs) rows, all that the recurrence reads.  H_m is zero
    below y^ceil(m / len(derivs)), so each product starts there.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    D = math.lcm(*(Fraction(c).denominator for c in derivs))
    X = [int(Fraction(c) * D) for c in derivs]

    def rows():
        window = deque([[1]], maxlen=len(X))
        yield [1]
        for m in range(1, n + 1):
            row = [0] * (m + 1)
            for i, xi in enumerate(X[:m], start=1):
                if xi:
                    w, lo = math.comb(m - 1, i - 1) * xi, -((i - m) // len(X))
                    for k, c in enumerate(window[-i][lo:], start=lo + 1):
                        row[k] += w * c
            window.append(row)
            yield row
    return D, rows()


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


def bell_sequence_exact(f: MapSpec1D, n: int) -> list:
    """[H_0(y), ..., H_n(y)] at a = 0 with exact Fraction coefficients."""
    D, rows = _int_chain(_derivs_at_0(f), n)
    return [_exact(row, D) for row in rows]


def bell_sequence(f: MapSpec1D, n: int) -> list:
    """Float view of the chain at a = 0: each coefficient is the nearest double.

    Raises CoefficientOverflow if a coefficient is beyond the double range;
    use bell_sequence_exact then.
    """
    D, rows = _int_chain(_derivs_at_0(f), n)
    return [Polynomial(_floats(row, D, m)) for m, row in enumerate(rows)]


def _chain_step(derivs, n: int, m0: int):
    """poly._batch_aberth's evaluator for Q = H_n(y, 0) / y^m0: (H_m, H'_m) by
    the recurrence in complex doubles, the last deg f rows rescaled at each
    step by a power of two (exact), the correction Q/Q' = H / (H' - m0 H/y),
    and a freeze once that is within a few ulps of |y|, or once it has been
    within 2^-44 |y| for four sweeps: rounding can keep a root cycling just
    above the few ulps (the smallest root of logistic H_512, at 0.9-2.3e-15)."""
    w = [[(i, math.comb(m - 1, i - 1) * float(c)) for i, c in enumerate(derivs[:m], 1)
          if c] or [(1, 0.0)] for m in range(1, n + 1)]
    near = 0  # sweeps each root has spent within 2^-44 |y|; y holds all N roots

    def evaluate(rows, y):
        nonlocal near
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
        near = (near + 1) * (abs(corr) <= 2.0 ** -44 * abs(y))
        return corr, (abs(corr) <= 2.0 ** -50 * abs(y)) | (near >= 4), True
    return evaluate


def _ball_signs(terms, points, K: int) -> list:
    """The sign of sum_j terms[j] P^j at each int P of points, or 0 where
    undecided, by Horner on balls of K-bit ints (Johansson, "Arb", IEEE
    Trans. Comput. 66, 2017).

    Each term is m 2^s plus under u 2^s, m of at most K bits, u = 0 where
    s = 0 (exact).  The running sum is (A +- R) 2^e: A P and R |P| are
    exact, an aligned term adds u 2^(s - e) to R (or u + 1 units when
    s < e), and cutting A back to K bits (floor) adds 2 units.  The sign is
    decided once |A| > R."""
    cut = [(t >> s, s, int(s > 0)) for t in terms for s in [max(t.bit_length() - K, 0)]]
    (m_top, s_top, u_top), *rest = reversed(cut)
    signs = []
    for P in points:
        aP, A, R, e = abs(P), m_top, u_top, s_top
        for m, s, u in rest:
            d = s - e
            if d >= 0:
                A, R = A * P + (m << d), R * aP + (u << d)
            else:
                A, R = A * P + (m >> -d), R * aP + u + 1
            x = A.bit_length() - K
            if x > 0:
                A, R, e = A >> x, (R >> x) + 2, e + x
        signs.append((A > R) - (A < -R))
    return signs


def _int_signs(row, D, m0: int, ends) -> list:
    """The sign of H_n at each double of ends from its int row, or 0 where
    open: each end is an int P over one 2^E, where Q = H_n / y^m0 has the
    sign of sum_k row[k] P^(k-m0) (2^E D)^(deg-k), which _ball_signs takes at
    deg + _BALL_BITS bits, and H_n that sign times sign(y)^m0."""
    E = max(x.as_integer_ratio()[1].bit_length() for x in ends) - 1
    Ps = [int(Fraction(x) * 2**E) for x in ends]  # exact
    q, deg = 2**E * D, len(row) - 1
    terms = [row[k] * q ** (deg - k) for k in range(m0, deg + 1)]
    signs = _ball_signs(terms, Ps, deg + _BALL_BITS)
    return [-sign if y < 0 and m0 % 2 else sign for sign, y in zip(signs, ends)]


def _ratio_signs(lam: float, c2: float, n: int, ends) -> list:
    """The sign of H_n(y, 0) at each end y for f = lam a + c2 a^2, in
    doubles, or 0 where it stays open.

    There H_m = y (lam H_{m-1} + 2 c2 (m-1) H_{m-2}), so the ratios
    rho_m = H_m / H_{m-1} run rho_1 = lam y, rho_m = g(rho_{m-1}) with
    g(rho) = y (lam + 2 c2 (m-1) / rho) (Gautschi, SIAM Rev. 9, 1967), and
    H_n has the sign (-1)^(the number of negative rho_m).  Each rho_m is an
    interval [lo, hi] (Moore, Interval Analysis, 1966).  Where 2 c2 y < 0,
    as at every root, g increases on each branch rho < 0 and rho > 0, so
    while [lo, hi] excludes 0 its image is [g(lo), g(hi)]: each operation
    of g(lo) is stepped one ulp by nextafter in the direction that lowers
    g, which covers its rounding to nearest, and of g(hi) in the one that
    raises it.  An end where some interval holds 0 or NaN, or where
    2 c2 y >= 0, stays open.  2 c2 must be finite, hence exact, as
    chain_roots has it once _chain_step has built its weights."""
    y, b = np.array(ends), 2 * c2
    out = np.array([[-np.inf], [np.inf]])  # rows lo, hi: down, up
    toward = np.sign(y) * out  # lowers, raises y s
    rho = np.nextafter(lam * y, out)
    closed, neg = b * y < 0, np.zeros(len(ends), dtype=bool)
    for m in range(2, n + 1):
        closed &= rho[0] * rho[1] > 0
        neg ^= rho[1] < 0
        q = np.nextafter((m - 1) / rho, -out)  # 2 c2 y < 0: q up lowers g
        s = np.nextafter(lam + np.nextafter(b * q, toward), toward)
        rho = np.nextafter(y * s, out)
    closed &= rho[0] * rho[1] > 0
    neg ^= rho[1] < 0
    return np.where(closed, np.where(neg, -1, 1), 0).tolist()


def _exact_sign(derivs, n: int, y: float) -> int:
    """The sign of H_n(y, 0) at a nonzero double y, exactly, for a map f of
    any degree other than f = 0.

    With y f^(i)(0) = a_i / 2^(t i) for ints a_i (y and f's coefficients
    are doubles, so dyadic), the ints G_m = H_m 2^(t m) run the
    complete-Bell recurrence G_0 = 1, G_m = sum_i C(m-1, i-1) a_i G_{m-i}:
    n steps on ints of O(n t) bits, no int chain."""
    terms = [(i, v.numerator, v.denominator.bit_length() - 1)
             for i, c in enumerate(derivs, 1) for v in [Fraction(y) * c] if v]
    t = max(-(-k // i) for i, _, k in terms)
    a = [(i, p << (t * i - k)) for i, p, k in terms]
    window = deque([0] * (len(derivs) - 1) + [1], maxlen=len(derivs))  # to G_0
    for m in range(1, n + 1):
        window.append(functools.reduce(int.__add__, (
            math.comb(m - 1, i - 1) * c * window[-i] for i, c in a)))
    return (window[-1] > 0) - (window[-1] < 0)


def _certified(xs, derivs, n: int, fast) -> bool:
    """Whether each x of the sorted xs lies within _TARGET |x| of its own
    real root of Q = H_n / y^m0, fast(ends) giving H_n's sign or 0 at each
    end and _exact_sign the signs it leaves at 0.

    x's bracket ends are the doubles a and b one step inside x(1 -+ _TARGET):
    x -+ |x| _TARGET rounds by at most half an ulp (and 2^-1075 more where it
    is subnormal), and nextafter towards x moves it a whole ulp.  Disjoint
    brackets, each with a strict sign change (none at x = 0, so Q's too),
    hold one root each, so N of them hold all of Q's."""
    ends = []
    for x in xs:
        d = abs(x) * _TARGET
        ends += [math.nextafter(x - d, x), math.nextafter(x + d, x)]
    if not all(a < b for a, b in zip(ends, ends[1:])):
        return False
    got = [sign or _exact_sign(derivs, n, y) for sign, y in zip(fast(ends), ends)]
    return all(lo * hi < 0 for lo, hi in zip(got[::2], got[1::2]))


def _quadratic_map(f: MapSpec1D):
    """(lam, c2) where f = lam a + c2 a^2 with both nonzero, else None."""
    c = _trim(f.coeffs)
    return c[1:] if len(c) == 3 and c[1] else None


def _last_row(derivs, n: int):
    """(row, D) of H_n as _int_chain gives it, trailing zeros trimmed."""
    D, rows = _int_chain(derivs, n)
    return _trim(deque(rows, maxlen=1)[0]), D


def chain_roots(f: MapSpec1D, n: int) -> list:
    """All roots of H_n(y, 0), with multiplicity, sorted like poly_roots.

    H_n = y^m0 Q(y) with deg Q = N.  Aberth sweeps by the recurrence find
    Q's roots; unless their real parts are finite and _certified, every root
    comes from poly_roots on the exact H_n instead.  For n >= 2 and a
    quadratic map f = lam a + c2 a^2 (_quadratic_map) the chain is Hermite,
    H_n(y, 0) = (-2 c2 y)^(n/2) He_n(lam sqrt(y) / sqrt(-2 c2)), so
    m0 = ceil(n/2), N = floor(n/2) and Q's roots are y = -4 c2 u / lam^2 over
    the zeros u of the Laguerre polynomial L_N^(alpha), alpha = n mod 2 - 1/2
    (the squared zeros of the physicists' H_n).  They start at the
    eigenvalues of its Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969),
    diagonal 2k + alpha + 1 and off-diagonal sqrt(k (k + alpha)), and their
    signs come from _ratio_signs, so the int chain is built only to fall
    back.  Any other map takes m0 and N from the int row of H_n, starts from
    the Newton polygon of log2|row[k] / D^k| as poly._newton_starts does,
    and takes its signs from _int_signs.
    """
    derivs = _derivs_at_0(f)
    last = functools.cache(lambda: _last_row(derivs, n))
    quad = _quadratic_map(f) if n >= 2 else None
    with np.errstate(all="ignore"):
        if quad:
            lam, c2 = quad
            m0, N = (n + 1) // 2, n // 2
            a, k, J = n % 2 - 0.5, np.arange(N), np.zeros((N, N))
            J[k, k] = 2 * k + a + 1
            J[k[1:], k[:-1]] = np.sqrt(k[1:] * (k[1:] + a))  # eigvalsh reads this half
            starts = -4 * c2 * np.linalg.eigvalsh(J) / np.square(lam)
            fast = functools.partial(_ratio_signs, lam, c2, n)
        else:
            row, D = last()
            if not any(row):
                raise DegreeZero(f"H_{n} is identically zero for this map")
            m0 = next(k for k, c in enumerate(row) if c)
            N = len(row) - 1 - m0
            if N == 0:  # H_n = c y^m0
                return poly_roots(_exact(row, D))
            hull = _upper_hull([(k, math.log2(abs(c)) - k * math.log2(D))
                                for k, c in enumerate(row) if c])
            starts = np.array(_circle_starts(
                [(k2 - k1, np.exp2((y1 - y2) / (k2 - k1)))
                 for (k1, y1), (k2, y2) in zip(hull, hull[1:])],
                np.pi / (2 * N), np.pi, np.exp))
            fast = functools.partial(_int_signs, row, D, m0)
        try:
            evaluate = _chain_step(derivs, n, m0)
        except OverflowError:  # a weight beyond the double range
            return poly_roots(_exact(*last()))
        z, ok = _batch_aberth(evaluate, starts[None])
        xs = sorted(float(r.real) for r in z[0])
        if ok[0] and all(map(math.isfinite, xs)) and _certified(xs, derivs, n, fast):
            return sorted([0j] * m0 + list(map(complex, xs)), key=lambda r: r.real)
    return poly_roots(_exact(*last()))


def _gap_row(f: MapSpec1D, n: int):
    """(row, D): the y^k coefficient of e^n(y) = y^n - H_n(y, 0) is row[k] / D**k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    D, rows = _int_chain(_derivs_at_0(f), n)
    row = deque(rows, maxlen=1)[0]
    return [-c for c in row[:n]] + [D**n - row[n]], D


def resolving_gap(f: MapSpec1D, n: int) -> Polynomial:
    return Polynomial(_floats(*_gap_row(f, n), n))


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
    if not _finite(b_n):
        raise ValueError(f"b_n must be finite, got {b_n!r}")
    _resonance_check(f.lam, n)

    D, rows = _int_chain(_derivs_at_0(f), n)
    rows = list(rows)
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
