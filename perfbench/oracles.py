"""Independent oracles for the benchmark's output checks.

Nothing here imports the program under test.  Exact values come from
Fraction arithmetic by formulas other than the program's; floating values
come from mpmath at `DPS` decimal digits, far above double precision, so
the relative error of an output against them is the output's own error.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

DPS = 40
# Unit roundoff of IEEE double: a correctly rounded output is never
# further than this from the exact value, relatively.
UNIT_ROUNDOFF = 2.0 ** -53


def rel_err(got, want) -> float:
    """|got - want| / |want| as a float; `want` may be exact or mpmath."""
    if isinstance(want, Fraction):
        diff = abs(Fraction(got) - want)
        return float(diff / abs(want))
    with mpmath.workdps(DPS):
        want = mpmath.mpmathify(want)
        return float(abs(mpmath.mpmathify(got) - want) / abs(want))


def digits(err: float) -> float:
    """-log10 of a relative error, floored at the unit roundoff."""
    return -math.log10(max(err, UNIT_ROUNDOFF))


# --- generating chains -------------------------------------------------------

def chain_coeffs(f_coeffs, n: int) -> list:
    """Exact coefficients of H_0(y,0) .. H_n(y,0) for f = sum f_i a^i.

    By Faa di Bruno, the y^k coefficient of H_m(y,0) is m!/k! [a^m] f(a)^k;
    the powers of f are truncated at degree n.  Row m lists k = 0..m.
    """
    f = [Fraction(c) for c in f_coeffs]
    powers = [[Fraction(1)] + [Fraction(0)] * n]
    for _ in range(n):
        prev = powers[-1]
        nxt = [Fraction(0)] * (n + 1)
        for i, p in enumerate(prev):
            if p:
                for j in range(1, min(len(f), n + 1 - i)):
                    if f[j]:
                        nxt[i + j] += p * f[j]
        powers.append(nxt)
    fact = [math.factorial(m) for m in range(n + 1)]
    return [[Fraction(fact[m], fact[k]) * powers[k][m] for k in range(m + 1)]
            for m in range(n + 1)]


def hermite_phys(m: int, x: Fraction) -> Fraction:
    """Physicists' Hermite H_m(x) by its three-term recurrence, exactly."""
    prev, cur = Fraction(1), 2 * x
    if m == 0:
        return prev
    for k in range(1, m):
        prev, cur = cur, 2 * x * cur - 2 * k * prev
    return cur


def triangular_bstar(h, lam: Fraction, n: int, b_n: Fraction) -> dict:
    """b*_1..b*_n of the triangular system, by exact back substitution."""
    b = {n: Fraction(b_n)}
    for k in range(n - 1, 0, -1):
        acc = sum(b[m] * h[m][k] for m in range(k + 1, n + 1))
        b[k] = acc / (1 - lam ** k)
    return b


def cancellation_residual(h, b: dict, n: int) -> list:
    """y^k coefficients, 1 <= k < n, of sum_m b*_m e^m(y), e^m = y^m - H_m."""
    out = []
    for k in range(1, n):
        total = Fraction(0)
        for m in range(1, n + 1):
            e_mk = (1 if m == k else 0) - (h[m][k] if k <= m else 0)
            total += b[m] * e_mk
        out.append(total)
    return out


# --- Hermite zeros and KS statistics -----------------------------------------

def hermite_positive_nodes(n: int) -> list:
    """Positive zeros of the physicists' H_n as mpmath numbers.

    Golub-Welsch nodes from numpy's hermgauss, polished by Newton steps on
    the three-term recurrence at DPS digits.
    """
    nodes, _ = np.polynomial.hermite.hermgauss(n)
    out = []
    with mpmath.workdps(DPS):
        for x0 in sorted(v for v in nodes if v > 0):
            x = mpmath.mpf(float(x0))
            for _ in range(6):
                prev, cur = mpmath.mpf(1), 2 * x
                for k in range(1, n):
                    prev, cur = cur, 2 * x * cur - 2 * k * prev
                x -= cur / (2 * n * prev)
            out.append(+x)
    return out


def half_semicircle_ks(values) -> mpmath.mpf:
    """KS distance of a sorted sample on [0, 1] to the half-semicircle law."""
    n = len(values)
    d = mpmath.mpf(0)
    with mpmath.workdps(DPS):
        for k, t in enumerate(values, start=1):
            t = mpmath.mpf(t)
            ft = 2 / mpmath.pi * (t * mpmath.sqrt(1 - t * t) + mpmath.asin(t))
            d = max(d, abs(mpmath.mpf(k) / n - ft), abs(ft - mpmath.mpf(k - 1) / n))
        return +d


def arcsine_histogram_ks(edges, counts) -> mpmath.mpf:
    """KS at the bin edges of a histogram, affinely rescaled onto [0, 1],
    against the arcsine law (2/pi) asin(sqrt(u))."""
    total = sum(counts)
    with mpmath.workdps(DPS):
        lo, hi = mpmath.mpf(edges[0]), mpmath.mpf(edges[-1])
        cum = 0
        d = mpmath.mpf(0)
        for i, e in enumerate(edges):
            if i:
                cum += counts[i - 1]
            u = (mpmath.mpf(e) - lo) / (hi - lo)
            ref = 2 / mpmath.pi * mpmath.asin(mpmath.sqrt(u))
            d = max(d, abs(mpmath.mpf(cum) / total - ref))
        return +d


# --- saddle-point densities --------------------------------------------------

def logistic_q(lam: float, s: float) -> mpmath.mpf:
    """(lam / 2 pi) sqrt(1/s - lam^2/4) for f = lam a - a^2/2."""
    with mpmath.workdps(DPS):
        lam, s = mpmath.mpf(lam), mpmath.mpf(s)
        return lam / (2 * mpmath.pi) * mpmath.sqrt(1 / s - lam * lam / 4)


def logistic_p(lam: float, s: float) -> mpmath.mpf:
    """-s q'(s) for the logistic q: lam / (2 pi sqrt(4 s - s^2 lam^2))."""
    with mpmath.workdps(DPS):
        lam, s = mpmath.mpf(lam), mpmath.mpf(s)
        return lam / (2 * mpmath.pi * mpmath.sqrt(4 * s - s * s * lam * lam))


def saddle_q_p(f_coeffs, s: float):
    """(q, p) of the dominant complex saddle of s f(a) - ln a, or None.

    Critical points solve s a f'(a) = 1: numpy's companion-matrix roots,
    polished by Newton steps at DPS digits.  Among the non-real ones the one
    with the largest Re(s f(a) - ln a) is selected, q = |Im f(a)| / pi, and
    p = -s q'(s) by implicit differentiation:
    a'(s) = -1 / (s^2 (f'(a) + a f''(a))), q' = sgn(Im f) Im(f'(a) a') / pi.
    """
    crit = [k * c * s for k, c in enumerate(f_coeffs)]
    crit[0] = -1.0
    while crit[-1] == 0:
        crit.pop()
    starts = np.roots(list(reversed(crit)))
    with mpmath.workdps(DPS):
        c = [mpmath.mpf(v) for v in f_coeffs]
        s = mpmath.mpf(s)
        d1 = [k * ck for k, ck in enumerate(c)][1:]
        d2 = [k * ck for k, ck in enumerate(d1)][1:]

        def ev(coeffs, a):
            acc = mpmath.mpc(0)
            for ck in reversed(coeffs):
                acc = acc * a + ck
            return acc

        best = None
        # Real coefficients: conjugates give the same q and p, and the
        # program's tie-break on Im(a) selects the upper one.
        for a0 in starts:
            if a0.imag <= 1e-8 * (1.0 + abs(a0)):
                continue
            a = mpmath.mpc(complex(a0))
            for _ in range(4):
                a -= (s * a * ev(d1, a) - 1) / (s * (ev(d1, a) + a * ev(d2, a)))
            key = ((s * ev(c, a) - mpmath.log(a)).real, a.imag)
            if best is None or key > best[0]:
                best = (key, a)
        if best is None:
            return None
        a = best[1]
        fa = ev(c, a)
        q = abs(fa.imag) / mpmath.pi
        da = -1 / (s * s * (ev(d1, a) + a * ev(d2, a)))
        dq = mpmath.sign(fa.imag) * (ev(d1, a) * da).imag / mpmath.pi
        return +q, -s * dq


def quartic_support_end(lam: float, c: float) -> mpmath.mpf:
    """First s > 0 at which s a f'(a) = 1 gains real roots, f = lam a + c a^4
    with lam > 0 > c: 1 / max_a (lam a + 4 c a^4), attained at
    a = (lam / (-16 c))^(1/3)."""
    with mpmath.workdps(DPS):
        lam, c = mpmath.mpf(lam), mpmath.mpf(c)
        a = mpmath.cbrt(lam / (-16 * c))
        return 1 / (lam * a + 4 * c * a ** 4)


# --- Lorenz ---------------------------------------------------------------------

def lorenz_fixed_points(rho, beta) -> list:
    """theta = 0 and alpha_+/- = (+-a, +-a, rho - 1), a = sqrt(beta (rho - 1))."""
    with mpmath.workdps(DPS):
        rho, beta = mpmath.mpf(rho), mpmath.mpf(beta)
        a = mpmath.sqrt(beta * (rho - 1))
        return [(-a, -a, rho - 1), (mpmath.mpf(0),) * 3, (a, a, rho - 1)]


def lorenz_cubic_roots(sigma, rho, beta, tag: str) -> list:
    """Roots of the factored characteristic cubics at theta and alpha_+/-,
    sorted by (real, imag)."""
    with mpmath.workdps(DPS):
        s, r, b = (mpmath.mpf(v) for v in (sigma, rho, beta))
        if tag == "theta":
            disc = mpmath.sqrt((s + 1) ** 2 - 4 * s * (1 - r))
            roots = [mpmath.mpc(-b), mpmath.mpc((-(s + 1) - disc) / 2),
                     mpmath.mpc((-(s + 1) + disc) / 2)]
        else:
            roots = [mpmath.mpc(z) for z in mpmath.polyroots(
                [1, s + b + 1, b * (s + r), 2 * s * b * (r - 1)],
                maxsteps=200, extraprec=4 * DPS)]
        return sorted(roots, key=lambda z: (float(z.real), float(z.imag)))
