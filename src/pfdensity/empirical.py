"""Empirical oracles: orbit histograms, scaled zero samples, reference CDFs, KS.

The orbit simulator realises the invariant measure of a 1-D map by plain
iteration; histograms and empirical CDFs of orbits (or of polynomial zero
sets) are compared against reference laws (arcsine, half-semicircle) with
the Kolmogorov-Smirnov statistic.  Shape comparisons are affine-rescaled
to a common support first, because the dual-variable support of the
analytic densities and the physical support of an orbit differ by an
unstated scale.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import _finite
from .errors import DomainError, EmptySample, OrbitEscape

if TYPE_CHECKING:
    from .bell import MapSpec1D

__all__ = [
    "Histogram",
    "EmpiricalCDF",
    "ScaledZeros",
    "orbit_sample",
    "iterate_orbit",
    "zeros_to_scaled_sample",
    "ks_distance",
    "histogram_ks",
    "rescale",
    "arcsine_cdf",
    "half_semicircle_cdf",
]

ORBIT_GUARD = 1e6
_ORBIT_CHUNK = 1 << 12  # orbit steps between two guard checks
_UNROLL = 16  # Horner steps per pass of the generated loop, at most
_UNROLL_TERMS = 512  # and at most this many coefficients written out per pass
_HORNER_DEPTH = 64  # coefficients per expression: bounds the compiler's nesting


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    total: int
    out_of_range: int = 0

    def __post_init__(self):
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(np.asarray(self.counts) < 0):
            raise ValueError("counts must be >= 0")
        if int(np.sum(self.counts)) != self.total:
            raise ValueError("counts must sum to total")

    def cdf_at_edges(self) -> np.ndarray:
        if self.total == 0:
            raise EmptySample("the histogram has no counts")
        return np.concatenate([[0.0], np.cumsum(self.counts) / self.total])


@dataclass(frozen=True)
class EmpiricalCDF:
    points: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_sample(cls, values) -> "EmpiricalCDF":
        return cls(values)

    def __len__(self) -> int:
        return int(self.points.size)


def _splitmix64(seed: int) -> int:
    z = (seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _seed_perturbation(seed: int) -> float:
    # <= 1e-12, deterministic in the seed; breaks exact-period artefacts only
    return (_splitmix64(seed) / 2.0**64) * 1e-12


def _horner_lines(count: int, x: str, y: str) -> list:
    """Source lines that set y to (((c_0*x + c_1)*x + ...)*x + c_{count-1})*x,
    one expression per _HORNER_DEPTH coefficients through the local h."""
    lines, acc = [], "c_0"
    for i in range(1, count):
        if i % _HORNER_DEPTH == 0:
            lines.append(f"h = {acc}")
            acc = "h"
        acc = f"({acc})*{x} + c_{i}"
    return lines + [f"{y} = ({acc})*{x}"]


@functools.lru_cache(maxsize=32)
def _horner_chunk(count: int):
    """Generated `chunk(buf, lo, hi, x, c_0, .., c_{count-1})` and its unroll
    u: writes to buf[lo:hi], a buffer of doubles that struct addresses in
    bytes (8 to a double), the next hi - lo iterates of
    x -> P(x)*x, P(x) = (c_0*x + c_1)*x + ... + c_{count-1} by Horner.  It
    writes u steps to a loop pass, u = _UNROLL down to 1 as count grows past
    _UNROLL_TERMS / _UNROLL, so compiling a long step stays linear in count;
    each pass stores its u iterates with one struct `pack_into`.  The last
    pass may run up to u - 1 steps past hi, into buf[hi:hi + u - 1]; running
    on is harmless, since float products and sums overflow to inf or NaN and
    never raise."""
    unroll = max(1, min(_UNROLL, _UNROLL_TERMS // count))
    names = [f"x_{k}" for k in range(1, unroll)] + ["x"]
    unrolled = [line for x, y in zip(["x"] + names, names)
                for line in _horner_lines(count, x, y)]
    src = (f"def chunk(buf, lo, hi, x, {', '.join(f'c_{i}' for i in range(count))},"
           " pack_into=pack_into):\n"
           f"    for at in range(8 * lo, 8 * hi, {8 * unroll}):\n"
           + "".join(f"        {line}\n" for line in unrolled)
           + f"        pack_into(buf, at, {', '.join(names)})\n")
    scope = {"pack_into": struct.Struct(f"{unroll}d").pack_into}
    exec(compile(src, f"<horner {count}>", "exec"), scope)
    return scope["chunk"], unroll


def orbit_sample(f: MapSpec1D, x0: float, burn: int, keep: int,
                 seed: int = 0) -> np.ndarray:
    """x_{burn+1} .. x_{burn+keep} under x -> f(x) from a finite x0,
    guarded at |x| <= 1e6.

    The generated step computes f(x) - c = P(x)*x, c = f.coeffs[0] = +-0,
    and c is added once a chunk is stored, as one numpy sum.  The orbit has
    the bits of the loop that adds c at every step:
    - adding +-0 leaves every nonzero double unchanged;
    - an orbit that reaches a zero stays on zeros, since P(+-0) is finite;
    - +0.0 sends both signed zeros to +0.0;
    - -0.0 is the identity on every double."""
    if burn < 0:
        raise ValueError("burn must be >= 0")
    if keep < 1:
        raise ValueError("keep must be >= 1")
    if not _finite(x0):
        raise ValueError(f"x0 = {x0!r} is not finite")
    coeffs = tuple(reversed(f.coeffs[1:]))
    if coeffs[0] == 0:
        # Horner started at 0.0 * x + c, which can differ from a zero c in
        # its sign; a nonzero c equals it exactly, so only then start at c
        coeffs = (0.0,) + coeffs
    chunk, unroll = _horner_chunk(len(coeffs))
    x = x0 + _seed_perturbation(seed)
    # Iterate i = -burn .. keep - 1 in chunks of generated straight-line
    # Horner steps, stored in place: kept chunks (i >= 0) at out[i], burn-in
    # chunks over the head of out, which the kept ones overwrite.  out has
    # unroll - 1 spare doubles for the last pass's run-on, and each chunk
    # starts from the last iterate stored, not from the run-on.  Each chunk
    # is checked once, after it has run: an orbit that escapes runs on (to
    # inf, then NaN) to the chunk's end, and its first iterate with
    # ~(|x| <= 1e6) is the escape.  The chunk writes through a memoryview:
    # struct gets at its buffer faster than at the array's.
    out = np.empty(max(keep, min(burn, _ORBIT_CHUNK)) + unroll - 1)
    view = memoryview(out)
    starts = [*range(-burn, 0, _ORBIT_CHUNK), *range(0, keep, _ORBIT_CHUNK)]
    for lo, hi in zip(starts, starts[1:] + [keep]):
        at = max(lo, 0)
        end = at + hi - lo
        chunk(view, at, end, x, *coeffs)
        arr = out[at:end]
        arr += f.coeffs[0]
        bad = ~(np.abs(arr) <= ORBIT_GUARD)
        if bad.any():
            i = int(bad.argmax())
            raise OrbitEscape(burn + 1 + lo + i, arr.item(i))
        x = arr.item(-1)
    return out[:keep]


def _auto_edges(values: np.ndarray, bins: int) -> np.ndarray:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi - lo <= 0.0:
        pad = max(1e-12, abs(lo) * 1e-12)
        lo, hi = lo - pad, hi + pad
    return np.linspace(lo, hi, bins + 1)


def iterate_orbit(f: MapSpec1D, x0: float, burn: int, keep: int,
                  seed: int = 0, bins: int = 200) -> Histogram:
    """Histogram of the retained orbit in `bins` equal bins from its least
    to its greatest value, so every value is counted."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = orbit_sample(f, x0, burn, keep, seed)
    counts, edges = np.histogram(values, bins=_auto_edges(values, bins))
    return Histogram(edges=edges, counts=counts, total=int(counts.sum()))


class ScaledZeros(NamedTuple):
    values: list
    dropped: int


def zeros_to_scaled_sample(zeros, n: int, lam: float) -> ScaledZeros:
    """t_k = lam*sqrt(y_k/n)/2 for positive zeros y_k; the rest are counted."""
    values = []
    dropped = 0
    for y in zeros:
        if y > 0.0:
            values.append(lam * math.sqrt(y / n) / 2.0)
        else:
            dropped += 1
    values.sort()
    return ScaledZeros(values, dropped)


def _cdf_at(reference: Callable[[float], float], x) -> float:
    """reference(x), which a CDF keeps in [0, 1]; any other value, NaN
    included, is a DomainError rather than a term that max would drop."""
    fx = reference(float(x))
    if not 0.0 <= fx <= 1.0:
        raise DomainError(f"the reference CDF at x={float(x)!r} is {fx!r}, "
                          "outside [0, 1]")
    return fx


def ks_distance(sample: EmpiricalCDF, reference: Callable[[float], float]) -> float:
    """sup |F_emp - F_ref| for a sorted sample against a CDF callable."""
    if len(sample) == 0:
        raise EmptySample("KS distance needs a non-empty sample")
    n = len(sample)
    d = 0.0
    for k, x in enumerate(sample.points, start=1):
        fx = _cdf_at(reference, x)
        d = max(d, abs(k / n - fx), abs(fx - (k - 1) / n))
    return d


def histogram_ks(hist: Histogram, reference: Callable[[float], float]) -> float:
    """KS evaluated at the bin edges, where the histogram CDF is exact."""
    cdf = hist.cdf_at_edges()
    return max(abs(c - _cdf_at(reference, e)) for c, e in zip(cdf, hist.edges))


def rescale(values, lo: float, hi: float):
    """Affine map of the observed range of `values` onto [lo, hi]."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptySample("cannot rescale an empty sample")
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax - vmin <= 0.0:
        raise DomainError("cannot rescale a zero-width sample")
    return lo + (values - vmin) * ((hi - lo) / (vmax - vmin))


def arcsine_cdf(x: float) -> float:
    """Beta(1/2,1/2) CDF on (0, 1): (2/pi) asin(sqrt(x))."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x={x!r} outside [0.0, 1.0]")
    return (2.0 / math.pi) * math.asin(math.sqrt(x))


def half_semicircle_cdf(t: float) -> float:
    """Normalised semicircle mass on (0, 1): (2/pi)(t sqrt(1-t^2) + asin t).

    At some t within about 1.2e-11 below 1 the rounded formula reads
    1 + 2^-52, so the value is capped at 1."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t={t!r} outside [0, 1]")
    return min(1.0, (2.0 / math.pi) * (t * math.sqrt(1.0 - t * t) + math.asin(t)))
