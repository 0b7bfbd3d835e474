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

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bell import MapSpec1D
from .errors import DomainError, EmptySample, OrbitEscape

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
_ORBIT_CHUNK = 1 << 12  # orbit steps per list before they go into the array


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    total: int
    out_of_range: int = 0

    def __post_init__(self):
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("edges must be strictly increasing")
        if int(np.sum(self.counts)) != self.total:
            raise ValueError("counts must sum to total")

    def cdf_at_edges(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.counts) / self.total])


@dataclass(frozen=True)
class EmpiricalCDF:
    points: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size and np.any(np.diff(pts) < 0):
            pts = np.sort(pts)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_sample(cls, values) -> "EmpiricalCDF":
        return cls(np.sort(np.asarray(values, dtype=float)))

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


def orbit_sample(f: MapSpec1D, x0: float, burn: int, keep: int,
                 seed: int = 0) -> np.ndarray:
    """x_{burn+1} .. x_{burn+keep} under x -> f(x), guarded at |x| <= 1e6."""
    if burn < 0:
        raise ValueError("burn must be >= 0")
    if keep < 1:
        raise ValueError("keep must be >= 1")
    coeffs = tuple(reversed(f.coeffs))
    if coeffs[0] == 0:
        # Horner started at 0.0 * x + c, which can differ from a zero c in
        # its sign; a nonzero c equals it exactly, so only then start at c
        coeffs = (0.0,) + coeffs
    lead, *rest = coeffs
    x = x0 + _seed_perturbation(seed)
    out = np.empty(keep)
    # Iterate i = -burn .. keep - 1 in chunks that each fill a short list,
    # so no step tests its index and the list never holds the whole orbit;
    # burn-in chunks (i < 0) are dropped.
    starts = [*range(-burn, 0, _ORBIT_CHUNK), *range(0, keep, _ORBIT_CHUNK)]
    for lo, hi in zip(starts, starts[1:] + [keep]):
        chunk = []
        append = chunk.append
        for i in range(lo, hi):
            acc = lead
            for c in rest:
                acc = acc * x + c
            x = acc
            if not (abs(x) <= ORBIT_GUARD):
                raise OrbitEscape(burn + 1 + i, x)
            append(x)
        if lo >= 0:
            out[lo:hi] = chunk
    return out


def _auto_edges(values: np.ndarray, bins: int) -> np.ndarray:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi - lo <= 0.0:
        pad = max(1e-12, abs(lo) * 1e-12)
        lo, hi = lo - pad, hi + pad
    return np.linspace(lo, hi, bins + 1)


def iterate_orbit(f: MapSpec1D, x0: float, burn: int, keep: int,
                  seed: int = 0, bins: int = 200, edges=None) -> Histogram:
    """Histogram of the retained orbit; values outside explicit edges are
    counted in out_of_range rather than silently dropped."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = orbit_sample(f, x0, burn, keep, seed)
    if edges is None:
        edges = _auto_edges(values, bins)
    else:
        edges = np.asarray(edges, dtype=float)
    inside = values[(values >= edges[0]) & (values <= edges[-1])]
    counts, _ = np.histogram(inside, bins=edges)
    return Histogram(edges=edges, counts=counts, total=int(inside.size),
                     out_of_range=int(values.size - inside.size))


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


def ks_distance(sample: EmpiricalCDF, reference: Callable[[float], float]) -> float:
    """sup |F_emp - F_ref| for a sorted sample against a CDF callable."""
    if len(sample) == 0:
        raise EmptySample("KS distance needs a non-empty sample")
    n = len(sample)
    d = 0.0
    for k, x in enumerate(sample.points, start=1):
        fx = reference(float(x))
        d = max(d, abs(k / n - fx), abs(fx - (k - 1) / n))
    return d


def histogram_ks(hist: Histogram, reference: Callable[[float], float]) -> float:
    """KS evaluated at the bin edges, where the histogram CDF is exact."""
    cdf = hist.cdf_at_edges()
    return max(abs(c - reference(float(e))) for c, e in zip(cdf, hist.edges))


def rescale(values, lo: float, hi: float):
    """Affine map of the observed range of `values` onto [lo, hi]."""
    values = np.asarray(values, dtype=float)
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    if vmax - vmin <= 0.0:
        raise DomainError("cannot rescale a zero-width sample")
    return lo + (values - vmin) * ((hi - lo) / (vmax - vmin))


def arcsine_cdf(x: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Beta(1/2,1/2) CDF on (lo, hi): (2/pi) asin(sqrt((x-lo)/(hi-lo)))."""
    if hi <= lo:
        raise DomainError("need hi > lo")
    u = (x - lo) / (hi - lo)
    if u < 0.0 or u > 1.0:
        raise DomainError(f"x={x!r} outside [{lo!r}, {hi!r}]")
    return (2.0 / math.pi) * math.asin(math.sqrt(u))


def half_semicircle_cdf(t: float) -> float:
    """Normalised semicircle mass on (0, 1): (2/pi)(t sqrt(1-t^2) + asin t)."""
    if t < 0.0 or t > 1.0:
        raise DomainError(f"t={t!r} outside [0, 1]")
    return (2.0 / math.pi) * (t * math.sqrt(1.0 - t * t) + math.asin(t))
