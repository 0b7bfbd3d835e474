import copy
import math
import pickle

import numpy as np
import pytest

from pfdensity.bell import MapSpec1D
from pfdensity.empirical import (EmpiricalCDF, Histogram, _seed_perturbation,
                                 arcsine_cdf, half_semicircle_cdf,
                                 histogram_ks, iterate_orbit, ks_distance,
                                 orbit_sample, rescale, zeros_to_scaled_sample)
from pfdensity.errors import DomainError, EmptySample, OrbitEscape

CHAOTIC = MapSpec1D((0.0, 4.0, -0.5))  # conjugate to the fully chaotic case


def test_attracting_orbit_collapses_to_fixed_point():
    hist = iterate_orbit(MapSpec1D.logistic(0.5), 0.1, burn=1000, keep=500)
    assert abs(hist.edges[0]) < 1e-6 and abs(hist.edges[-1]) < 1e-6
    assert hist.total == 500


def test_identity_orbit_is_point_mass():
    hist = iterate_orbit(MapSpec1D.identity(), 0.3, burn=10, keep=100)
    assert hist.total == 100
    assert hist.edges[0] == pytest.approx(0.3, abs=1e-9)
    assert hist.edges[-1] == pytest.approx(0.3, abs=1e-9)


def test_chaotic_orbit_close_to_arcsine():
    hist = iterate_orbit(CHAOTIC, 1.7, burn=1000, keep=100_000)
    scaled = Histogram(edges=rescale(hist.edges, 0.0, 1.0), counts=hist.counts,
                       total=hist.total)
    assert histogram_ks(scaled, arcsine_cdf) < 0.02


def test_orbit_escape_reports_step():
    with pytest.raises(OrbitEscape) as exc:
        orbit_sample(MapSpec1D((0.0, 2.0)), 1.0, burn=0, keep=100)
    assert exc.value.step == 20  # 2^20 is the first iterate beyond 1e6


def test_orbit_deterministic_in_seed():
    a = orbit_sample(CHAOTIC, 1.7, burn=100, keep=1000, seed=42)
    b = orbit_sample(CHAOTIC, 1.7, burn=100, keep=1000, seed=42)
    c = orbit_sample(CHAOTIC, 1.7, burn=100, keep=1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _reference_orbit(f, x0, burn, keep, seed=0):
    """The orbit loop as it stood before the Horner start and the split
    burn-in, kept verbatim as the reference."""
    from pfdensity.empirical import ORBIT_GUARD
    coeffs = tuple(reversed(f.coeffs))
    x = x0 + _seed_perturbation(seed)
    out = np.empty(keep)
    step = 0
    for step in range(1, burn + keep + 1):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        x = acc
        if not (abs(x) <= ORBIT_GUARD):
            raise OrbitEscape(step, x)
        if step > burn:
            out[step - burn - 1] = x
    return out


_ON_ROOT = -1.0 - _seed_perturbation(0)  # starts at -1.0 under seed 0


@pytest.mark.parametrize("coeffs, x0, burn, keep", [
    ((0.0, 4.0, -0.5), 1.7, 100, 500),
    ((0.0, 4.0, -0.5), 1.7, 9000, 10_000),  # several chunks of each
    ((0.0, 0.5, -0.5), 0.1, 0, 500),
    ((0.0, 3.9, -3.9, 0.0), 0.4, 7, 500),   # trailing zero coefficient
    ((0.0, 1.0, 0.0, -0.0), 0.25, 3, 500),  # -0.0 on top
    ((-0.0, -0.0), 0.5, 2, 500),            # the zero map keeps its zero signs
    ((0.0, -1.0), -0.0, 0, 500),
    # every remainder mod 8 of the burn-in and of the last kept chunk
    *[((0.0, 3.7, -3.7), 0.3, burn, 4096 + 5 * burn + 1) for burn in range(8)],
    *[((0.0, 3.7, -3.7), 0.3, 4096 + burn, burn + 1) for burn in range(8)],
    # x -> x*(1 + x) + c from exactly -1, a root of P(x) = 1 + x: the bare
    # product P(x)*x is -0.0, which c = 0.0 turns into 0.0 and c = -0.0 keeps
    ((0.0, 1.0, 1.0), _ON_ROOT, 0, 500),
    ((-0.0, 1.0, 1.0), _ON_ROOT, 0, 500),
    ((-0.0, 1.0, 1.0), _ON_ROOT, 3, 500),
    # the remainders 8 .. 15 mod 16, the unroll of a quadratic map
    *[((0.0, 3.7, -3.7), 0.3, burn, 4096 + 5 * burn + 1) for burn in range(8, 16)],
    *[((0.0, 3.7, -3.7), 0.3, 4096 + burn, burn + 1) for burn in range(8, 16)],
])
def test_orbit_matches_the_reference_loop_bitwise(coeffs, x0, burn, keep):
    f = MapSpec1D(coeffs)
    if x0 == _ON_ROOT:
        assert x0 + _seed_perturbation(0) == -1.0
    for seed in (0, 9):
        got = orbit_sample(f, x0, burn, keep, seed=seed)
        want = _reference_orbit(f, x0, burn, keep, seed=seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        again = orbit_sample(f, x0, burn, keep, seed=seed)
        assert got.shape == again.shape == (keep,)
        assert not np.shares_memory(got, again)


def test_high_degree_orbit_matches_the_reference_loop_bitwise():
    # degree 301: one Horner expression would nest 302 parentheses deep,
    # past what the compiler accepts
    f = MapSpec1D((0.0, 0.5) + (1e-3, -2e-3, 0.0) * 100)
    got = orbit_sample(f, 0.3, 10, 100, seed=5)
    assert got.tobytes() == _reference_orbit(f, 0.3, 10, 100, seed=5).tobytes()


@pytest.mark.parametrize("degree", [71, 200, 5001])
def test_long_step_orbit_matches_the_reference_loop_bitwise(degree):
    # 7, 2 and 1 unrolled steps per pass of the generated loop
    tail = ((1e-6, -2e-6) * degree)[:degree - 1]
    f = MapSpec1D((0.0, 0.5) + tail)
    assert f.degree == degree
    got = orbit_sample(f, 0.3, 7, 30, seed=2)
    assert got.tobytes() == _reference_orbit(f, 0.3, 7, 30, seed=2).tobytes()


@pytest.mark.parametrize("burn", [0, 10, 19, 20, 5000])
def test_orbit_escape_step_matches_the_reference_loop(burn):
    f = MapSpec1D((0.0, 2.0))
    with pytest.raises(OrbitEscape) as want:
        _reference_orbit(f, 1.0, burn, 5000)
    with pytest.raises(OrbitEscape) as got:
        orbit_sample(f, 1.0, burn, 5000)
    assert got.value.step == want.value.step == 20
    assert str(got.value) == str(want.value)


_GROWTH = 1.002  # f(x) = 1.002 x crosses 1e6 at a step set by x0


def _escape_at(step):
    """x0 whose orbit under x -> 1.002 x first leaves |x| <= 1e6 at `step`,
    half a step clear of the bound on either side."""
    return 1e6 * _GROWTH ** -(step - 0.5)


@pytest.mark.parametrize("burn, step", [
    (0, 1), (0, 4095), (0, 4096), (0, 4097), (0, 8192),  # kept chunks' ends
    (5000, 1), (5000, 4096), (5000, 4097), (5000, 5000),  # burn-in chunks
    (5000, 5001), (5000, 5000 + 4096), (5000, 5000 + 4097),  # kept after burn
])
def test_chunked_escape_check_matches_the_reference_loop(burn, step):
    f = MapSpec1D((0.0, _GROWTH))
    x0 = _escape_at(step)
    with pytest.raises(OrbitEscape) as want:
        _reference_orbit(f, x0, burn, 3 * 4096)
    with pytest.raises(OrbitEscape) as got:
        orbit_sample(f, x0, burn, 3 * 4096)
    assert got.value.step == want.value.step == step
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("burn", [0, 7, 5000])
def test_escape_reports_the_first_bad_iterate_before_inf_and_nan(burn):
    # f(x) = 2x + x^2 with a zero top coefficient: the orbit leaves the guard,
    # overflows to inf a few steps later, and 0.0 * inf then makes it NaN,
    # all inside one chunk; the escape is the first iterate past 1e6.
    f = MapSpec1D((0.0, 2.0, 1.0, 0.0))
    x, seen = 1e-3, []
    while not math.isnan(x):
        x = (((0.0 * x + 0.0) * x + 1.0) * x + 2.0) * x + 0.0
        seen.append(x)
    assert math.isinf(seen[-2]) and len(seen) < 4096
    with pytest.raises(OrbitEscape) as want:
        _reference_orbit(f, 1e-3, burn, 4096)
    with pytest.raises(OrbitEscape) as got:
        orbit_sample(f, 1e-3, burn, 4096)
    assert got.value.step == want.value.step > 1
    assert math.isfinite(got.value.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_non_finite_start_is_rejected_before_iterating(x0):
    with pytest.raises(ValueError, match="x0 = .* is not finite"):
        orbit_sample(CHAOTIC, x0, burn=0, keep=10)


def test_zero_signs_of_two_maps_stay_apart():
    # From x = 0.0, x -> -x + c gives -0.0, 0.0, -0.0, ... for c = -0.0 and
    # 0.0 throughout for c = 0.0; the generated step takes each map's own c.
    x0 = -_seed_perturbation(0)
    maps = {"plus": MapSpec1D((0.0, -1.0)), "minus": MapSpec1D((-0.0, -1.0))}
    runs = {}
    for order in (("plus", "minus"), ("minus", "plus")):
        for name in order:
            got = orbit_sample(maps[name], x0, 3, 64).tobytes()
            assert got == _reference_orbit(maps[name], x0, 3, 64).tobytes()
            assert runs.setdefault(name, got) == got
    assert runs["plus"] != runs["minus"]


def test_map_survives_pickle_and_deepcopy():
    want = orbit_sample(CHAOTIC, 1.7, 100, 5000, seed=4)
    for twin in (pickle.loads(pickle.dumps(CHAOTIC)), copy.deepcopy(CHAOTIC)):
        assert twin == CHAOTIC
        assert orbit_sample(twin, 1.7, 100, 5000, seed=4).tobytes() == want.tobytes()


def test_seed_perturbation_bounded():
    a = orbit_sample(MapSpec1D.identity(), 0.5, burn=0, keep=1, seed=12345)
    assert 0.0 <= a[0] - 0.5 <= 1e-12


def test_orbit_rejects_negative_burn_and_no_bins():
    with pytest.raises(ValueError, match="burn must be >= 0"):
        orbit_sample(CHAOTIC, 0.3, burn=-5, keep=10)
    with pytest.raises(ValueError, match="keep must be >= 1"):
        orbit_sample(CHAOTIC, 0.3, burn=10, keep=0)
    with pytest.raises(ValueError, match="bins must be >= 1"):
        iterate_orbit(CHAOTIC, 0.3, burn=10, keep=10, bins=0)


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(edges=np.array([0.0, 0.0, 1.0]), counts=np.array([1, 1]), total=2)
    with pytest.raises(ValueError):
        Histogram(edges=np.array([0.0, 1.0]), counts=np.array([1]), total=5)


def test_ks_at_quantiles():
    n = 100
    pts = [math.sin(math.pi * (k - 0.5) / (2 * n)) ** 2 for k in range(1, n + 1)]
    # pts are the arcsine quantiles at (k-1/2)/n
    d = ks_distance(EmpiricalCDF.from_sample(pts), arcsine_cdf)
    assert d <= 0.5 / n + 1e-12


def test_ks_degenerate_sample():
    d = ks_distance(EmpiricalCDF.from_sample([0.0]),
                    lambda x: min(1.0, max(0.0, x)))
    assert d == 1.0


def test_ks_empty_sample():
    with pytest.raises(EmptySample):
        ks_distance(EmpiricalCDF(), arcsine_cdf)


def test_ks_affine_invariance():
    rng = np.random.default_rng(5)
    sample = np.sort(rng.uniform(0.0, 1.0, 500))
    base = ks_distance(EmpiricalCDF(sample), arcsine_cdf)
    lo, hi = -3.0, 11.0
    moved = ks_distance(EmpiricalCDF(lo + sample * (hi - lo)),
                        lambda x: arcsine_cdf((x - lo) / (hi - lo)))
    assert abs(moved - base) < 1e-15


@pytest.mark.parametrize("value", [math.nan, -1e-300, 1.0000000000000002])
def test_ks_distance_rejects_an_impossible_reference_value(value):
    # NaN compares false, so max used to drop it and return 0.0
    sample = EmpiricalCDF.from_sample([0.25, 0.5])
    with pytest.raises(DomainError, match=r"x=0\.25 is .*outside \[0, 1\]"):
        ks_distance(sample, lambda x: value)


@pytest.mark.parametrize("value", [math.nan, -0.5, 2.0])
def test_histogram_ks_rejects_an_impossible_reference_value(value):
    # NaN made the result nan
    hist = Histogram(edges=np.array([0.0, 0.5, 1.0]), counts=np.array([1, 1]), total=2)
    with pytest.raises(DomainError, match=r"x=0\.5 is .*outside \[0, 1\]"):
        histogram_ks(hist, lambda x: 0.0 if x < 0.5 else value)


def test_half_semicircle_cdf_stays_within_one_below_one():
    # the rounded (2/pi)(t sqrt(1-t^2) + asin t) reads 1 + 2^-52 at these t
    ts = [0.9999999999888586, 0.9999999999999978, 0.9999999999999998]
    assert [half_semicircle_cdf(t) for t in ts] == [1.0] * 3
    # the whole sample lies where the reference CDF is 1: no DomainError
    assert ks_distance(EmpiricalCDF.from_sample(ts), half_semicircle_cdf) == 1.0


def test_zeros_to_scaled_sample_endpoint():
    lam, n = 2.0, 64
    out = zeros_to_scaled_sample([n * 4.0 / (lam * lam)], n, lam)
    assert out.values == [1.0]
    assert out.dropped == 0


def test_zeros_to_scaled_sample_empty():
    out = zeros_to_scaled_sample([], 64, 2.0)
    assert out.values == [] and out.dropped == 0


def test_zeros_to_scaled_sample_drops_nonpositive():
    out = zeros_to_scaled_sample([-1.0, 0.0, 16.0], 64, 2.0)
    assert out.dropped == 2
    assert out.values == [0.5]


def test_arcsine_cdf_values():
    assert arcsine_cdf(0.5) == pytest.approx(0.5)
    assert arcsine_cdf(0.0) == 0.0
    assert arcsine_cdf(1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        arcsine_cdf(1.5)


def test_half_semicircle_cdf_values():
    assert half_semicircle_cdf(1.0) == pytest.approx(1.0)
    assert half_semicircle_cdf(0.0) == 0.0
    # (2/pi)(0.5 sqrt(0.75) + pi/6)
    assert half_semicircle_cdf(0.5) == pytest.approx(0.6089977810442294, abs=1e-15)
    with pytest.raises(DomainError):
        half_semicircle_cdf(-0.1)


@pytest.mark.parametrize("cdf", [arcsine_cdf, half_semicircle_cdf])
def test_reference_cdf_rejects_nan(cdf):
    with pytest.raises(DomainError):
        cdf(math.nan)


def test_rescale_zero_width_rejected():
    with pytest.raises(DomainError):
        rescale([1.0, 1.0], 0.0, 1.0)


def test_rescale_empty_sample_rejected():
    with pytest.raises(EmptySample, match="cannot rescale an empty sample"):
        rescale([], 0.0, 1.0)


def test_empirical_cdf_sorts():
    e = EmpiricalCDF.from_sample([3.0, 1.0, 2.0])
    assert np.array_equal(e.points, [1.0, 2.0, 3.0])
    assert len(e) == 3
