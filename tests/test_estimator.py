"""Coefficient estimator: exact identities, symmetry, and decay rate.

The grid-exactness oracle is the classical DFT orthogonality identity:
projecting m >= 2b+1 equispaced samples of a bandwidth-b field recovers
every in-band coefficient exactly.  The rate check at the bottom reruns
the full pipeline at three sample densities and fits the decay per
coefficient, with an ordinary least-squares fit done inline.
"""

import cmath
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkloc import estimator
from unkloc.bandwidth import BandwidthConfig, detect_bandwidth, threshold_coefficient
from unkloc.estimator import (
    energy_estimate,
    estimate_coefficient,
    estimate_field,
    harmonics,
    riemann_coefficient,
)
from unkloc.field import BandlimitedField, random_field, reference_field
from unkloc.noise import NoiseSpec
from unkloc.sampling import RenewalSpec, acquire, generate_trace, spawn_rngs, trial_seed


def project_oracle(readings, k):
    """Scalar-loop projection, independent of the vectorized path."""
    m = len(readings)
    total = 0j
    for i, y in enumerate(readings, start=1):
        total += y * cmath.exp(-2j * math.pi * k * i / m)
    return total / m


# exact identities ------------------------------------------------------------


def test_constant_readings_dc_term_is_exact():
    y = np.full(100, 0.5)
    assert estimate_coefficient(y, 0) == 0.5 + 0j


def test_constant_readings_other_terms_vanish():
    # the phase sum is 0 in exact arithmetic; floats leave pairwise-summation
    # dust of order m * eps, so assert tiny rather than zero
    y = np.full(100, 0.5)
    for k in (1, 2, 7, -3):
        assert abs(estimate_coefficient(y, k)) < 1e-12


def test_single_reading():
    y = np.array([0.3])
    assert estimate_coefficient(y, 0) == 0.3 + 0j
    # m = 1: the phase at i = 1 is exp(-2 pi i k), unity for every k
    assert estimate_coefficient(y, 5) == pytest.approx(0.3 + 0j, abs=1e-12)


def test_matches_scalar_oracle():
    rng = np.random.Generator(np.random.Philox(key=21))
    y = rng.normal(size=53)
    for k in (-4, -1, 0, 2, 9):
        assert estimate_coefficient(y, k) == pytest.approx(project_oracle(y, k), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 200), k=st.integers(1, 20))
def test_conjugate_symmetry_is_bit_exact(seed, m, k):
    # real readings: A[-k] must equal conj(A[k]) down to the last bit, not
    # approximately; replay and serialization both lean on this
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = rng.uniform(-1.0, 1.0, size=m)
    plus = estimate_coefficient(y, k)
    minus = estimate_coefficient(y, -k)
    assert minus == plus.conjugate()


def test_estimate_field_layout_and_symmetry():
    rng = np.random.Generator(np.random.Philox(key=8))
    y = rng.uniform(-1.0, 1.0, size=77)
    est = estimate_field(y, 3)
    assert est.b == 3
    assert np.array_equal(est.coeffs[::-1], np.conj(est.coeffs))
    for k in range(-3, 4):
        assert est.coefficient(k) == estimate_coefficient(y, k)


def _bits(c):
    return c.real.hex(), c.imag.hex()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 200), k=st.integers(-20, 20))
def test_coefficient_is_the_scan_entry_bit_for_bit(seed, m, k):
    # one projection of harmonic |k| gives the bits the full scan gives there
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = np.round(rng.uniform(-1.0, 1.0, size=m), int(rng.integers(0, 3)))  # exact zeros too
    a = next(islice(harmonics(y), abs(k), None))
    assert _bits(estimate_coefficient(y, k)) == _bits(a if k >= 0 else a.conjugate())


def test_coefficient_projects_only_its_harmonic(monkeypatch):
    projected = []
    project = estimator._project
    monkeypatch.setattr(estimator, "_project", lambda y, w: projected.append(w) or project(y, w))
    y = np.linspace(-1.0, 1.0, 50)
    estimate_coefficient(y, -7)
    assert len(projected) == 1


def test_estimate_rejects_empty_or_matrix():
    with pytest.raises(ValueError):
        estimate_coefficient(np.array([]), 0)
    with pytest.raises(ValueError):
        estimate_coefficient(np.ones((3, 3)), 0)


@pytest.mark.parametrize("estimate", [
    lambda y: estimate_coefficient(y, 1),
    lambda y: estimate_field(y, 2),
    lambda y: energy_estimate(y, 0.0),
    lambda y: detect_bandwidth(y, BandwidthConfig(delta=0.5, sigma2=0.0, n=100)),
])
def test_complex_readings_are_refused(estimate):
    # the field is real, so are its readings; a complex vector is a caller error
    y = np.full(100, 0.5 + 0j)
    with pytest.raises(ValueError, match="real"):
        estimate(y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 120), b=st.integers(0, 12))
def test_estimates_never_exceed_largest_reading(seed, m, b):
    # averaging unit-modulus phases cannot beat the largest reading
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = rng.uniform(-1.0, 1.0, size=m)
    bound = float(np.max(np.abs(y))) + 1e-12
    assert np.all(np.abs(estimate_field(y, b).coeffs) <= bound)


@pytest.mark.parametrize("b_max", [2, 64])
def test_detection_keeps_the_thresholded_field_estimate_bit_for_bit(b_max):
    # the scan and the known-b estimator share one kernel: whatever B the
    # scan reached, its kept coefficients are the thresholded estimate
    rng = np.random.Generator(np.random.Philox(key=77))
    n = 20_000
    y = reference_field("paper2").evaluate(np.sort(rng.random(n))) + rng.uniform(-1.0, 1.0, n)
    config = BandwidthConfig(delta=0.1, sigma2=1.0 / 3.0, n=n, b_max=b_max)
    outcome = detect_bandwidth(y, config)
    assert outcome.status == ("CapReached" if b_max == 2 else "Stopped")
    est = estimate_field(y, outcome.b_scanned)
    expected = np.array([threshold_coefficient(c, config) for c in est.coeffs])
    assert outcome.kept_coeffs.tobytes() == expected.tobytes()


# grid exactness --------------------------------------------------------------


def test_equispaced_projection_recovers_in_band_exactly():
    for b in range(0, 17):
        field = random_field(b, seed=1000 + b)
        for m in range(2 * b + 1, max(4 * b, 2 * b + 1) + 1):
            for k in range(-b, b + 1):
                err = abs(riemann_coefficient(field, m, k) - field.coefficient(k))
                assert err < 1e-10, (b, m, k)


def test_short_grid_aliases():
    # m < 2b+1 folds k and k - m onto each other; paper2 has mass at 12 and 1
    field = reference_field("paper2")
    val = riemann_coefficient(field, 11, 1)
    expected = field.coefficient(1) + field.coefficient(12)  # 12 = 1 + 11
    assert val == pytest.approx(expected, abs=1e-10)


def test_riemann_error_scales_inversely_with_m():
    # out-of-exactness regime: error of the m-point projection of a known
    # field decays like 1/m with the derivative bound as the constant
    field = reference_field("paper1")
    k = 2
    c2 = _fd_constant(field, k)
    # m below 2b+1 = 7 exercises the aliased regime where the error is real
    for m in (3, 4, 5, 6, 10, 37, 200, 1000):
        err = abs(riemann_coefficient(field, m, k) - field.coefficient(k))
        assert m * err <= 1.05 * c2 + 1e-9


def _fd_constant(field, k, grid=8192):
    # grid max of |d/dx (g(x) exp(-2 pi i k x))| by central differences
    x = np.arange(grid) / grid
    h = field.evaluate(x) * np.exp(-2j * np.pi * k * x)
    return float(np.max(np.abs((np.roll(h, -1) - np.roll(h, 1)) * (grid / 2.0))))


# noiseless recovery ----------------------------------------------------------


def test_degenerate_noiseless_recovery_is_float_exact():
    field = reference_field("paper1")
    trace = generate_trace(RenewalSpec(100, "degenerate"), np.random.default_rng(0))
    read = acquire(trace, field, NoiseSpec("zero"), np.random.default_rng(0))
    est = estimate_field(read.readings, field.b)
    for k in range(-3, 4):
        assert abs(est.coefficient(k) - field.coefficient(k)) < 1e-12


def test_estimator_sees_only_readings():
    # location-oblivious by construction: two different traces carrying the
    # same reading vector give bitwise identical estimates
    y = np.linspace(-0.5, 0.5, 40)
    assert estimate_coefficient(y, 3) == estimate_coefficient(y.copy(), 3)


# energy estimate -------------------------------------------------------------


def test_energy_estimate_frozen_case():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    assert energy_estimate(y, 0.25) == pytest.approx(0.75, abs=1e-15)


def test_energy_estimate_can_go_negative():
    # small-sample fluctuation below sigma^2 is reported as is, not clamped
    assert energy_estimate(np.array([0.1]), 0.5) == pytest.approx(-0.49, abs=1e-15)


def test_energy_estimate_rejects_negative_variance():
    with pytest.raises(ValueError):
        energy_estimate(np.ones(4), -0.1)


def test_energy_estimate_unbiased_under_noise():
    field = reference_field("paper1")
    noise = NoiseSpec.uniform_sym(1.0)
    vals = []
    for trial in range(400):
        trace_rng, noise_rng = spawn_rngs(trial_seed(51, 2000, trial))
        trace = generate_trace(RenewalSpec.uniform(2000), trace_rng)
        read = acquire(trace, field, noise, noise_rng)
        vals.append(energy_estimate(read.readings, noise.variance))
    vals = np.asarray(vals)
    se = np.std(vals, ddof=1) / np.sqrt(vals.size)
    assert abs(np.mean(vals) - field.energy()) < 4 * se + 1e-3


# decay rate ------------------------------------------------------------------


def _ols_slope(ns, means):
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means))
    x = x - x.mean()
    return float(np.dot(x, y) / np.dot(x, x))


def test_per_coefficient_mse_decays_like_one_over_n():
    field = reference_field("paper1")
    noise = NoiseSpec.uniform_sym(1.0)
    ns = (1000, 10_000, 100_000)
    trials = 200
    mse = {k: [] for k in range(-3, 4)}
    for n in ns:
        acc = {k: 0.0 for k in mse}
        for trial in range(trials):
            trace_rng, noise_rng = spawn_rngs(trial_seed(7, n, trial))
            trace = generate_trace(RenewalSpec.uniform(n), trace_rng)
            read = acquire(trace, field, noise, noise_rng)
            est = estimate_field(read.readings, field.b)
            for k in acc:
                acc[k] += abs(est.coefficient(k) - field.coefficient(k)) ** 2
        for k in acc:
            mse[k].append(acc[k] / trials)
    for k, series in mse.items():
        slope = _ols_slope(ns, series)
        assert -1.3 < slope < -0.7, (k, slope, series)
