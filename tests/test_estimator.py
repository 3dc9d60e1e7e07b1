"""Coefficient estimator: exact identities, symmetry, and decay rate.

The grid-exactness oracle is the classical DFT orthogonality identity:
projecting m >= 2b+1 equispaced samples of a bandwidth-b field recovers
every in-band coefficient exactly.  The rate check at the bottom reruns
the full pipeline at three sample densities and fits the decay per
coefficient, with an ordinary least-squares fit done inline.
"""

import cmath
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkloc.bandwidth import BandwidthConfig, detect_bandwidth, threshold_coefficient
from unkloc import estimator
from unkloc.estimator import energy_estimate, estimate_field, harmonics
from unkloc.field import BLOCK, phase, random_field, reference_field
from unkloc.noise import NoiseSpec
from unkloc.sampling import RenewalLaw, RenewalSpec, acquire, generate_trace, spawn_rngs, trial_seed


def project_oracle(readings, k):
    """Scalar-loop projection, independent of the vectorized path."""
    m = len(readings)
    total = 0j
    for i, y in enumerate(readings, start=1):
        total += y * cmath.exp(-2j * math.pi * k * i / m)
    return total / m


def coefficient(readings, k):
    """Ordinal-grid estimate of coefficient k alone, from the smallest field
    estimate that holds it."""
    return estimate_field(readings, abs(k)).coefficient(k)


def equispaced(field, m):
    """The field estimated from its exact values on the m-point grid i/m."""
    return estimate_field(field.evaluate(np.arange(1, m + 1) / m), field.b)


# exact identities ------------------------------------------------------------


def test_constant_readings_dc_term_is_exact():
    y = np.full(100, 0.5)
    assert coefficient(y, 0) == 0.5 + 0j


def test_constant_readings_other_terms_vanish():
    # the phase sum is 0 in exact arithmetic; floats leave pairwise-summation
    # dust of order m * eps, so assert tiny rather than zero
    y = np.full(100, 0.5)
    for k in (1, 2, 7, -3):
        assert abs(coefficient(y, k)) < 1e-12


def test_single_reading():
    y = np.array([0.3])
    assert coefficient(y, 0) == 0.3 + 0j
    # m = 1: the phase at i = 1 is exp(-2 pi i k), unity for every k
    assert coefficient(y, 5) == pytest.approx(0.3 + 0j, abs=1e-12)


def test_matches_scalar_oracle():
    rng = np.random.Generator(np.random.Philox(key=21))
    y = rng.normal(size=53)
    for k in (-4, -1, 0, 2, 9):
        assert coefficient(y, k) == pytest.approx(project_oracle(y, k), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 200), k=st.integers(1, 20))
def test_conjugate_symmetry_is_bit_exact(seed, m, k):
    # real readings: A[-k] must equal conj(A[k]) down to the last bit, not
    # approximately; replay and serialization both lean on this
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = rng.uniform(-1.0, 1.0, size=m)
    plus = coefficient(y, k)
    minus = coefficient(y, -k)
    assert minus == plus.conjugate()


def test_estimate_field_layout_and_symmetry():
    rng = np.random.Generator(np.random.Philox(key=8))
    y = rng.uniform(-1.0, 1.0, size=77)
    est = estimate_field(y, 3)
    assert est.b == 3
    assert np.array_equal(est.coeffs[::-1], np.conj(est.coeffs))
    for k in range(-3, 4):
        assert est.coefficient(k) == coefficient(y, k)


def _bits(c):
    return c.real.hex(), c.imag.hex()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 200), k=st.integers(-20, 20))
def test_coefficient_is_the_scan_entry_bit_for_bit(seed, m, k):
    # one projection of harmonic |k| gives the bits the full scan gives there
    rng = np.random.Generator(np.random.Philox(key=seed))
    y = np.round(rng.uniform(-1.0, 1.0, size=m), int(rng.integers(0, 3)))  # exact zeros too
    a = next(islice(harmonics(y), abs(k), None))
    assert _bits(coefficient(y, k)) == _bits(a if k >= 0 else a.conjugate() if a else 0j)


def test_an_exactly_zero_estimate_reads_plus_zero_on_both_halves():
    # the conjugate of 0j would be -0j; a field built from its half mirrors a zero as +0j
    assert {_bits(c) for c in estimate_field(np.zeros(5), 2).coeffs} == {_bits(0j)}


# leaf kernel -----------------------------------------------------------------


def full_length_harmonics(y):
    """A[0], A[1], ... with one M-point phase vector per harmonic (ones,
    then each the last times the base) and np.sum over all M products: the
    kernel the leaf kernel must match bit for bit."""
    m = y.size
    w = np.ones(m, dtype=complex)
    base = np.exp((-2j * np.pi / m) * np.arange(1, m + 1))
    while True:
        yield complex(float(np.sum(y * w.real)), float(np.sum(y * w.imag))) / m
        w = w * base


def _with_infinities(rng, m):
    y = rng.normal(size=m)
    y[:: max(1, m // 3)] = np.inf
    y[m // 2] = -np.inf
    return y


# each draws m readings of one kind from rng
_READINGS = {
    "random": lambda rng, m: rng.normal(size=m),
    "negative": lambda rng, m: -rng.uniform(0.1, 2.0, size=m),
    "negative_zero": lambda rng, m: np.full(m, -0.0),
    "int64": lambda rng, m: rng.integers(-(2**40), 2**40, size=m),
    "float32": lambda rng, m: rng.normal(size=m).astype(np.float32),
    "infinities": _with_infinities,
}
# the leaves hold at most field.BLOCK points
_LEAF_EDGE_SIZES = [1, 7, 8, 9, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 8, 65537, 99991,
                    100000]


def _complex_hexes(w):
    return [(z.real.hex(), z.imag.hex()) for z in np.asarray(w).tolist()]


def test_rows_follow_libm_sin_and_cos_through_the_phase_builder():
    # field.phase writes cos and sin where evaluate and the leaf kernel took
    # np.exp of a complex argument with real part +0; rows keep their bits
    # only while libm's exp, cos and sin round those phases alike
    x = np.concatenate([np.random.default_rng(3).random(100_000), [0.0, 0.5, 1.0]])
    assert _complex_hexes(phase((2.0 * np.pi) * x)) == _complex_hexes(np.exp(2j * np.pi * x))
    for m in _LEAF_EDGE_SIZES:
        i = np.arange(1, m + 1)
        assert _complex_hexes(phase((-2.0 * np.pi / m) * i)) == _complex_hexes(np.exp((-2j * np.pi / m) * i))
    # at x = -0.0 the old argument was (-0.0, +0.0), so np.exp gave 1 + j(+0.0)
    # where the builder gives exp(j(-0.0)) = 1 + j(-0.0); evaluate's first
    # step e^1 = 1 * e1 reads +0.0 from either, and test_field checks the values
    assert _complex_hexes(phase(np.array([-0.0]))) == [((1.0).hex(), (-0.0).hex())]
    assert _complex_hexes(np.exp(2j * np.pi * np.array([-0.0]))) == [((1.0).hex(), (0.0).hex())]


@pytest.mark.parametrize("kind", sorted(_READINGS))
@pytest.mark.parametrize("m", _LEAF_EDGE_SIZES)
def test_leaf_kernel_matches_the_full_length_kernel_bit_for_bit(m, kind):
    y = _READINGS[kind](np.random.default_rng(m), m)
    with np.errstate(invalid="ignore"):  # inf * 0.0
        expected = [_bits(c) for c in islice(full_length_harmonics(y), 13)]
        assert [_bits(c) for c in islice(harmonics(y), 13)] == expected
        for b in (0, 3, 12):
            if kind == "infinities":  # A[0] is not finite, and no field holds it
                with pytest.raises(ValueError, match="finite"):
                    estimate_field(y, b)
                continue
            est = estimate_field(y, b)
            assert [_bits(complex(c)) for c in est.coeffs[b:]] == expected[: b + 1]


def test_leaf_cuts_need_the_multiple_of_8_rule(monkeypatch):
    # np.sum cuts a piece at n//2 rounded down to a multiple of 8; cut at
    # n//2 alone, the leaves add up another tree and the last bits move
    y = np.random.default_rng(3).normal(size=2 * BLOCK + 8)
    expected = [_bits(c) for c in islice(full_length_harmonics(y), 4)]
    assert [_bits(c) for c in islice(harmonics(y), 4)] == expected
    monkeypatch.setattr(estimator, "_half", lambda n: n // 2)
    assert [_bits(c) for c in islice(harmonics(y), 4)] != expected


@pytest.mark.parametrize("m", _LEAF_EDGE_SIZES + [3 * BLOCK + 5, 1_000_003])
def test_leaf_sums_fold_to_np_sum(m):
    # the leaves tile [0, m) in order, and adding np.sum of each up the
    # tree is np.sum over all m: a numpy whose sum cuts differently fails here
    y = np.random.default_rng(m).normal(size=m)
    leaves = []
    folded = estimator._pairwise(lambda lo, n: leaves.append((lo, n)) or np.sum(y[lo : lo + n]), 0, m)
    assert [lo for lo, _ in leaves] == [0, *np.cumsum([n for _, n in leaves])[:-1]]
    assert sum(n for _, n in leaves) == m and all(0 < n <= BLOCK for _, n in leaves)
    assert float(folded).hex() == float(np.sum(y)).hex()


def test_estimate_field_temporaries_are_leaf_sized():
    # a full-length kernel holds about 4.6 MiB of M-point temporaries here
    y = np.random.default_rng(4).normal(size=100_000)
    tracemalloc.start()
    try:
        estimate_field(y, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20


def test_estimate_rejects_empty_or_matrix():
    with pytest.raises(ValueError):
        coefficient(np.array([]), 0)
    with pytest.raises(ValueError):
        coefficient(np.ones((3, 3)), 0)
    with pytest.raises(ValueError, match="bandwidth b must be an integer >= 0"):
        estimate_field(np.ones(5), -1)


@pytest.mark.parametrize("b", [True, 1.5, "2", None])
def test_estimate_field_refuses_a_bandwidth_that_is_not_a_whole_number(b):
    # as BandlimitedField refuses it: True is not b = 1, and 1.5 is no islice bound
    with pytest.raises(ValueError, match=f"bandwidth b must be an integer >= 0, got {b!r}"):
        estimate_field(np.ones(5), b)


@pytest.mark.parametrize("estimate", [
    lambda y: coefficient(y, 1),
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
    assert outcome.kept.coeffs.tobytes() == expected.tobytes()


# grid exactness --------------------------------------------------------------


def test_equispaced_projection_recovers_in_band_exactly():
    for b in range(0, 17):
        field = random_field(b, seed=1000 + b)
        for m in range(2 * b + 1, max(4 * b, 2 * b + 1) + 1):
            est = equispaced(field, m)
            for k in range(-b, b + 1):
                err = abs(est.coefficient(k) - field.coefficient(k))
                assert err < 1e-10, (b, m, k)


def test_short_grid_aliases():
    # m < 2b+1 folds k and k - m onto each other; paper2 has mass at 12 and 1
    field = reference_field("paper2")
    val = equispaced(field, 11).coefficient(1)
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
        err = abs(equispaced(field, m).coefficient(k) - field.coefficient(k))
        assert m * err <= 1.05 * c2 + 1e-9


def _fd_constant(field, k, grid=8192):
    # grid max of |d/dx (g(x) exp(-2 pi i k x))| by central differences
    x = np.arange(grid) / grid
    h = field.evaluate(x) * np.exp(-2j * np.pi * k * x)
    return float(np.max(np.abs((np.roll(h, -1) - np.roll(h, 1)) * (grid / 2.0))))


# noiseless recovery ----------------------------------------------------------


def test_degenerate_noiseless_recovery_is_float_exact():
    field = reference_field("paper1")
    trace = generate_trace(RenewalLaw("degenerate").at(100), np.random.default_rng(0))
    read = acquire(trace, field, NoiseSpec("zero"), np.random.default_rng(0))
    est = estimate_field(read.readings, field.b)
    for k in range(-3, 4):
        assert abs(est.coefficient(k) - field.coefficient(k)) < 1e-12


def test_estimator_sees_only_readings():
    # location-oblivious by construction: two different traces carrying the
    # same reading vector give bitwise identical estimates
    y = np.linspace(-0.5, 0.5, 40)
    assert coefficient(y, 3) == coefficient(y.copy(), 3)


# energy estimate -------------------------------------------------------------


def test_energy_estimate_frozen_case():
    y = np.array([1.0, -1.0, 1.0, -1.0])
    assert energy_estimate(y, 0.25) == pytest.approx(0.75, abs=1e-15)


def test_energy_estimate_can_go_negative():
    # small-sample fluctuation below sigma^2 is reported as is, not clamped
    assert energy_estimate(np.array([0.1]), 0.5) == pytest.approx(-0.49, abs=1e-15)


@pytest.mark.parametrize("readings", [np.array([100, -100, 100], dtype=np.int8),
                                      np.full(3, 3_037_000_500, dtype=np.int64)])
def test_integer_readings_give_the_energy_and_detection_of_their_float_copy(readings):
    # squared in their own type, int8 100 wraps to 16 and int64 3037000500
    # past the largest int64, so the energy and with it the stop rule move
    copy = readings.astype(np.float64)
    assert energy_estimate(readings, 0.5) == energy_estimate(copy, 0.5) == float(np.mean(copy**2)) - 0.5
    config = BandwidthConfig(delta=0.5, sigma2=0.0, n=100)
    assert detect_bandwidth(readings, config).to_dict() == detect_bandwidth(copy, config).to_dict()
    assert detect_bandwidth(readings, config).status == "Stopped"


def test_energy_estimate_rejects_negative_variance():
    with pytest.raises(ValueError):
        energy_estimate(np.ones(4), -0.1)


def test_energy_estimate_rejects_a_nan_variance():
    # as BandwidthConfig refuses it, rather than returning NaN
    with pytest.raises(ValueError, match="noise variance must be non-negative"):
        energy_estimate(np.ones(4), float("nan"))


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
