"""Renewal traces: spacing laws, stopping rule, degenerate grid, seeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkloc.errors import ConfigError
from unkloc.field import reference_field
from unkloc.noise import NoiseSpec
from unkloc.sampling import (
    RenewalSpec,
    SampleTrace,
    _draw_block,
    acquire,
    generate_trace,
    grid_deviation,
    spawn_rngs,
    trial_seed,
)

FAMILY_SPECS = [
    RenewalSpec.uniform(200),
    RenewalSpec.triangular(200),
    RenewalSpec.scaled_beta(200, alpha=2.0, beta=2.0),
    RenewalSpec.scaled_beta(200, alpha=1.0, beta=3.0),
]


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


# spec validation -------------------------------------------------------------


def test_uniform_lambda_is_pinned():
    assert RenewalSpec.uniform(10).lam == 2.0
    assert RenewalSpec.triangular(10).lam == 2.0


def test_scaled_beta_lambda_follows_shape():
    spec = RenewalSpec.scaled_beta(10, alpha=1.0, beta=3.0)
    assert spec.lam == pytest.approx(4.0, abs=1e-12)
    assert RenewalSpec(10, "scaled_beta").lam == 2.0
    for alpha, beta in ((0.0, 2.0), (2.0, -1.0), (float("inf"), 2.0), (2.0, float("nan"))):
        with pytest.raises(ConfigError):
            RenewalSpec.scaled_beta(10, alpha, beta)


def test_degenerate_lambda_is_one():
    assert RenewalSpec.degenerate(10).lam == 1.0


def test_bad_family_and_n():
    with pytest.raises(ConfigError):
        RenewalSpec(n=10, family="poisson")
    with pytest.raises(ConfigError):
        RenewalSpec(n=0, family="uniform")


def test_max_spacing():
    assert RenewalSpec.uniform(100).max_spacing == pytest.approx(0.02)
    assert RenewalSpec.degenerate(100).max_spacing == pytest.approx(0.01)


# spacing distributions -------------------------------------------------------


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_spacing_support_and_mean(spec):
    draws = _draw_block(spec, _rng(17), 10**6)
    assert np.all(draws > 0.0)
    assert np.all(draws <= spec.max_spacing)
    # E[X] = 1/n, sd of the mean is bounded by max_spacing / sqrt(N)
    se = spec.max_spacing / np.sqrt(draws.size)
    assert abs(np.mean(draws) - 1.0 / spec.n) < 4 * se


def test_degenerate_spacing_is_exact():
    spec = RenewalSpec.degenerate(100)
    draws = _draw_block(spec, _rng(0), 50)
    assert np.all(draws == 0.01)


def test_scalar_spacing_matches_support():
    spec = RenewalSpec.triangular(50)
    for _ in range(100):
        x = _draw_block(spec, _rng(_), 1)[0]
        assert 0.0 < x <= spec.max_spacing


# trace generation ------------------------------------------------------------


def test_degenerate_trace_is_the_exact_grid():
    trace = generate_trace(RenewalSpec.degenerate(100), _rng(0))
    assert trace.m == 100
    assert np.array_equal(trace.locations, np.arange(1, 101) / 100)
    assert trace.locations[-1] == 1.0
    assert trace.overshoot == 0.0
    assert grid_deviation(trace) == 0.0


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_trace_invariants(spec):
    for seed in range(20):
        trace = generate_trace(spec, _rng(seed))
        s = trace.locations
        assert s[0] > 0.0
        assert s[-1] <= 1.0
        assert np.all(np.diff(s) > 0.0)
        assert 0.0 <= trace.overshoot <= spec.max_spacing
        # adding one more spacing must cross 1
        assert s[-1] + (1.0 - s[-1]) <= 1.0
        assert trace.m + 1 >= spec.n / spec.lam - 1e-9


def test_trace_count_concentrates_near_n():
    # E[M+1] sits in (n, n + lam] by the stopping identity; check the sample mean
    spec = RenewalSpec.uniform(1000)
    counts = np.empty(10**4)
    for i in range(counts.size):
        counts[i] = generate_trace(spec, _rng(i)).m + 1
    se = np.std(counts, ddof=1) / np.sqrt(counts.size)
    assert 1000 - 3 * se < np.mean(counts) < 1000 + spec.lam + 3 * se


def test_trace_is_deterministic_per_rng_state():
    spec = RenewalSpec.scaled_beta(300, alpha=2.0, beta=2.0)
    a = generate_trace(spec, _rng(9))
    b = generate_trace(spec, _rng(9))
    assert np.array_equal(a.locations, b.locations)
    assert a.overshoot == b.overshoot


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["uniform", "triangular"]))
def test_trace_invariants_property(n, seed, family):
    spec = RenewalSpec.uniform(n) if family == "uniform" else RenewalSpec.triangular(n)
    trace = generate_trace(spec, _rng(seed))
    s = trace.locations
    assert 0.0 < s[0] and s[-1] <= 1.0
    assert np.all(np.diff(s) > 0.0)
    assert 0.0 <= trace.overshoot <= spec.max_spacing
    assert abs((s[-1] + trace.overshoot) - 1.0) < 1e-9


# trace container -------------------------------------------------------------


def test_trace_rejects_disordered_locations():
    spec = RenewalSpec.uniform(4)
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.5, 0.4, 0.9]), overshoot=0.1)


def test_trace_rejects_out_of_range_locations():
    spec = RenewalSpec.uniform(4)
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.0, 0.5]), overshoot=0.1)
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.5, 1.2]), overshoot=0.1)


def test_trace_rejects_short_trace_for_n():
    # a single sample cannot cover n=10 when spacings are capped at lam/n
    spec = RenewalSpec.uniform(10)
    with pytest.raises(ValueError):
        SampleTrace(spec=spec, locations=np.array([0.9]), overshoot=0.1)


def test_grid_deviation_single_sample():
    spec = RenewalSpec.uniform(4)
    trace = SampleTrace(spec=spec, locations=np.array([0.9]), overshoot=0.1)
    # M = 1: (0.9 - 1/1)^2 = 0.01
    assert grid_deviation(trace) == pytest.approx(0.01, abs=1e-15)


# acquisition -----------------------------------------------------------------


def test_acquire_zero_noise_reads_the_field_exactly():
    field = reference_field("paper1")
    trace = generate_trace(RenewalSpec.uniform(500), _rng(2))
    read = acquire(trace, field, NoiseSpec.zero(), _rng(3))
    assert np.array_equal(read.readings, field.evaluate(trace.locations))
    assert read.m == trace.m


def test_acquire_appends_noise_of_matching_length():
    field = reference_field("paper2")
    trace = generate_trace(RenewalSpec.triangular(400), _rng(4))
    read = acquire(trace, field, NoiseSpec.uniform_sym(0.5), _rng(5))
    resid = read.readings - field.evaluate(trace.locations)
    assert resid.shape == (trace.m,)
    assert np.all(np.abs(resid) <= 0.5)


# seed derivation -------------------------------------------------------------


def test_trial_seed_is_stable():
    # frozen: derived from the (seed, n, trial) entropy tuple; any change here
    # silently breaks replay of archived runs
    assert trial_seed(123, 1000, 7) == 16700849989234652268


def test_trial_seed_separates_cells():
    seen = {trial_seed(5, n, t) for n in (10, 100, 1000) for t in range(50)}
    assert len(seen) == 150


def test_spawned_streams_are_independent():
    # trace functional vs noise functional across trials: correlation ~ 1/sqrt(T)
    spec = RenewalSpec.uniform(100)
    noise = NoiseSpec.uniform_sym(1.0)
    t = 10**4
    a = np.empty(t)
    b = np.empty(t)
    for i in range(t):
        trace_rng, noise_rng = spawn_rngs(trial_seed(0, 100, i))
        a[i] = generate_trace(spec, trace_rng).overshoot
        b[i] = noise.draw(noise_rng, size=1)[0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_spawn_rngs_reproducible():
    r1, r2 = spawn_rngs(987654321)
    s1, s2 = spawn_rngs(987654321)
    assert np.array_equal(r1.random(10), s1.random(10))
    assert np.array_equal(r2.random(10), s2.random(10))
    # and the two streams differ from each other
    r1, r2 = spawn_rngs(987654321)
    assert not np.array_equal(r1.random(10), r2.random(10))
