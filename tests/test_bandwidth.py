"""Bandwidth detection: thresholding, stopping rule, cap, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkloc import bandwidth
from unkloc.bandwidth import (
    BandwidthConfig,
    detect_bandwidth,
    threshold_coefficient,
)
from unkloc.errors import ConfigError
from unkloc.field import BandlimitedField, reference_field
from unkloc.noise import NoiseSpec
from unkloc.sampling import RenewalSpec, acquire, generate_trace, spawn_rngs, trial_seed


def _config(delta=0.1, sigma2=1.0 / 3.0, n=10**6, **kw):
    return BandwidthConfig(delta=delta, sigma2=sigma2, n=n, **kw)


# threshold -------------------------------------------------------------------


def test_threshold_level():
    # delta - n^(-1/3) = 0.1 - 0.01 = 0.09 at n = 10^6
    assert _config().threshold == pytest.approx(0.09, abs=1e-12)


def test_threshold_keep_and_zero():
    cfg = _config()
    kept = threshold_coefficient(0.095 + 0j, cfg)
    assert kept == 0.095 + 0j
    assert threshold_coefficient(0.085 + 0j, cfg) == 0j
    # modulus decides, not the real part
    assert threshold_coefficient(0.06 + 0.08j, cfg) == 0.06 + 0.08j


def test_threshold_tie_is_zeroed():
    cfg = _config()
    assert threshold_coefficient(0.09 + 0j, cfg) == 0j
    assert threshold_coefficient(-0.09 + 0j, cfg) == 0j


def test_threshold_zero_stays_zero():
    assert threshold_coefficient(0j, _config()) == 0j


@settings(max_examples=60, deadline=None)
@given(re=st.floats(-1, 1), im=st.floats(-1, 1))
def test_threshold_idempotent(re, im):
    cfg = _config()
    once = threshold_coefficient(complex(re, im), cfg)
    assert threshold_coefficient(once, cfg) == once


def test_runnable_guard():
    # the threshold must be strictly positive; at n = (1/delta)^3 exactly it
    # is zero, so the boundary point itself is rejected too, and the message
    # states the strict bound
    cfg = BandwidthConfig(delta=0.1, sigma2=0.0, n=999)
    with pytest.raises(ConfigError, match=r"need n > \(1/delta\)\*\*3 = 1000"):
        cfg.validate_runnable()
    with pytest.raises(ConfigError, match=r"need n > \(1/delta\)\*\*3 = 1000"):
        BandwidthConfig(delta=0.1, sigma2=0.0, n=1000).validate_runnable()
    BandwidthConfig(delta=0.1, sigma2=0.0, n=1001).validate_runnable()


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        BandwidthConfig(delta=0.0, sigma2=0.0, n=100)
    with pytest.raises(ConfigError):
        BandwidthConfig(delta=0.1, sigma2=-1.0, n=100)
    with pytest.raises(ConfigError):
        BandwidthConfig(delta=0.1, sigma2=0.0, n=100, b_max=-1)
    with pytest.raises(ConfigError):
        BandwidthConfig(delta=float("nan"), sigma2=0.0, n=100)


def test_delta_whose_bounds_overflow_is_refused():
    # delta**2 (the stop band) and (1/delta)**3 (the bound on n that an
    # unrunnable threshold reports) raise OverflowError in float arithmetic
    for delta in (1e155, 1e-200):
        with pytest.raises(ConfigError, match="overflows"):
            BandwidthConfig(delta=delta, sigma2=0.0, n=100)
    assert BandwidthConfig(delta=1e150, sigma2=0.0, n=100).band < float("inf")


def test_stop_band_default_is_half_delta_squared():
    assert _config(delta=0.1).band == pytest.approx(0.005, abs=1e-15)
    assert _config(delta=0.2).band == pytest.approx(0.02, abs=1e-15)


# detection on clean data -----------------------------------------------------


def _clean_readings(field, n=2000):
    trace = generate_trace(RenewalSpec(n, "degenerate"), np.random.default_rng(0))
    return acquire(trace, field, NoiseSpec("zero"), np.random.default_rng(0)).readings


def test_detects_constant_field():
    field = BandlimitedField(b=0, coeffs=np.array([0.5 + 0j]))
    out = detect_bandwidth(_clean_readings(field), _config(sigma2=0.0, n=2000))
    assert out.status == "Stopped"
    assert out.detected_b == 0
    assert out.kept(0) == pytest.approx(0.5 + 0j, abs=1e-12)
    assert abs(out.stop_residual) <= out.energy_est * 1e-10 + 1e-12


def test_detects_zero_field():
    out = detect_bandwidth(np.zeros(2000), _config(sigma2=0.0, n=2000))
    assert out.status == "Stopped"
    assert out.detected_b == 0
    assert out.energy_est == 0.0
    assert out.stop_residual == 0.0


@pytest.mark.parametrize(
    "support",
    [
        {0: 0.3, 2: 0.25 + 0.2j},
        {1: -0.4, 5: 0.18 + 0.15j},
        {12: 0.2, 3: -0.3},
        {7: 0.5},
    ],
)
def test_noiseless_detection_recovers_support_exactly(support):
    b = max(support)
    coeffs = np.zeros(2 * b + 1, dtype=complex)
    for k, v in support.items():
        coeffs[b + k] = v
        coeffs[b - k] = np.conj(v)
    field = BandlimitedField(b=b, coeffs=coeffs)
    out = detect_bandwidth(_clean_readings(field), _config(sigma2=0.0, n=2000))
    assert out.status == "Stopped"
    assert out.detected_b == b
    for k in range(-b, b + 1):
        truth_zero = field.coefficient(k) == 0
        assert (out.kept(k) == 0) == truth_zero, k


def test_cap_reached_when_energy_is_overstated():
    # claiming variance the readings do not carry starves the stopping rule:
    # kept energy can never land inside the band around energy_est
    y = np.full(2000, 0.5)
    out = detect_bandwidth(y, _config(sigma2=5.0, n=2000))
    assert out.status == "CapReached"
    assert out.detected_b is None
    assert out.b_scanned == 64
    assert out.kept_coeffs.size == 2 * 64 + 1


def test_cap_respects_custom_b_max():
    # truncating the scan below the true bandwidth of a sparse field leaves
    # the tail energy unexplained
    field = reference_field("paper2")
    out = detect_bandwidth(
        _clean_readings(field), _config(sigma2=0.0, n=2000, b_max=2)
    )
    assert out.status == "CapReached"
    assert out.b_scanned == 2


@pytest.mark.parametrize("b_max, status, zeroed", [(5, "CapReached", 8), (64, "Stopped", 20)])
def test_each_scanned_harmonic_is_thresholded_once(monkeypatch, b_max, status, zeroed):
    # A[-k] is the conjugate of A[k], so one decision keeps or zeroes both;
    # a zeroed entry reads +0j on both halves, where its conjugate is -0j
    calls = []
    threshold = bandwidth.threshold_coefficient
    monkeypatch.setattr(bandwidth, "threshold_coefficient",
                        lambda value, config: calls.append(value) or threshold(value, config))
    out = detect_bandwidth(_clean_readings(reference_field("paper2")), _config(sigma2=0.0, n=2000, b_max=b_max))
    assert out.status == status
    assert len(calls) == out.b_scanned + 1
    zeros = [c for c in out.kept_coeffs if c == 0]
    assert len(zeros) == zeroed  # k = 2..min(b_max, 11) on each half
    assert {(c.real.hex(), c.imag.hex()) for c in zeros} == {((0.0).hex(), (0.0).hex())}


def test_stop_residual_is_signed():
    field = reference_field("paper2")
    out = detect_bandwidth(_clean_readings(field), _config(sigma2=0.0, n=2000))
    assert out.status == "Stopped"
    assert out.detected_b == 12
    # noiseless degenerate data: kept energy equals the true energy
    assert out.stop_residual == pytest.approx(0.0, abs=1e-10)


# detection under noise -------------------------------------------------------


def test_reference_detection_under_noise():
    field = reference_field("paper2")
    noise = NoiseSpec.uniform_sym(1.0)
    n = 50_000
    hits = 0
    for trial in range(5):
        trace_rng, noise_rng = spawn_rngs(trial_seed(2026, n, trial))
        trace = generate_trace(RenewalSpec.uniform(n), trace_rng)
        read = acquire(trace, field, noise, noise_rng)
        out = detect_bandwidth(
            read.readings, BandwidthConfig(delta=0.1, sigma2=noise.variance, n=n)
        )
        hits += out.status == "Stopped" and out.detected_b == 12
    assert hits == 5


def test_false_keep_rate_shrinks_with_n():
    # probability of keeping a harmonic the field does not carry must not
    # grow with n; at these sizes it should be rare outright
    field = reference_field("paper2")
    noise = NoiseSpec.uniform_sym(1.0)
    rates = []
    for n in (5000, 20_000, 100_000):
        false_keep = 0
        trials = 60
        for trial in range(trials):
            trace_rng, noise_rng = spawn_rngs(trial_seed(31, n, trial))
            trace = generate_trace(RenewalSpec.uniform(n), trace_rng)
            read = acquire(trace, field, noise, noise_rng)
            out = detect_bandwidth(
                read.readings, BandwidthConfig(delta=0.1, sigma2=noise.variance, n=n)
            )
            if out.status == "Stopped":
                bad = [
                    k
                    for k in range(-out.detected_b, out.detected_b + 1)
                    if out.kept(k) != 0 and field.coefficient(k) == 0
                ]
                false_keep += bool(bad)
        rates.append(false_keep / trials)
    slack = 2 * np.sqrt(0.25 / 60)
    assert rates[-1] <= rates[0] + slack
    assert rates[-1] <= 0.1


# outcome container -----------------------------------------------------------


def test_outcome_round_trip():
    field = reference_field("paper2")
    out = detect_bandwidth(_clean_readings(field), _config(sigma2=0.0, n=2000))
    again = json.loads(json.dumps(out.to_dict()))
    assert again["status"] == out.status
    assert again["detected_b"] == out.detected_b
    assert np.array_equal([complex(re, im) for re, im in again["kept_coeffs"]], out.kept_coeffs)
    assert again["energy_estimate"] == out.energy_est
    assert again["stop_residual"] == out.stop_residual


def test_outcome_kept_indexing():
    field = reference_field("paper2")
    out = detect_bandwidth(_clean_readings(field), _config(sigma2=0.0, n=2000))
    assert out.kept(12) == pytest.approx(0.1, abs=1e-10)
    assert out.kept(-12) == out.kept(12).conjugate()
    # outside the scanned range is zero, same convention as field coefficients
    assert out.kept(13) == 0j
    assert out.kept(-99) == 0j
