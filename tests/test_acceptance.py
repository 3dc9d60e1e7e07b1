"""Acceptance runs: the headline guarantees at full scale, one printed
PASS/FAIL line per criterion (run with -s to watch them stream).

These are slower than the unit tests on purpose; together they rerun the
main Monte Carlo results end to end from fixed seeds.
"""

import numpy as np

from unkloc.bandwidth import BandwidthConfig, detect_bandwidth
from unkloc.estimator import estimate_coefficient, riemann_coefficient
from unkloc.experiments import ExperimentConfig, FieldSource, RenewalFamily, run
from unkloc.field import BandlimitedField, distortion, random_field, reference_field
from unkloc.noise import NoiseSpec
from unkloc.sampling import RenewalSpec, acquire, generate_trace, spawn_rngs, trial_seed

SEED = 20260822
RATE_WINDOW = (-1.3, -0.7)  # acceptable log-log slope for 1/n decay


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _decay_config(mode, **kw):
    base = dict(
        mode=mode,
        field_source=FieldSource(kind="paper1"),
        renewal=RenewalFamily(kind="uniform"),
        noise=NoiseSpec.uniform_sym(1.0),
        n_grid=(1000, 10_000, 100_000),
        trials=1000,
        master_seed=SEED,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_distortion_decays_like_one_over_n():
    result = run(_decay_config("DistortionSweep"))
    slope = result.slope.slope
    ok = RATE_WINDOW[0] < slope < RATE_WINDOW[1]
    _report(
        "distortion rate, uniform renewal",
        ok,
        f"slope={slope:.4f} ci=[{result.slope.ci_low:.4f}, {result.slope.ci_high:.4f}]",
    )


def test_distortion_rate_holds_across_renewal_families():
    slopes = {}
    for family in (RenewalFamily(kind="triangular"),
                   RenewalFamily(kind="scaled_beta", alpha=2.0, beta=2.0)):
        result = run(_decay_config("DistortionSweep", renewal=family, trials=300))
        slopes[family.kind] = result.slope.slope
    ok = all(RATE_WINDOW[0] < s < RATE_WINDOW[1] for s in slopes.values())
    _report(
        "distortion rate, other renewal families",
        ok,
        ", ".join(f"{kind}: slope={s:.4f}" for kind, s in slopes.items()),
    )


def test_energy_estimate_mse_decays_like_one_over_n():
    result = run(_decay_config("EnergyMSE"))
    slope = result.slope.slope
    ok = RATE_WINDOW[0] < slope < RATE_WINDOW[1]
    _report(
        "energy estimate MSE rate",
        ok,
        f"slope={slope:.4f} ci=[{result.slope.ci_low:.4f}, {result.slope.ci_high:.4f}]",
    )


def test_detection_success_rises_to_certainty():
    config = ExperimentConfig(
        mode="BandwidthCurve",
        field_source=FieldSource(kind="paper2"),
        renewal=RenewalFamily(kind="uniform"),
        noise=NoiseSpec.uniform_sym(1.0),
        n_grid=(5000, 10_000, 20_000, 50_000),
        trials=100,
        master_seed=SEED,
        delta=0.1,
    )
    result = run(config)
    success = [row.mean for row in result.summary if row.metric == "success"]
    monotone = all(a <= b for a, b in zip(success, success[1:]))
    ok = monotone and success[-1] >= 0.9
    _report(
        "bandwidth detection success curve",
        ok,
        "success=" + "/".join(f"{s:.2f}" for s in success) + f" at n={list(config.n_grid)}",
    )


def test_grid_deviation_scales_like_one_over_n():
    config = ExperimentConfig(
        mode="GridDeviation",
        field_source=FieldSource(kind="paper1"),
        renewal=RenewalFamily(kind="uniform"),
        noise=NoiseSpec("zero"),
        n_grid=(1000, 10_000, 100_000),
        trials=1000,
        master_seed=SEED,
    )
    result = run(config)
    scaled = [row.n * row.mean for row in result.summary if row.metric == "grid_deviation"]
    ok = max(scaled) / min(scaled) < 10.0 and all(0.0 < s < 1.0 for s in scaled)
    _report(
        "sample-location grid deviation scale",
        ok,
        "n*mean=" + "/".join(f"{s:.4f}" for s in scaled),
    )


def _fd_constant(field, k, grid=8192):
    # independent bound constant: grid max of |d/dx (g(x) exp(-2 pi i k x))|
    x = np.arange(grid) / grid
    h = field.evaluate(x) * np.exp(-2j * np.pi * k * x)
    return float(np.max(np.abs((np.roll(h, -1) - np.roll(h, 1)) * (grid / 2.0))))


def test_equispaced_projection_error_bound():
    field = reference_field("paper1")
    worst_ratio = 0.0
    worst_abs = 0.0
    for k in range(-field.b, field.b + 1):
        c2 = _fd_constant(field, k)
        for m in range(10, 1001):
            err = abs(riemann_coefficient(field, m, k) - field.coefficient(k))
            worst_ratio = max(worst_ratio, m * err / c2)
            worst_abs = max(worst_abs, err)  # all m here are >= 2b+1 = 7
    ok = worst_ratio <= 1.05 and worst_abs <= 1e-10
    _report(
        "equispaced projection error bound",
        ok,
        f"max M*err/C = {worst_ratio:.3g}, max err = {worst_abs:.3g}",
    )


def test_noiseless_regular_sampling_recovers_exactly():
    fields = [
        reference_field("paper1"),
        reference_field("paper2"),
        random_field(5, 11),
        random_field(0, 3),
    ]
    worst = 0.0
    for field in fields:
        for n in (2 * field.b + 1, 201):
            trace = generate_trace(RenewalSpec(n, "degenerate"), np.random.default_rng(0))
            read = acquire(trace, field, NoiseSpec("zero"), np.random.default_rng(0))
            est = BandlimitedField(b=field.b, coeffs=[estimate_coefficient(read.readings, k)
                                                      for k in range(-field.b, field.b + 1)])
            worst = max(worst, distortion(field, est))
    ok = worst < 1e-20
    _report(
        "noiseless regular sampling recovery",
        ok,
        f"max distortion = {worst:.3g}",
    )


def test_coefficient_noise_floor_matches_variance_over_m():
    # pure-noise readings: E|A[k]|^2 should equal sigma^2 * E[1/M] per harmonic
    zero_field = BandlimitedField(b=3, coeffs=np.zeros(7, dtype=complex))
    noise = NoiseSpec.uniform_sym(1.0)
    spec = RenewalSpec.uniform(10_000)
    trials = 10_000
    ks = (0, 1, 3)
    acc = {k: 0.0 for k in ks}
    inv_m = 0.0
    for trial in range(trials):
        trace_rng, noise_rng = spawn_rngs(trial_seed(777, spec.n, trial))
        trace = generate_trace(spec, trace_rng)
        read = acquire(trace, zero_field, noise, noise_rng)
        inv_m += 1.0 / read.m
        for k in ks:
            acc[k] += abs(estimate_coefficient(read.readings, k)) ** 2
    target = noise.variance * (inv_m / trials)
    ratios = {k: (acc[k] / trials) / target for k in ks}
    ok = all(0.9 < r < 1.1 for r in ratios.values())
    _report(
        "estimator noise floor",
        ok,
        ", ".join(f"k={k}: ratio={r:.4f}" for k, r in ratios.items()),
    )


def test_detection_runs_just_past_the_threshold_boundary():
    # strictly positive threshold: n = 1000 at delta = 0.1 sits exactly on
    # zero and is rejected; one step past it must run
    try:
        BandwidthConfig(delta=0.1, sigma2=0.0, n=1000).validate_runnable()
        boundary_rejected = False
    except Exception:
        boundary_rejected = True
    readings = np.zeros(1001)
    out = detect_bandwidth(readings, BandwidthConfig(delta=0.1, sigma2=0.0, n=1001))
    ok = boundary_rejected and out.status == "Stopped" and out.detected_b == 0
    _report(
        "threshold positivity boundary",
        ok,
        f"n=1000 rejected={boundary_rejected}; n=1001 -> status={out.status}, b={out.detected_b}",
    )
