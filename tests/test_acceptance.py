"""Acceptance runs: the headline guarantees at full scale, one printed
PASS/FAIL line per criterion (run with -s to watch them stream).

These are slower than the unit tests on purpose; together they rerun the
main Monte Carlo results end to end from fixed seeds.  Every test here
carries the ``acceptance`` marker, so ``pytest -m "not acceptance"`` runs
the rest of the suite without them.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.stats import binom, norm

from unkloc.bandwidth import BandwidthConfig, detect_bandwidth
from unkloc.cli import _usable_cpus
from unkloc.errors import ConfigError
from unkloc.estimator import estimate_field
from unkloc.experiments import ExperimentConfig, FieldSource, run
from unkloc.field import BandlimitedField, distortion, random_field, reference_field
from unkloc.noise import NoiseSpec
from unkloc.sampling import RenewalLaw, RenewalSpec, acquire, generate_trace, spawn_rngs, trial_seed

pytestmark = pytest.mark.acceptance

SEED = 20260822
RATE_WINDOW = (-1.3, -0.7)  # acceptable log-log slope for 1/n decay
# rows are the same at any worker count, so the sweeps use every CPU they may run on
WORKERS = _usable_cpus()


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _decay_config(mode, **kw):
    base = dict(
        mode=mode,
        field_source=FieldSource(kind="paper1"),
        renewal=RenewalLaw("uniform"),
        noise=NoiseSpec.uniform_sym(1.0),
        n_grid=(1000, 10_000, 100_000),
        trials=1000,
        master_seed=SEED,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# the paper1 coefficients a[0..3]; a[-k] is conj(a[k])
PAPER1 = {0: 0.2445 + 0j, 1: -0.0357 + 0.0478j, 2: 0.0978 + 0.0729j, 3: -0.1796 - 0.0756j}


def _bridge_variance(h):
    """Var of integral_0^1 h(t) B(t) dt for a Brownian bridge B of variance
    t(1-t): sum_{m>=1} 2/(pi^2 m^2) |integral_0^1 h(t) sin(pi m t) dt|^2, from
    the sine series of B.  The integrals are taken by 2048-point
    Gauss-Legendre quadrature and the series is cut at m = 400, where its
    tail is below 1e-9."""
    t, weights = np.polynomial.legendre.leggauss(2048)
    t, weights = (t + 1.0) / 2.0, weights / 2.0
    m = np.arange(1, 401)
    sines = np.sin(np.pi * np.outer(m, t))
    return float(np.sum(2.0 / (np.pi * m) ** 2 * np.abs(sines @ (weights * h(t))) ** 2))


def _field_and_slope(table, t):
    """g(t) and g'(t) for the real field of table."""
    b = max(table)
    ks = np.arange(-b, b + 1)
    coeffs = np.array([table[k] if k >= 0 else np.conj(table[-k]) for k in ks])
    waves = np.exp(2j * np.pi * np.outer(ks, t))
    return (coeffs @ waves).real, ((2j * np.pi * ks * coeffs) @ waves).real


# S_i - i/M is to first order a Brownian bridge of variance t(1-t) v/n, with
# v = Var(nX); each constant below adds v times a bridge variance to the noise


def _distortion_constant(table, sigma2, v):
    """First-order limit of n * E[distortion] when the field of table is
    estimated over its own -b..b.  The noise adds (2b+1) sigma^2, and the
    locations the bridge variance of g'(t) e^{-2 pi j k t} for each k."""
    b = max(table)
    location = sum(_bridge_variance(lambda t: _field_and_slope(table, t)[1] * np.exp(-2j * np.pi * k * t))
                   for k in range(-b, b + 1))
    return (2 * b + 1) * sigma2 + v * location


def _energy_constant(table, sigma2, var_w2, v):
    """First-order limit of n * E[(e_hat - E)^2] for the energy estimate
    e_hat = mean(y^2) - sigma^2.  The noise adds Var(W^2) + 4 sigma^2 E, and
    the locations the bridge variance of (g^2)'(t) = 2 g(t) g'(t)."""
    energy = sum(abs(c) ** 2 * (1 if k == 0 else 2) for k, c in table.items())
    location = _bridge_variance(lambda t: 2.0 * np.prod(_field_and_slope(table, t), axis=0))
    return var_w2 + 4.0 * sigma2 * energy + v * location


def test_distortion_decays_like_one_over_n():
    result = run(_decay_config("DistortionSweep"), WORKERS)
    slope = result.slope.slope
    # uniform noise on [-1, 1] and uniform spacings: sigma^2 = v = 1/3
    predicted = _distortion_constant(PAPER1, sigma2=1 / 3, v=1 / 3)
    largest = [row for row in result.summary if row.metric == "distortion"][-1]
    scaled = largest.n * largest.mean
    constant_ok = abs(scaled - predicted) <= 4 * largest.n * largest.stderr
    ok = RATE_WINDOW[0] < slope < RATE_WINDOW[1] and constant_ok
    _report(
        "distortion rate, uniform renewal",
        ok,
        f"slope={slope:.4f} ci=[{result.slope.ci_low:.4f}, {result.slope.ci_high:.4f}]; "
        f"n*mean={scaled:.4f} +- {largest.n * largest.stderr:.4f} at n={largest.n}, predicted {predicted:.4f}",
    )


def test_distortion_rate_holds_across_renewal_families():
    details = []
    ok = True
    # v = Var(nX): 1/6 for the triangular law on (0, 2], 4 Var(Beta(2, 2)) = 1/5 for scaled_beta
    for law, v in ((RenewalLaw("triangular"), 1 / 6),
                   (RenewalLaw("scaled_beta", alpha=2.0, beta=2.0), 1 / 5)):
        result = run(_decay_config("DistortionSweep", renewal=law, trials=300), WORKERS)
        slope = result.slope.slope
        predicted = _distortion_constant(PAPER1, sigma2=1 / 3, v=v)
        largest = [row for row in result.summary if row.metric == "distortion"][-1]
        scaled = largest.n * largest.mean
        ok &= RATE_WINDOW[0] < slope < RATE_WINDOW[1] and abs(scaled - predicted) <= 4 * largest.n * largest.stderr
        details.append(f"{law.family}: slope={slope:.4f}, n*mean={scaled:.4f} +- {largest.n * largest.stderr:.4f} "
                       f"at n={largest.n}, predicted {predicted:.4f}")
    _report("distortion rate, other renewal families", ok, "; ".join(details))


def test_energy_estimate_mse_decays_like_one_over_n():
    result = run(_decay_config("EnergyMSE"), WORKERS)
    slope = result.slope.slope
    # uniform noise on [-1, 1]: sigma^2 = 1/3, Var(W^2) = 1/5 - 1/9 = 4/45;
    # uniform spacings: v = 1/3
    predicted = _energy_constant(PAPER1, sigma2=1 / 3, var_w2=4 / 45, v=1 / 3)
    largest = [row for row in result.summary if row.metric == "energy_sq_error"][-1]
    scaled = largest.n * largest.mean
    constant_ok = abs(scaled - predicted) <= 4 * largest.n * largest.stderr
    ok = RATE_WINDOW[0] < slope < RATE_WINDOW[1] and constant_ok
    _report(
        "energy estimate MSE rate",
        ok,
        f"slope={slope:.4f} ci=[{result.slope.ci_low:.4f}, {result.slope.ci_high:.4f}]; "
        f"n*mean={scaled:.4f} +- {largest.n * largest.stderr:.4f} at n={largest.n}, predicted {predicted:.4f}",
    )


def test_detection_success_rises_to_certainty():
    config = ExperimentConfig(
        mode="BandwidthCurve",
        field_source=FieldSource(kind="paper2"),
        renewal=RenewalLaw("uniform"),
        noise=NoiseSpec.uniform_sym(1.0),
        n_grid=(5000, 10_000, 20_000, 50_000),
        trials=100,
        master_seed=SEED,
        delta=0.1,
    )
    result = run(config, WORKERS)
    rows = [row for row in result.summary if row.metric == "success"]
    success = [row.mean for row in rows]
    monotone = all(a <= b for a, b in zip(success, success[1:]))
    # A detection succeeds when the energy estimate lands within delta^2/2 of
    # the kept energy; its error has sd sqrt(Var(W^2)/n), and Var(W^2) = 4/45
    # for uniform noise on [-1, 1], so P = 2 Phi((delta^2/2) / sd) - 1:
    # 0.764, 0.906, 0.982 and 0.9998 here.  Each count must sit inside the
    # two-sided exact binomial tail at 1e-4.
    model = [2.0 * norm.cdf(0.5 * config.delta**2 / np.sqrt(4.0 / 45.0 / row.n)) - 1.0 for row in rows]
    hits = [round(row.mean * row.count) for row in rows]
    tails = [min(1.0, 2.0 * min(binom.cdf(k, row.count, p), binom.sf(k - 1, row.count, p)))
             for k, row, p in zip(hits, rows, model)]
    ok = monotone and success[-1] >= 0.9 and min(tails) >= 1e-4
    _report(
        "bandwidth detection success curve",
        ok,
        "success=" + "/".join(f"{s:.2f}" for s in success) + f" at n={list(config.n_grid)}, model="
        + "/".join(f"{p:.4f}" for p in model) + ", tail p=" + "/".join(f"{t:.3g}" for t in tails),
    )


def test_grid_deviation_scales_like_one_over_n():
    config = ExperimentConfig(
        mode="GridDeviation",
        field_source=FieldSource(kind="paper1"),
        renewal=RenewalLaw("uniform"),
        noise=NoiseSpec("zero"),
        n_grid=(1000, 10_000, 100_000),
        trials=1000,
        master_seed=SEED,
    )
    result = run(config, WORKERS)
    rows = [row for row in result.summary if row.metric == "grid_deviation"]
    scaled = [row.n * row.mean for row in rows]
    # to first order n*mean -> Var(nX)/6, which is 1/18 for uniform spacings
    largest = rows[-1]
    constant_ok = abs(largest.n * largest.mean - 1 / 18) <= 4 * largest.n * largest.stderr
    ok = max(scaled) / min(scaled) < 10.0 and all(0.0 < s < 1.0 for s in scaled) and constant_ok
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
    c2 = {k: _fd_constant(field, k) for k in range(-field.b, field.b + 1)}
    for m in range(10, 1001):
        est = estimate_field(field.evaluate(np.arange(1, m + 1) / m), field.b)
        for k in c2:
            err = abs(est.coefficient(k) - field.coefficient(k))
            worst_ratio = max(worst_ratio, m * err / c2[k])
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
            trace = generate_trace(RenewalLaw("degenerate").at(n), np.random.default_rng(0))
            read = acquire(trace, field, NoiseSpec("zero"), np.random.default_rng(0))
            est = estimate_field(read.readings, field.b)
            worst = max(worst, distortion(field, est))
    ok = worst < 1e-20
    _report(
        "noiseless regular sampling recovery",
        ok,
        f"max distortion = {worst:.3g}",
    )


# the noise-floor test's pure-noise trials: their density, and the harmonics it reads
FLOOR_N, FLOOR_KS = 10_000, (0, 1, 3)


def _noise_floor_terms(seeds):
    """1/M and |A[k]|^2 at each k of FLOOR_KS for the pure-noise trial each seed draws."""
    zero_field = BandlimitedField(b=3, coeffs=np.zeros(7, dtype=complex))
    noise = NoiseSpec.uniform_sym(1.0)
    spec = RenewalSpec.uniform(FLOOR_N)
    terms = []
    for seed in seeds:
        trace_rng, noise_rng = spawn_rngs(seed)
        read = acquire(generate_trace(spec, trace_rng), zero_field, noise, noise_rng)
        est = estimate_field(read.readings, 3)
        terms.append((1.0 / read.m, *(abs(est.coefficient(k)) ** 2 for k in FLOOR_KS)))
    return terms


def test_coefficient_noise_floor_matches_variance_over_m():
    # pure-noise readings: E|A[k]|^2 should equal sigma^2 * E[1/M] per harmonic
    trials = 10_000
    seeds = trial_seed(777, FLOOR_N, np.arange(trials)).tolist()
    # forked workers, as in a sweep, run contiguous runs of trials; the sums
    # below add them in trial order, so the ratios are those of one serial loop
    workers = min(2, WORKERS)
    runs = [seeds[trials * w // workers:trials * (w + 1) // workers] for w in range(workers)]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        terms = [term for part in pool.map(_noise_floor_terms, runs) for term in part]
    acc = {k: 0.0 for k in FLOOR_KS}
    inv_m = 0.0
    for inv, *squares in terms:
        inv_m += inv
        for k, square in zip(FLOOR_KS, squares):
            acc[k] += square
    target = NoiseSpec.uniform_sym(1.0).variance * (inv_m / trials)
    ratios = {k: (acc[k] / trials) / target for k in FLOOR_KS}
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
    except ConfigError:
        boundary_rejected = True
    readings = np.zeros(1001)
    out = detect_bandwidth(readings, BandwidthConfig(delta=0.1, sigma2=0.0, n=1001))
    ok = boundary_rejected and out.status == "Stopped" and out.detected_b == 0
    _report(
        "threshold positivity boundary",
        ok,
        f"n=1000 rejected={boundary_rejected}; n=1001 -> status={out.status}, b={out.detected_b}",
    )
