#!/usr/bin/env python3
"""Sweep benchmark for unkloc.

One run drives one workload of seeded Monte Carlo sweeps through the public
API (``experiments.run``, ``experiments.write_rows_csv`` and the
``unkloc replay`` command), checks the outputs against references computed
apart from the program, and prints every metric by name with its unit.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload distortion-paper1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run and prints the per-layer metrics.  The program
is imported from the ``src/`` directory beside ``perfbench/``; scratch files
go to ``.bench_run/`` there and are removed at exit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"

# Workload inputs for round r of seed s use master seed s * ROUND_STRIDE + r.
ROUND_STRIDE = 10_000
NOISE_HALF_WIDTH = 1.0  # uniform noise on [-1, 1], sigma^2 = 1/3
SPACING_LAM = 2.0  # uniform renewal: n X ~ Uniform(0, 2]

CHILD_TIMEOUT_S = 60

# gridgap-small: |n * mean - 1/18| may be at most this many standard errors
GRIDGAP_SE_TOLERANCE = 5.0
# detect-paper2: a drop in success rate between neighbouring n counts as a
# fall only beyond this many binomial standard errors of the difference
SUCCESS_SE_TOLERANCE = 2.0
# locations are rounded partial sums, so a spacing read back from them may
# exceed lam/n by a few rounding units of 1.0
SPACING_SLACK = 4 * 2.0**-52


@dataclass(frozen=True)
class Repeats:
    """How often each part of a run repeats.

    Every run makes at least min_rounds rounds; the statistical checks pool
    the workers=1 rows of the first check_rounds of them, so they see the same
    inputs for a given seed however long the run is.
    """

    min_rounds: int = 3
    check_rounds: int = 3
    setups: int = 5
    replays: int = 4
    imports: int = 3
    io: int = 3


FULL = Repeats()
SMOKE = Repeats(min_rounds=1, check_rounds=1, setups=1, replays=1, imports=1, io=1)


@dataclass(frozen=True)
class Workload:
    """One sweep configuration; BENCHMARK.json says why each was chosen."""

    mode: str
    source: str  # built-in truth field
    n_grid: tuple[int, ...]
    trials: int  # per n and round
    smoke_trials: int
    checked_per_n: int  # cells per n compared with the references
    extra: dict = field(default_factory=dict)


WORKLOADS = {
    "distortion-paper1": Workload(
        mode="DistortionSweep", source="paper1", n_grid=(1000, 10000, 100000),
        trials=20, smoke_trials=2, checked_per_n=2),
    "detect-paper2": Workload(
        mode="BandwidthCurve", source="paper2", n_grid=(5000, 10000, 20000, 50000),
        trials=10, smoke_trials=2, checked_per_n=1, extra={"delta": 0.1, "b_max": 64}),
    "gridgap-small": Workload(
        mode="GridDeviation", source="paper1", n_grid=(1000, 2000, 5000),
        trials=400, smoke_trials=10, checked_per_n=5),
}


def config_dict(w: Workload, seed: int, rnd: int, trials: int) -> dict:
    return {
        "mode": w.mode,
        "field": {"source": w.source},
        "renewal": {"family": "uniform"},
        "noise": {"family": "uniform", "params": [NOISE_HALF_WIDTH]},
        "n_grid": list(w.n_grid),
        "trials": trials,
        "master_seed": seed * ROUND_STRIDE + rnd,
        **w.extra,
    }


# ---------------------------------------------------------------------------
# helpers


def median(values) -> float:
    return float(statistics.median(values))


def row_bits(rows) -> tuple:
    """Rows as exact tuples; float.hex tells apart every distinct double."""
    return tuple((r.n, r.trial, r.seed, r.metric, float(r.value).hex()) for r in rows)


def failed_cells(rows) -> int:
    """run() turns a trial's exception into NaN values; count those cells."""
    return len({(r.n, r.trial) for r in rows if math.isnan(r.value)})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter with the checkout's src on its path; wall time."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start, proc


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return facts


class Checks:
    """Collects the outcome of every correctness check of a run."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# correctness checks against the references


def regenerate(n: int, seed: int, truth=None):
    """The trace of one cell, rebuilt from its seed through the public API."""
    from unkloc import NoiseSpec, RenewalSpec, acquire, generate_trace, spawn_rngs

    rng_trace, rng_noise = spawn_rngs(seed)
    trace = generate_trace(RenewalSpec.uniform(n), rng_trace)
    if truth is not None:
        trace = acquire(trace, truth, NoiseSpec.uniform_sym(NOISE_HALF_WIDTH), rng_noise)
    return trace


def sampled_cells(w: Workload, rows, seed: int) -> list[tuple[int, int, int]]:
    """checked_per_n distinct (n, trial, cell seed) per n, chosen from --seed."""
    pick = random.Random(seed)
    cells = sorted({(r.n, r.trial, r.seed) for r in rows})
    out = []
    for n in w.n_grid:
        at_n = [c for c in cells if c[0] == n]
        out += pick.sample(at_n, min(w.checked_per_n, len(at_n)))
    return out


def check_distortion(w, rows, seed, checks, statistical):
    import numpy as np
    from unkloc import estimate_field, reference_field

    table = ref.PAPER_TABLES[w.source]
    b = ref.bandwidth(table)
    truth = reference_field(w.source)
    recorded = {r.seed: r.value for r in rows}
    for n, trial, cell_seed in sampled_cells(w, rows, seed):
        trace = regenerate(n, cell_seed, truth)
        y = np.asarray(trace.readings)
        noise = y - ref.field_values(table, np.asarray(trace.locations))
        checks.expect(bool(np.all(np.abs(noise) <= NOISE_HALF_WIDTH + 1e-12)),
                      f"n={n} trial={trial}: a reading lies outside the noise support of the direct field")
        direct = {}
        for k in range(b + 1):
            direct[k] = ref.ordinal_dft(y, k)
            direct[-k] = direct[k].conjugate()
        est = estimate_field(y, b)
        gap = max(abs(est.coeffs[b + k] - direct[k]) for k in range(-b, b + 1))
        checks.expect(gap <= 1e-10, f"n={n} trial={trial}: estimate differs from the direct DFT by {gap:.3g}")
        want = ref.distortion(table, direct)
        got = recorded[cell_seed]
        checks.expect(abs(got - want) <= 1e-9 * want,
                      f"n={n} trial={trial}: distortion row {got!r} != reference {want!r}")
    if not statistical:
        return
    means = [(n, statistics.fmean(r.value for r in rows if r.n == n)) for n in w.n_grid]
    slope = ref.loglog_slope(means)
    checks.expect(-1.3 < slope < -0.7, f"log-log slope {slope:.3f} outside (-1.3, -0.7)")
    floor = (2 * b + 1) * NOISE_HALF_WIDTH**2 / 3.0
    for n, mean in means:
        checks.expect(n * mean > floor, f"n={n}: n*mean {n * mean:.4g} below the noise floor {floor:.4g}")


def check_detection(w, rows, seed, checks, statistical):
    import numpy as np
    from unkloc import BandwidthConfig, detect_bandwidth, reference_field

    table = ref.PAPER_TABLES[w.source]
    b = ref.bandwidth(table)
    truth = reference_field(w.source)
    sigma2 = NOISE_HALF_WIDTH**2 / 3.0
    delta, b_max = w.extra["delta"], w.extra["b_max"]
    recorded = {(r.seed, r.metric): r.value for r in rows}
    for n, trial, cell_seed in sampled_cells(w, rows, seed):
        y = np.asarray(regenerate(n, cell_seed, truth).readings)
        status, detected, kept, clearance = ref.plain_scan(y, delta, sigma2, n, b_max)
        if clearance < ref.CLEARANCE:
            continue
        outcome = detect_bandwidth(y, BandwidthConfig(delta=delta, sigma2=sigma2, n=n, b_max=b_max))
        checks.expect((outcome.status, outcome.detected_b) == (status, detected),
                      f"n={n} trial={trial}: detector gave {outcome.status}/{outcome.detected_b}, "
                      f"plain scan {status}/{detected}")
        stop_ok = status == "Stopped" and detected == b
        coeff_ok = all((k in kept) == (ref.coefficient(table, k) != 0) for k in range(-b, b + 1))
        for metric, want in (("success", stop_ok and coeff_ok), ("stop_check", stop_ok), ("coeff_check", coeff_ok)):
            checks.expect(recorded[(cell_seed, metric)] == float(want),
                          f"n={n} trial={trial}: {metric} row disagrees with the plain scan")
    if not statistical:
        return
    rates = []
    for n in w.n_grid:
        values = [r.value for r in rows if r.n == n and r.metric == "success"]
        rates.append((n, statistics.fmean(values), len(values)))
    for (n0, p0, c0), (n1, p1, c1) in zip(rates, rates[1:]):
        pooled = (p0 * c0 + p1 * c1) / (c0 + c1)
        allowed = SUCCESS_SE_TOLERANCE * math.sqrt(pooled * (1 - pooled) * (1 / c0 + 1 / c1))
        checks.expect(p1 >= p0 - allowed, f"success rate falls from {p0:.3f} at n={n0} to {p1:.3f} at n={n1}")
    checks.expect(rates[-1][1] >= 0.9, f"success rate {rates[-1][1]:.3f} < 0.9 at n={rates[-1][0]}")


def check_gridgap(w, rows, seed, checks, statistical):
    import numpy as np

    recorded = {r.seed: r.value for r in rows}
    for n, trial, cell_seed in sampled_cells(w, rows, seed):
        locs = np.asarray(regenerate(n, cell_seed).locations)
        spacings = np.diff(locs, prepend=0.0)
        checks.expect(bool(locs[0] > 0.0 and locs[-1] <= 1.0), f"n={n} trial={trial}: S_1 or S_M outside (0, 1]")
        checks.expect(bool(np.all(spacings > 0.0) and np.all(spacings <= SPACING_LAM / n + SPACING_SLACK)),
                      f"n={n} trial={trial}: a spacing lies outside (0, 2/n]")
        want = ref.grid_gap(locs)
        got = recorded[cell_seed]
        checks.expect(abs(got - want) <= 1e-12 * want, f"n={n} trial={trial}: row {got!r} != fsum {want!r}")
    if not statistical:
        return
    target = (SPACING_LAM**2 / 12.0) / 6.0  # Var(nX) / 6 = 1/18
    for n in w.n_grid:
        scaled = [n * r.value for r in rows if r.n == n]
        mean = statistics.fmean(scaled)
        se = statistics.stdev(scaled) / math.sqrt(len(scaled))
        checks.expect(abs(mean - target) <= GRIDGAP_SE_TOLERANCE * se,
                      f"n={n}: n*mean {mean:.5f} differs from 1/18 by more than "
                      f"{GRIDGAP_SE_TOLERANCE:g} standard errors ({se:.5f})")


CHECKERS = {"DistortionSweep": check_distortion, "BandwidthCurve": check_detection,
            "GridDeviation": check_gridgap}


# ---------------------------------------------------------------------------
# measurements


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    identical: bool = True

    def sweep(self, rows, cells: int) -> None:
        self.attempted += cells
        self.failed += failed_cells(rows)


def timed_rounds(seconds: float, min_rounds: int, one_round, children: list) -> int:
    """Call one_round(r) for r = 0, 1, ... until `seconds` have passed and
    min_rounds are done.  The children (fresh-interpreter measurements) run
    between rounds, spread evenly over the window, so that slow drift of the
    machine's speed reaches every metric alike."""
    due = [seconds * (j + 0.5) / len(children) for j in range(len(children))]
    start = perf_counter()
    rnd = done = 0
    while rnd < min_rounds or done < len(children) or perf_counter() - start < seconds:
        one_round(rnd)
        rnd += 1
        while done < len(children) and perf_counter() - start >= due[done]:
            children[done]()
            done += 1
    return rnd


def interleave(first: list, second: list) -> list:
    out = []
    for j in range(max(len(first), len(second))):
        out += first[j:j + 1] + second[j:j + 1]
    return out


def end_to_end(w, seed, seconds, trials, reps, workdir, tally, checks) -> tuple[dict, list]:
    from unkloc.experiments import METRIC_SETS, ExperimentConfig, run, write_rows_csv

    config_path = workdir / "config.json"
    rows_path = workdir / "rows.csv"
    config_path.write_text(json.dumps(config_dict(w, seed, 0, trials)))
    rates = {1: [], 2: []}
    setup_times, replay_times = [], []
    checked = []

    def one_round(rnd: int) -> None:
        config = ExperimentConfig.from_dict(config_dict(w, seed, rnd, trials))
        cells = len(config.n_grid) * config.trials
        results = {}
        for workers in ((1, 2) if rnd % 2 == 0 else (2, 1)):
            t0 = perf_counter()
            results[workers] = run(config, workers=workers)
            rates[workers].append(cells / (perf_counter() - t0))
            tally.sweep(results[workers].rows, cells)
        tally.identical &= row_bits(results[1].rows) == row_bits(results[2].rows)
        if rnd == 0:
            write_rows_csv(results[1], rows_path)  # what the replays verify
        if rnd < reps.check_rounds:
            checked.append(results[1])

    def setup() -> None:
        """A fresh interpreter imports unkloc, loads the config, resolves the field."""
        code = ("import sys, unkloc.experiments as e; "
                "e.ExperimentConfig.load(sys.argv[1]).field_source.resolve()")
        wall, proc = run_child(["-c", code, str(config_path)])
        if proc.returncode != 0:
            raise SystemExit(f"set-up child failed: {proc.stderr.strip()}")
        setup_times.append(wall)

    def replay(trial: int) -> None:
        """`unkloc replay --rows` of one cell at the largest n."""
        n = w.n_grid[-1]
        wall, proc = run_child(["-m", "unkloc.cli", "replay", "--config", str(config_path),
                                "--n", str(n), "--trial", str(trial), "--rows", str(rows_path)])
        replay_times.append(wall)
        tally.attempted += 1
        try:
            verified = json.loads(proc.stdout)["verified"] if proc.returncode == 0 else None
        except (ValueError, KeyError):
            verified = None
        if verified != sorted(METRIC_SETS[w.mode]):
            tally.failed += 1
            checks.expect(False, f"replay n={n} trial={trial} exited {proc.returncode}: {proc.stderr.strip()}")

    replay_trials = random.Random(seed + 1).sample(range(trials), reps.replays)
    children = interleave([setup] * reps.setups, [functools.partial(replay, t) for t in replay_trials])
    rounds = timed_rounds(seconds, reps.min_rounds, one_round, children)
    print(f"rounds: {rounds} (workers=1 and workers=2 each); {reps.setups} set-ups, {reps.replays} replays",
          flush=True)
    metrics = {
        "trials_per_s": median(rates[1]),
        "trials_per_s_2w": median(rates[2]),
        "setup_s": median(setup_times),
        "replay_s": median(replay_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, checked


def per_layer(w, seed, seconds, trials, reps, workdir, tally, checks) -> tuple[dict, list]:
    from tracing import Tracer
    from unkloc.experiments import ExperimentConfig, load_rows_csv, run, write_rows_csv

    layers, efficiency, overhead, import_times = [], [], [], []
    checked = []

    def one_round(rnd: int) -> None:
        config = ExperimentConfig.from_dict(config_dict(w, seed, rnd, trials))
        cells = len(config.n_grid) * config.trials
        t0 = perf_counter()
        plain = run(config, workers=1)
        t1 = perf_counter()
        tracer = Tracer()
        with tracer.installed():
            traced = run(config, workers=1)
        t2 = perf_counter()
        two = run(config, workers=2)
        t3 = perf_counter()
        for result in (plain, traced, two):
            tally.sweep(result.rows, cells)
        tally.identical &= row_bits(plain.rows) == row_bits(traced.rows) == row_bits(two.rows)
        layers.append(tracer.layer_metrics(t2 - t1))
        efficiency.append((t1 - t0) / (2.0 * (t3 - t2)))
        overhead.append((t2 - t1) / (t1 - t0))
        if rnd < reps.check_rounds:
            checked.append(plain)

    def cli_import() -> None:
        code = ("from time import perf_counter; t = perf_counter(); import unkloc.cli; "
                "print(perf_counter() - t)")
        _, proc = run_child(["-c", code])
        if proc.returncode != 0:
            raise SystemExit(f"import child failed: {proc.stderr.strip()}")
        import_times.append(float(proc.stdout.strip()))

    rounds = timed_rounds(seconds, reps.min_rounds, one_round, [cli_import] * reps.imports)
    print(f"rounds: {rounds} (untraced, traced and workers=2 each)", flush=True)

    rows_path = workdir / "rows.csv"
    write_times, load_times = [], []
    for _ in range(reps.io):
        t0 = perf_counter()
        write_rows_csv(checked[0], rows_path)
        t1 = perf_counter()
        load_rows_csv(rows_path)
        load_times.append(perf_counter() - t1)
        write_times.append(t1 - t0)

    values = {name: median(layer[name] for layer in layers) for name in layers[0]}
    values.update({
        "experiments.parallel_efficiency": median(efficiency),
        "experiments.write_rows_s": median(write_times),
        "experiments.rows_bytes": float(rows_path.stat().st_size),
        "experiments.load_rows_s": median(load_times),
        "cli.import_s": median(import_times),
        "trace.overhead_ratio": median(overhead),
    })
    return values, checked


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="unkloc sweep benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="workload seed; inputs depend on it alone")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and one repeat each; skips the statistical checks, which need full sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "unkloc" / "__init__.py").is_file():
        print(f"error: no unkloc sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {m["name"]: m["why"] for m in spec["workloads"]}[args.workload]
    w = WORKLOADS[args.workload]
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally, checks = Tally(), Checks()
    try:
        measure = per_layer if args.trace else end_to_end
        trials, reps = (w.smoke_trials, SMOKE) if args.smoke else (w.trials, FULL)
        metrics, checked = measure(w, args.seed, args.seconds, trials, reps, workdir, tally, checks)
        # failed trials are counted in `failed`; the checks speak of the rest
        rows = [row for result in checked for row in result.rows if not math.isnan(row.value)]
        CHECKERS[w.mode](w, rows, args.seed, checks, statistical=not args.smoke)
        checks.expect(tally.identical, "rows differ between workers=1, workers=2 and the traced run")
        if set(metrics) != set(units):
            raise SystemExit(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}: {why}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"checks: {checks.passed} passed, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
