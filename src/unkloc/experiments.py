"""Seeded Monte Carlo harness: sweeps over n, summaries, log-log slope fits.

Each (n, trial) cell gets its own 64-bit seed hashed from the experiment
seed, so any cell can be replayed bit-exactly in isolation.  A trial whose
config is unrunnable at its n (a detection threshold that is not positive)
becomes NaN-valued rows rather than aborting the sweep; summary counts then
show the surviving denominator.  Any other fault propagates.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandwidth import BandwidthConfig, DetectionOutcome, detect_bandwidth
from .errors import ConfigError
from .estimator import energy_estimate, estimate_field, riemann_coefficient
from .field import BandlimitedField, distortion, random_field, reference_field
from .noise import NoiseSpec
from .sampling import RenewalSpec, acquire, generate_trace, grid_deviation, spawn_rngs, trial_seed

MODES = ("DistortionSweep", "BandwidthCurve", "GridDeviation", "EnergyMSE", "RiemannError")

# metric names per mode; the first entry is the mode's primary metric
# (the one summarised in the summary CSV and slope fit)
METRIC_SETS = {
    "DistortionSweep": ("distortion",),
    "BandwidthCurve": ("success", "stop_check", "coeff_check"),
    "GridDeviation": ("grid_deviation",),
    "EnergyMSE": ("energy_sq_error",),
    "RiemannError": ("riemann_abs_error",),
}

DECAY_MODES = ("DistortionSweep", "EnergyMSE")

# below this, means are floating-point residue (e.g. noiseless degenerate
# runs) and a decay slope would be meaningless
SLOPE_FLOOR = 1e-25


@dataclass(frozen=True)
class FieldSource:
    """Where the truth field comes from: a built-in set, a seeded random
    draw, or a coefficient file."""

    kind: str  # "paper1" | "paper2" | "random" | "file"
    b: int | None = None
    seed: int | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind in ("paper1", "paper2"):
            return
        if self.kind == "random":
            if not (isinstance(self.b, int) and self.b >= 0 and isinstance(self.seed, int)):
                raise ConfigError("random field source needs an integer b >= 0 and an integer seed")
            return
        if self.kind == "file":
            if not (isinstance(self.path, str) and self.path):
                raise ConfigError("file field source needs a path")
            return
        raise ConfigError(f"unknown field source {self.kind!r}")

    def resolve(self) -> BandlimitedField:
        if self.kind in ("paper1", "paper2"):
            return reference_field(self.kind)
        if self.kind == "random":
            return random_field(self.b, self.seed)
        return BandlimitedField.load(self.path)

    def to_dict(self) -> dict:
        out = {"source": self.kind}
        if self.kind == "random":
            out.update(b=self.b, seed=self.seed)
        elif self.kind == "file":
            out.update(path=self.path)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FieldSource":
        kind = data.get("source")
        if kind is None:
            raise ConfigError("field record needs a 'source' entry")
        return cls(
            kind=str(kind),
            b=data.get("b"),
            seed=data.get("seed"),
            path=data.get("path"),
        )


@dataclass(frozen=True)
class RenewalFamily:
    """n-independent part of a renewal spec; the sweep supplies n."""

    kind: str
    alpha: float = RenewalSpec.alpha  # the scaled_beta shape defaults live on RenewalSpec
    beta: float = RenewalSpec.beta

    def __post_init__(self) -> None:
        # validate eagerly via a probe spec
        self.spec_for(2)

    def spec_for(self, n: int) -> RenewalSpec:
        return RenewalSpec(n, self.kind, self.alpha, self.beta)

    def to_dict(self) -> dict:
        out = {"family": self.kind}
        if self.kind == "scaled_beta":
            out.update(alpha=self.alpha, beta=self.beta)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RenewalFamily":
        """A missing or null alpha/beta takes the RenewalSpec default."""
        kind = data.get("family")
        if kind is None:
            raise ConfigError("renewal record needs a 'family' entry")
        shape = {key: data[key] for key in ("alpha", "beta") if data.get(key) is not None}
        return cls(kind=str(kind), **shape)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    field_source: FieldSource
    renewal: RenewalFamily
    noise: NoiseSpec
    n_grid: tuple[int, ...]
    trials: int = 1000
    master_seed: int = 0
    known_b: int | None = None  # estimation bandwidth; defaults to the truth's b
    delta: float = 0.1  # BandwidthCurve only
    b_max: int = 64  # BandwidthCurve only
    riemann_k: int = 0  # RiemannError only

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 1 for n in grid):
            raise ConfigError("n_grid must hold positive integers")
        if any(b >= a for b, a in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        lam = self.renewal.spec_for(grid[0]).lam
        if grid[0] < lam:
            raise ConfigError(f"n_grid must start at n >= lam = {lam:g}; below it a trace can hold no sample")
        object.__setattr__(self, "n_grid", grid)
        if int(self.trials) != self.trials or self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        if self.known_b is not None:
            if int(self.known_b) != self.known_b or self.known_b < 0:
                raise ConfigError("known_b must be a non-negative integer")
            object.__setattr__(self, "known_b", int(self.known_b))
        # BandwidthConfig owns the delta and b_max rules; a probe applies them at load
        BandwidthConfig(delta=self.delta, sigma2=0.0, n=1, b_max=self.b_max)
        if int(self.riemann_k) != self.riemann_k:
            raise ConfigError("riemann_k must be an integer")
        object.__setattr__(self, "riemann_k", int(self.riemann_k))

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "field": self.field_source.to_dict(),
            "renewal": self.renewal.to_dict(),
            "noise": self.noise.to_dict(),
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "master_seed": self.master_seed,
        }
        if self.known_b is not None:
            out["known_b"] = self.known_b
        if self.mode == "BandwidthCurve":
            out["delta"] = self.delta
            out["b_max"] = self.b_max
        if self.mode == "RiemannError":
            out["riemann_k"] = self.riemann_k
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("experiment config must be a mapping")
        for key in ("mode", "field", "renewal", "noise", "n_grid"):
            if key not in data:
                raise ConfigError(f"experiment config is missing {key!r}")
        for key in ("field", "renewal", "noise"):
            if not isinstance(data[key], dict):
                raise ConfigError(f"experiment config entry {key!r} must be a mapping")
        known = {"mode", "field", "renewal", "noise", "n_grid", "trials", "master_seed",
                 "known_b", "delta", "b_max", "riemann_k"}
        stray = set(data) - known
        if stray:
            raise ConfigError(f"unknown config keys: {sorted(stray)}")
        try:
            return cls(
                mode=str(data["mode"]),
                field_source=FieldSource.from_dict(data["field"]),
                renewal=RenewalFamily.from_dict(data["renewal"]),
                noise=NoiseSpec.from_dict(data["noise"]),
                n_grid=tuple(data["n_grid"]),
                trials=data.get("trials", 1000),
                master_seed=data.get("master_seed", 0),
                known_b=data.get("known_b"),
                delta=data.get("delta", 0.1),
                b_max=data.get("b_max", 64),
                riemann_k=data.get("riemann_k", 0),
            )
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            # a value of the wrong JSON type, such as "delta": "x" or "trials": NaN
            raise ConfigError(f"malformed experiment config: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
        return cls.from_dict(data)


@dataclass(frozen=True)
class TrialRow:
    n: int
    trial: int
    seed: int
    metric: str
    value: float


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    n: int
    mean: float
    stderr: float
    count: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[TrialRow, ...]
    summary: tuple[SummaryRow, ...]
    slope: SlopeFit | None
    slope_note: str | None = None

    def summary_for(self, metric: str) -> dict[int, SummaryRow]:
        return {row.n: row for row in self.summary if row.metric == metric}


def _bandwidth_checks(outcome: DetectionOutcome, truth: BandlimitedField) -> tuple[bool, bool]:
    """(stopping-rule check, coefficient-threshold check) for one outcome."""
    stop_ok = outcome.status == "Stopped" and outcome.detected_b == truth.b
    coeff_ok = all(
        (outcome.kept(k) != 0) == (truth.coefficient(k) != 0)
        for k in range(-truth.b, truth.b + 1)
    )
    return stop_ok, coeff_ok


def run_trial(config: ExperimentConfig, n: int, seed: int,
              truth: BandlimitedField | None = None) -> dict[str, float]:
    """One seeded trial.  Every metric depends only on (config, n, seed),
    which is what makes single-cell replay possible."""
    if truth is None:
        truth = config.field_source.resolve()
    spec = config.renewal.spec_for(n)
    rng_trace, rng_noise = spawn_rngs(seed)
    trace = generate_trace(spec, rng_trace)

    if config.mode == "GridDeviation":
        return {"grid_deviation": grid_deviation(trace)}
    if config.mode == "RiemannError":
        approx = riemann_coefficient(truth, trace.m, config.riemann_k)
        return {"riemann_abs_error": abs(approx - truth.coefficient(config.riemann_k))}

    trace = acquire(trace, truth, config.noise, rng_noise)
    if config.mode == "DistortionSweep":
        b = truth.b if config.known_b is None else config.known_b
        est = estimate_field(trace.readings, b)
        return {"distortion": distortion(truth, est)}
    if config.mode == "EnergyMSE":
        e_hat = energy_estimate(trace.readings, config.noise.variance)
        return {"energy_sq_error": (e_hat - truth.energy()) ** 2}
    # BandwidthCurve
    det_config = BandwidthConfig(delta=config.delta, sigma2=config.noise.variance,
                                 n=n, b_max=config.b_max)
    outcome = detect_bandwidth(trace.readings, det_config)
    stop_ok, coeff_ok = _bandwidth_checks(outcome, truth)
    return {
        "success": float(stop_ok and coeff_ok),
        "stop_check": float(stop_ok),
        "coeff_check": float(coeff_ok),
    }


def run(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Full sweep over config.n_grid x config.trials."""
    truth = config.field_source.resolve()
    metric_names = METRIC_SETS[config.mode]
    cells = [(n, t) for n in config.n_grid for t in range(config.trials)]
    seeds = {cell: trial_seed(config.master_seed, *cell) for cell in cells}

    def one_cell(cell: tuple[int, int]) -> dict[str, float]:
        n, t = cell
        try:
            return run_trial(config, n, seeds[cell], truth=truth)
        except ConfigError:
            # unrunnable at this n: keep the denominator visible as a NaN row
            return {name: math.nan for name in metric_names}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one_cell, cells))
    else:
        outcomes = [one_cell(cell) for cell in cells]

    rows = tuple(
        TrialRow(n=cell[0], trial=cell[1], seed=seeds[cell], metric=name, value=float(values[name]))
        for cell, values in zip(cells, outcomes)
        for name in metric_names
    )
    summary = _summarise(rows, config.n_grid, metric_names)
    slope, note = _fit_primary_slope(config, summary)
    return ExperimentResult(config=config, rows=rows, summary=summary, slope=slope, slope_note=note)


def _summarise(rows: tuple[TrialRow, ...], n_grid: tuple[int, ...],
               metric_names: tuple[str, ...]) -> tuple[SummaryRow, ...]:
    out = []
    by_key: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        by_key.setdefault((row.metric, row.n), []).append(row.value)
    for name in metric_names:
        for n in n_grid:
            values = np.asarray(by_key.get((name, n), ()), dtype=float)
            values = values[~np.isnan(values)]
            count = int(values.size)
            mean = float(np.mean(values)) if count else math.nan
            stderr = float(np.std(values, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
            out.append(SummaryRow(metric=name, n=n, mean=mean, stderr=stderr, count=count))
    return tuple(out)


def _fit_primary_slope(config: ExperimentConfig,
                       summary: tuple[SummaryRow, ...]) -> tuple[SlopeFit | None, str | None]:
    if config.mode not in DECAY_MODES:
        return None, None
    primary = METRIC_SETS[config.mode][0]
    points = [(row.n, row.mean) for row in summary if row.metric == primary]
    if len(points) < 3:
        return None, "slope needs at least 3 grid points"
    if any(not math.isfinite(mean) for _, mean in points):
        return None, "slope undefined: missing means"
    if any(mean < SLOPE_FLOOR for _, mean in points):
        return None, f"slope undefined: means below the {SLOPE_FLOOR:g} noise floor"
    return fit_loglog_slope(points), None


def fit_loglog_slope(points) -> SlopeFit:
    """OLS slope of log(mean) on log(n) with a 95% confidence interval.

    Needs >= 3 points and strictly positive means; offending n values are
    named in the error.
    """
    pts = [(int(n), float(mean)) for n, mean in points]
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 (n, mean) points")
    bad = [n for n, mean in pts if not (mean > 0)]
    if bad:
        raise ValueError(f"slope fit needs positive means; offending n: {bad}")
    x = np.log([n for n, _ in pts])
    y = np.log([mean for _, mean in pts])
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    # scipy.stats costs about a second to import; only slope fits need it
    from scipy.stats import t as student_t

    half = float(student_t.ppf(0.975, dof)) * se
    return SlopeFit(slope=slope, ci_low=slope - half, ci_high=slope + half)


# CSV / JSON emission -------------------------------------------------------


def write_rows_csv(result: ExperimentResult, path) -> None:
    """Per-trial rows: mode,n,trial,seed,metric,value."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "n", "trial", "seed", "metric", "value"])
        for row in result.rows:
            writer.writerow([result.config.mode, row.n, row.trial, row.seed, row.metric, str(row.value)])


def write_summary_csv(result: ExperimentResult, path) -> None:
    """Primary-metric summary: mode,n,mean,stderr,count."""
    primary = METRIC_SETS[result.config.mode][0]
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "n", "mean", "stderr", "count"])
        for row in result.summary:
            if row.metric == primary:
                writer.writerow([result.config.mode, row.n, str(row.mean), str(row.stderr), row.count])


def write_slope_json(result: ExperimentResult, path) -> None:
    if result.slope is None:
        payload = {"slope": None, "ci_low": None, "ci_high": None, "note": result.slope_note}
    else:
        payload = {"slope": result.slope.slope, "ci_low": result.slope.ci_low,
                   "ci_high": result.slope.ci_high}
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_rows_csv(path) -> list[dict]:
    """Read a rows CSV back into dicts with typed fields."""
    out = []
    with open(Path(path), newline="") as fh:
        for rec in csv.DictReader(fh):
            out.append({
                "mode": rec["mode"],
                "n": int(rec["n"]),
                "trial": int(rec["trial"]),
                "seed": int(rec["seed"]),
                "metric": rec["metric"],
                "value": float(rec["value"]),
            })
    return out
