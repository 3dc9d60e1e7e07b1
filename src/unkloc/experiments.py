"""Seeded Monte Carlo harness: sweeps over n, summaries, log-log slope fits.

Each mode is declared once, as one row of ``_MODES``.  Each (n, trial)
cell gets its own 64-bit seed, the SeedSequence hash of (experiment seed,
n, trial), and its Philox streams are the children of that seed.  Cell i
of a sweep is trial i % trials at n_grid[i // trials].  One function runs
cells, ``_run_cells``: it hashes the seeds and stream keys of a share's
cells at one n in chunks of CELL_CHUNK, one array call each, and re-keys
one generator per stream for each cell.  It draws the cells' traces a
chunk at a time into the rows of one matrix of TRACE_POINTS points;
GridDeviation scores a chunk at once, and the modes with readings run a
trial per cell.  A sweep worker's share is its
slice of the cells, and ``run_cell``'s is one cell, so any cell replays
bit-exactly by the sweep's own lines.  A sweep's results are columns: a
uint64 seed per cell and a float64 matrix of cells x metrics.  A trial
whose config is unrunnable at its n (a detection threshold that is not
positive, or a law that hits the redraw bound) becomes NaN values rather
than aborting the sweep; summary counts then show the surviving
denominator.  Any other fault propagates.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
import pickle
import select
import threading
from dataclasses import MISSING, dataclass, fields
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, NoReturn

import numpy as np

from .bandwidth import BandwidthConfig, DetectionOutcome, detect_bandwidth
from .errors import ConfigError, density, refuse_unread, whole
from .estimator import energy_estimate, estimate_field
from .field import BandlimitedField, distortion, random_bandwidth, random_field, reference_field
from .noise import NoiseSpec
from .sampling import (RenewalLaw, SampleTrace, TraceRows, acquire, generate_trace, generate_traces, grid_deviation,
                       rekey, spawn_rngs, stream_keys, trial_seed)

# the most cells whose seeds and stream keys one array call hashes, and whose
# rows one step of the row iterator builds.  The hash holds some 64-128 B of
# temporaries per cell and the row iterator about 80 B, which a chunk bounds;
# a share of up to 512 cells at one n still hashes in one call.
CELL_CHUNK = 512

# the most points of the matrix that a share's traces are drawn into, a chunk
# of rows at a time: at n = 5e3 that is 6 traces of 5157 points, and at n = 20
# CELL_CHUNK traces of 44 (see RenewalSpec.width).  A longer row takes a chunk
# alone.
TRACE_POINTS = 32 * 1024

# below this, means are floating-point residue (e.g. noiseless degenerate
# runs) and a decay slope would be meaningless
SLOPE_FLOOR = 1e-25

# the record keys each field source reads besides "source"
_SOURCE_KEYS = {"paper1": (), "paper2": (), "random": ("b", "seed"), "file": ("path",)}


@dataclass(frozen=True)
class FieldSource:
    """Where the truth field comes from: a built-in set, a seeded random
    draw, or a coefficient file."""

    kind: str  # "paper1" | "paper2" | "random" | "file"
    b: int | None = None
    seed: int | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SOURCE_KEYS:
            raise ConfigError(f"unknown field source {self.kind!r}; choose from {tuple(_SOURCE_KEYS)}")
        if self.kind == "random":
            object.__setattr__(self, "b", random_bandwidth(self.b))
            object.__setattr__(self, "seed", whole("seed", self.seed))
        if self.kind == "file" and not (isinstance(self.path, str) and self.path):
            raise ConfigError("file field source needs a path")

    def resolve(self) -> BandlimitedField:
        if self.kind in ("paper1", "paper2"):
            return reference_field(self.kind)
        if self.kind == "random":
            return random_field(self.b, self.seed)
        return BandlimitedField.load(self.path)

    @classmethod
    def from_dict(cls, data: dict) -> "FieldSource":
        kind = data.get("source")
        if kind is None:
            raise ConfigError("field record needs a 'source' entry")
        source = cls(kind=str(kind), b=data.get("b"), seed=data.get("seed"), path=data.get("path"))
        refuse_unread(data, f"{source.kind} field source", ("source", *_SOURCE_KEYS[source.kind]))
        return source


# the config entries every mode reads; a mode's row names the others it reads
_SHARED = ("mode", "field", "renewal", "noise", "n_grid", "trials", "master_seed")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    field_source: FieldSource
    renewal: RenewalLaw
    noise: NoiseSpec
    n_grid: tuple[int, ...]
    trials: int = 1000
    master_seed: int = 0
    known_b: int | None = None  # estimation bandwidth; defaults to the truth's b
    delta: float = 0.1
    b_max: int = BandwidthConfig.b_max

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if not isinstance(self.n_grid, (list, tuple)):
            raise ConfigError(f"n_grid must be a list of integers, got {self.n_grid!r}")
        grid = tuple(density(n, "n_grid entry") for n in self.n_grid)
        if not grid or any(b >= a for b, a in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be a non-empty, strictly increasing list")
        if grid[0] < self.renewal.lam:
            raise ConfigError(f"n_grid must start at n >= lam = {self.renewal.lam:g} of the {self.renewal.family} "
                              "renewal law; below it a trace can hold no sample")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "trials", whole("trials", self.trials, 1))
        if self.trials > 2**32:  # a cell's trial is hashed as one 32-bit word
            raise ConfigError(f"trials must be at most 2**32, got {self.trials}")
        object.__setattr__(self, "master_seed", whole("master_seed", self.master_seed))
        if self.known_b is not None:
            object.__setattr__(self, "known_b", whole("known_b", self.known_b, 0))
            self._resolves("known_b", self.known_b)
        # BandwidthConfig owns the delta and b_max rules; a probe applies them at load
        BandwidthConfig(delta=self.delta, sigma2=0.0, n=1, b_max=self.b_max)

    def _resolves(self, name: str, b: int) -> None:
        """Refuse an estimation bandwidth b that a trace at n_grid[0] may hold
        too few samples for: M grid points resolve harmonics up to (M - 1)/2."""
        fewest = self.renewal._fewest(self.n_grid[0])
        if 2 * b + 1 > fewest:
            raise ConfigError(f"{name} = {b} needs 2 {name} + 1 samples, but a trace at n = {self.n_grid[0]} "
                              f"may hold {fewest} (lam = {self.renewal.lam:g}); n_grid must start at n >= lam "
                              f"and above lam (2 {name} + 1)")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The record's keys are the field names, with "field" for
        field_source; a key left out takes the field's default.  An entry
        the mode does not read may not be set."""
        names = {("field" if f.name == "field_source" else f.name): f for f in fields(cls)}
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        missing = [key for key, f in names.items() if f.default is MISSING and key not in data]
        if missing:
            raise ConfigError(f"experiment config is missing {missing}")
        entries = {names[key].name: value for key, value in data.items()}
        for key, parse in (("field", FieldSource.from_dict), ("renewal", RenewalLaw.from_dict),
                           ("noise", NoiseSpec.from_dict)):
            if not isinstance(data[key], dict):
                raise ConfigError(f"experiment config entry {key!r} must be a mapping")
            try:
                entries[names[key].name] = parse(data[key])
            except (TypeError, ValueError, OverflowError) as exc:  # ConfigError included
                raise ConfigError(f"config entry {key!r}: {exc}") from exc
        config = cls(**entries)
        refuse_unread(data, f"{config.mode} mode", (*_SHARED, *_MODES[config.mode].reads))
        return config

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(load_record(path))


def load_record(path) -> dict:
    """The config record stored as JSON at path."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a mapping")
    return data


class TrialRow(NamedTuple):  # a tuple: built per cell and metric on access, at a third of a dataclass's cost
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


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """A sweep's results as columns: seeds[i] is the seed of cell i (trial
    i % trials at n_grid[i // trials]) and values[i] its metrics, in the
    mode's order.  rows rebuilds one TrialRow per cell and metric on each
    access."""

    config: ExperimentConfig
    seeds: np.ndarray  # uint64, one per cell
    values: np.ndarray  # float64, cells x metrics
    summary: tuple[SummaryRow, ...]
    slope: SlopeFit | None
    slope_note: str | None = None

    @property
    def rows(self) -> tuple[TrialRow, ...]:
        return tuple(self._rows())

    def _rows(self) -> Iterator[TrialRow]:
        """The row of each cell and metric, cells in order: the one place a
        TrialRow is built.  It converts CELL_CHUNK cells at a time, so a
        stream of rows holds no more."""
        names, grid, trials = _MODES[self.config.mode].metrics, self.config.n_grid, self.config.trials
        for lo in range(0, len(self.seeds), CELL_CHUNK):
            values = iter(self.values[lo:lo + CELL_CHUNK].ravel().tolist())  # each cell's metrics in turn
            for i, seed in enumerate(self.seeds[lo:lo + CELL_CHUNK].tolist(), lo):
                n, trial = grid[i // trials], i % trials
                for name in names:
                    yield TrialRow(n, trial, seed, name, next(values))


# _run_cells draws a chunk of traces; a mode with readings then runs _trial
# on each row, which acquires the row's readings and calls the mode's step
# to score that one trace, while GridDeviation's step scores the whole chunk
# at once.  Each step returns the mode's metrics in order.  These functions
# call the layer functions through this module's globals, where a tracer can
# wrap them.


def detect(config: ExperimentConfig, trace: SampleTrace) -> DetectionOutcome:
    """The bandwidth detector on the trace's readings, as the config sets it."""
    return detect_bandwidth(trace.readings, BandwidthConfig(
        delta=config.delta, sigma2=config.noise.variance, n=trace.spec.n, b_max=config.b_max))


def estimate(config: ExperimentConfig, truth: BandlimitedField, trace: SampleTrace) -> BandlimitedField:
    """The field estimate from the trace's readings at the config's known_b,
    or at the truth's b when the config sets none."""
    return estimate_field(trace.readings, truth.b if config.known_b is None else config.known_b)


def _truth(config: ExperimentConfig) -> BandlimitedField | None:
    """The config's truth field, or None in a mode that takes no readings of
    it.  A mode that estimates at known_b estimates at the truth's b when
    known_b is unset, and that b is held to known_b's bound, which the load
    check cannot apply before the field resolves."""
    if not _MODES[config.mode].readings:
        return None
    truth = config.field_source.resolve()
    if config.known_b is None and "known_b" in _MODES[config.mode].reads:
        config._resolves("b", truth.b)
    return truth


def _distortion(config: ExperimentConfig, truth: BandlimitedField, trace: SampleTrace) -> tuple[float]:
    return (distortion(truth, estimate(config, truth, trace)),)


def _detection(config: ExperimentConfig, truth: BandlimitedField, trace: SampleTrace) -> tuple[float, ...]:
    """success, and its two halves: the stopping rule found truth.b, and
    the kept coefficients are exactly the truth's non-zero ones.  Both sides
    are conjugate-symmetric, so harmonics 0..b decide."""
    outcome = detect(config, trace)
    stop_ok = outcome.detected_b == truth.b  # None when the cap was hit
    coeff_ok = all((outcome.kept.coefficient(k) != 0) == (truth.coefficient(k) != 0) for k in range(truth.b + 1))
    return float(stop_ok and coeff_ok), float(stop_ok), float(coeff_ok)


def _grid_gap(config: ExperimentConfig, truth: None, traces: TraceRows) -> np.ndarray:
    return grid_deviation(traces)[:, None]


def _energy_error(config: ExperimentConfig, truth: BandlimitedField, trace: SampleTrace) -> tuple[float]:
    gap = energy_estimate(trace.readings, config.noise.variance) - truth.energy()
    try:
        return (gap**2,)
    except OverflowError:  # a Python float square past the largest double raises; it reads inf
        return (math.inf,)


class _Mode(NamedTuple):
    metrics: tuple[str, ...]  # the first is the primary metric: summarised, and slope-fit
    reads: tuple[str, ...]  # the config entries it reads besides _SHARED
    slope: bool  # fit a log-log decay slope to the primary metric
    readings: bool  # acquire noisy readings of the truth before the step
    # with readings, a trial's metrics from its trace; without, a matrix of
    # them from a chunk of traces, one row each
    step: Callable[[ExperimentConfig, BandlimitedField | None, SampleTrace | TraceRows], tuple | np.ndarray]


_MODES = {
    "DistortionSweep": _Mode(("distortion",), ("known_b",), True, True, _distortion),
    "BandwidthCurve": _Mode(("success", "stop_check", "coeff_check"), ("delta", "b_max"), False, True, _detection),
    "GridDeviation": _Mode(("grid_deviation",), (), False, False, _grid_gap),
    "EnergyMSE": _Mode(("energy_sq_error",), (), True, True, _energy_error),
}

MODES = tuple(_MODES)
METRIC_SETS = {name: mode.metrics for name, mode in _MODES.items()}


def _streams(config: ExperimentConfig) -> int:
    """The Philox streams a trial of the config's mode draws from: the
    spacing stream, and the noise stream only for readings."""
    return 1 + _MODES[config.mode].readings


def simulate(config: ExperimentConfig, truth: BandlimitedField, n: int, seed: int) -> SampleTrace:
    """The first half of a trial: the trace that seed draws at n, with
    readings when the config's mode scores them."""
    rngs = spawn_rngs(seed, _streams(config))
    trace = generate_trace(config.renewal.at(n), rngs[0])
    return acquire(trace, truth, config.noise, rngs[1]) if _MODES[config.mode].readings else trace


def _trial(config: ExperimentConfig, truth: BandlimitedField, traces: TraceRows, j: int,
           noise: np.random.Generator) -> tuple[float, ...]:
    """The metrics of the trial of row j of traces, whose readings the stream
    noise draws, in the mode's order; NaNs for a trial its config cannot run."""
    mode = _MODES[config.mode]
    try:
        return mode.step(config, truth, acquire(traces.trace(j), truth, config.noise, noise))
    except ConfigError:
        return (math.nan,) * len(mode.metrics)


def run_cell(config: ExperimentConfig, n: int, trial: int) -> tuple[int, dict[str, float]]:
    """The seed of cell (n, trial) and its trial's metrics, which depend only
    on (config, n, trial): the sweep's own lines run this one cell, so a
    replayed row matches its sweep row by construction.  A cell outside the
    config's sweep is a ConfigError, and so is a truth that cannot be
    resolved in a mode that reads it; an unrunnable trial reads NaN, as in
    a sweep."""
    if n not in config.n_grid:
        raise ConfigError(f"n={n} is not in the config grid {list(config.n_grid)}")
    if not 0 <= trial < config.trials:  # trials <= 2**32, so a trial is one word below 2**32
        raise ConfigError(f"trial must lie in [0, trials) = [0, {config.trials}), and so below 2**32; got {trial}")
    cell = config.n_grid.index(n) * config.trials + trial
    seeds, values = _run_cells(config, _truth(config), range(cell, cell + 1))
    return int(seeds[0]), dict(zip(_MODES[config.mode].metrics, values[0].tolist()))


def _run_cells(config: ExperimentConfig, truth: BandlimitedField | None,
               cells: range) -> tuple[np.ndarray, np.ndarray]:
    """The seeds (uint64) and the metrics (float64, cells x metrics) of the
    cells, an increasing range of cell indices: a sweep worker's share, or
    one cell to replay.  The seeds and the stream keys of up to CELL_CHUNK of
    the share's cells at one n are hashed in one array call each, and one
    generator per stream is re-keyed to each cell's key.  The traces are
    drawn a chunk of cells at a time, one a row of a matrix of TRACE_POINTS
    points (or of the share's longest row) allocated once for the share.
    A mode with readings then runs each row's trial; the others score the
    chunk at once."""
    mode = _MODES[config.mode]
    seeds = np.empty(len(cells), dtype=np.uint64)
    values = np.empty((len(cells), len(mode.metrics)))
    rngs = spawn_rngs(config.master_seed, _streams(config))  # any seed: every cell re-keys them
    matrix = np.empty(max(TRACE_POINTS, config.renewal.at(config.n_grid[cells[-1] // config.trials]).width))
    lo = 0
    while lo < len(cells):
        at = cells[lo] // config.trials  # the cells at n_grid[at] end before cell (at + 1) * trials
        hi = min(bisect.bisect_left(cells, (at + 1) * config.trials, lo), lo + CELL_CHUNK)
        spec = config.renewal.at(config.n_grid[at])
        seeds[lo:hi] = chunk = trial_seed(config.master_seed, spec.n, np.asarray(cells[lo:hi]) - at * config.trials)
        # keys[s][j]: the (low, high) key of stream s of cell lo + j, as Python ints
        keys = [list(zip(low.tolist(), high.tolist())) for low, high in stream_keys(chunk, len(rngs))]
        rows = min(CELL_CHUNK, max(1, TRACE_POINTS // spec.width))
        points = matrix[:rows * spec.width].reshape(rows, spec.width)
        for a in range(0, hi - lo, rows):
            b = min(a + rows, hi - lo)
            streams = (rekey(rngs[0], key) for key in keys[0][a:b])  # re-keyed as each row is drawn
            traces = generate_traces(spec, streams, points[:b - a])
            if mode.readings:
                for j in range(a, b):
                    values[lo + j] = _trial(config, truth, traces, j - a, rekey(rngs[1], keys[1][j]))
            else:
                values[lo + a:lo + b] = mode.step(config, truth, traces)
        lo = hi
    return seeds, values


def _orphaned(write: int) -> None:
    """Leave this forked worker once no process reads its pipe: Linux reports
    POLLERR on a pipe's write end when the last read end closes, which the
    caller's does when it dies or stops waiting.  A thread blocked here holds
    no GIL and costs the share nothing; where poll wakes for anything else,
    it ends and the worker runs on as if unwatched."""
    watch = select.poll()
    watch.register(write, 0)  # no event asked for: it wakes on POLLERR or POLLHUP alone
    if any(events & (select.POLLERR | select.POLLHUP) for _, events in watch.poll()):
        os._exit(1)


def _work(write: int, reads: list[int], config: ExperimentConfig, truth: BandlimitedField,
          share: range) -> NoReturn:
    """A forked sweep worker: run the share and write one pickled (ok,
    (seeds, values) or fault) payload to the pipe.  It leaves by os._exit in every
    path, so the caller's atexit handlers, finally blocks and buffered output
    run once, in the caller, and it leaves as soon as its caller is gone.  It
    keeps its write end open until it exits, so the caller meets EOF, and
    closes its read end, only once the worker is done.  A fault that would
    not come back out of pickle is sent as a RuntimeError that carries the
    worker's traceback."""
    try:
        for read in reads:  # its own and its elder siblings' read ends
            os.close(read)
        threading.Thread(target=_orphaned, args=(write,), daemon=True).start()
        try:
            payload = (True, _run_cells(config, truth, share))
        except BaseException as exc:
            try:
                payload = (False, pickle.loads(pickle.dumps(exc)))
            except Exception:
                import traceback  # here, not at the top: only this path needs it, and start-up would pay 1.5 ms

                payload = (False, RuntimeError("".join(traceback.format_exception(exc))))
        with open(write, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps(payload))  # whole before the first byte goes out
        os._exit(0)
    finally:
        os._exit(1)


def run(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Full sweep over config.n_grid x config.trials, over min(workers,
    cells) worker processes (see _run_shares).  Every cell's seed is derived
    from the cell, so the results are the same at any worker count."""
    seeds, values = _run_shares(config, _truth(config), range(len(config.n_grid) * config.trials), workers)
    summary = _summarise(config, values)
    slope, note = _fit_primary_slope(config, summary)
    return ExperimentResult(config=config, seeds=seeds, values=values, summary=summary, slope=slope,
                            slope_note=note)


def _run_shares(config: ExperimentConfig, truth: BandlimitedField, cells: range,
                workers: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeds and the metrics of the cells, as _run_cells gives them,
    with each of min(workers, cells) workers running one interleaved slice
    cells[w::workers]: this process the first, and a child made by os.fork
    each of the others.  A child inherits the config, the truth, its share
    and any patched layer, so nothing is pickled in; its seed and value
    arrays come back pickled over a pipe, and its fault is raised here.  A
    worker that dies before it sends them raises a RuntimeError that names
    it."""
    workers = max(1, min(workers, len(cells)))
    if workers > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"a sweep over {workers} workers forks them, and this platform has no os.fork; "
                          "run it with one worker")
    reads, pids = [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
            except BaseException:
                os.close(write)
                raise
            if pid == 0:
                _work(write, reads, config, truth, cells[w::workers])
            os.close(write)  # a later child must not hold it, or this read end never meets EOF
            pids.append(pid)
        outcomes = [(True, _run_cells(config, truth, cells[::workers]))]
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                # unpickled as it arrives, so its bytes are never held whole beside its arrays
                outcomes.append(pickle.load(pipe) if pipe.peek(1) else None)
    finally:
        for read in reads:  # first: a worker still writing gets EPIPE, not a wait on this process
            os.close(read)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    # allocated once every share is done, so they are not held beside the caller's hashing
    seeds = np.empty(len(cells), dtype=np.uint64)
    values = np.empty((len(cells), len(_MODES[config.mode].metrics)))
    for w, outcome in enumerate(outcomes):
        if outcome is None:
            raise RuntimeError(f"sweep worker {w} of {workers} sent no outcomes; it ended with exit code "
                               f"{os.waitstatus_to_exitcode(statuses[w - 1])}")
        ok, value = outcome
        if not ok:
            raise value
        seeds[w::workers], values[w::workers] = value
    return seeds, values


def _summarise(config: ExperimentConfig, values: np.ndarray) -> tuple[SummaryRow, ...]:
    """The mean, standard error and count of each metric's non-NaN values
    at each n, from the (metric, n) column slice of values."""
    out = []
    for m, name in enumerate(_MODES[config.mode].metrics):
        for at, n in enumerate(config.n_grid):
            column = values[at * config.trials:(at + 1) * config.trials, m]
            column = column[~np.isnan(column)]  # a contiguous copy, in cell order
            count = int(column.size)
            # an inf row reads mean=inf and stderr=nan; huge rows may overflow to inf
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(np.mean(column)) if count else math.nan
                stderr = float(np.std(column, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
            out.append(SummaryRow(metric=name, n=n, mean=mean, stderr=stderr, count=count))
    return tuple(out)


def _fit_primary_slope(config: ExperimentConfig,
                       summary: tuple[SummaryRow, ...]) -> tuple[SlopeFit | None, str | None]:
    mode = _MODES[config.mode]
    if not mode.slope:
        return None, None
    primary = mode.metrics[0]
    points = [(row.n, row.mean) for row in summary if row.metric == primary]
    if len(points) < 3:
        return None, "slope needs at least 3 grid points"
    if any(not math.isfinite(mean) for _, mean in points):
        return None, "slope undefined: missing means"
    if any(mean < SLOPE_FLOOR for _, mean in points):
        return None, f"slope undefined: means below the {SLOPE_FLOOR:g} noise floor"
    return fit_loglog_slope(points), None


def fit_loglog_slope(points) -> SlopeFit:
    """OLS slope of log(mean) on log(n) with a 95% Student-t confidence interval.

    Needs >= 3 points at distinct, positive n with positive, finite means;
    offending n values are named in the error.
    """
    pts = [(int(n), float(mean)) for n, mean in points]
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 (n, mean) points")
    ns = [n for n, _ in pts]
    repeated = sorted({n for n in ns if ns.count(n) > 1})
    if repeated:
        raise ValueError(f"slope fit needs distinct n; repeated n: {repeated}")
    bad = [n for n, mean in pts if not (n > 0 and 0 < mean < math.inf)]
    if bad:
        raise ValueError(f"slope fit needs positive n and positive, finite means; offending n: {bad}")
    x = np.log(np.asarray(ns, dtype=float))  # an int past int64 would make an object array
    y = np.log([mean for _, mean in pts])
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    half = _t975(dof) * se
    return SlopeFit(slope=slope, ci_low=slope - half, ci_high=slope + half)


# π to 64 digits, and the sizes below which a Taylor term and a Newton step
# of _t975 end their loops, for its 50-digit arithmetic
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")
_TERM_END, _STEP_END = Decimal("1e-52"), Decimal("1e-40")


def _sincos(x: Decimal) -> tuple[Decimal, Decimal]:
    """sin x and cos x, for 0 <= x < 2, by their Taylor series in the
    current decimal context."""
    minus_sq, k = -x * x, 0
    sin = s_term = x
    cos = c_term = Decimal(1)
    while abs(c_term) > _TERM_END:
        k += 2
        c_term *= minus_sq / ((k - 1) * k)
        s_term *= minus_sq / (k * (k + 1))
        sin += s_term
        cos += c_term
    return sin, cos


def _t975(dof: int) -> float:
    """The 0.975 quantile of Student's t with dof >= 1 degrees of freedom,
    correctly rounded.

    With t = sqrt(dof) tan θ and c = cos θ, the mass P(|T| <= t) is a finite
    series (Abramowitz and Stegun 26.7.3 and 26.7.4):
        odd dof:  (2/π) (θ + sin θ (c + 2/3 c³ + ... + 2·4···(dof-3) / (1·3···(dof-2)) c^(dof-2)))
        even dof: sin θ (1 + 1/2 c² + ... + 1·3···(dof-3) / (2·4···(dof-2)) c^(dof-2))
    and its θ-derivative is the series' next term times dof / c (and 2/π
    for odd dof).  The mass is concave in θ on [0, π/2), so Newton steps from
    θ = 0 rise to the root of mass = 0.95 without overshooting.  They run in
    50-digit decimal arithmetic, and float() rounds the result once.  Each
    step sums dof / 2 terms, so the cost grows linearly with dof."""
    with localcontext() as ctx:
        ctx.prec = 50
        theta, step = Decimal(0), 1
        while abs(step) > _STEP_END:
            sin, cos = _sincos(theta)
            total, term = 0, cos if dof % 2 else Decimal(1)
            for j in range(dof % 2 + 2, dof + 1, 2):
                total += term
                term *= cos * cos * (j - 1) / j
            if dof % 2:
                mass, slope = 2 * (theta + sin * total) / _PI, 2 * term * dof / cos / _PI
            else:
                mass, slope = sin * total, term * dof / cos
            step = (Decimal("0.95") - mass) / slope
            theta += step
        # sin and cos are at the θ before the last step, which is within 1e-40 of the root
        return float(Decimal(dof).sqrt() * sin / cos)


# CSV / JSON emission -------------------------------------------------------

# the columns of a rows CSV, with the type each is read back as
_ROW_COLUMNS = {"mode": str, "n": int, "trial": int, "seed": int, "metric": str, "value": float}


def write_rows_csv(result: ExperimentResult, path) -> None:
    """Per-trial rows: mode,n,trial,seed,metric,value, streamed from the
    result's columns."""
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ROW_COLUMNS)
        for row in result._rows():
            writer.writerow([result.config.mode, row.n, row.trial, row.seed, row.metric, str(row.value)])


def write_summary_csv(result: ExperimentResult, path) -> None:
    """Primary-metric summary: mode,n,mean,stderr,count."""
    primary = _MODES[result.config.mode].metrics[0]
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
    """Read a rows CSV back into dicts with typed fields; a ConfigError
    names a missing column or the line of a malformed row."""
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [key for key in _ROW_COLUMNS if key not in (reader.fieldnames or ())]
            rows = [] if missing else [{key: kind(rec[key]) for key, kind in _ROW_COLUMNS.items()}
                                       for rec in reader]
        except (TypeError, ValueError, csv.Error) as exc:  # a short row reads its missing cells as None
            raise ConfigError(f"{path}, line {reader.line_num}: {exc}") from exc
    if missing:
        raise ConfigError(f"{path} lacks the rows CSV columns {missing}")
    return rows
