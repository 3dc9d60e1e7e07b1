"""Chunked traces: a sweep draws a chunk of cells' traces into the rows of
one matrix, checks them at once and scores GridDeviation per chunk.  Each
cell must still read what one trace at a time gives, bit for bit."""

import math

import numpy as np
import pytest

from unkloc import experiments, sampling
from unkloc.errors import ConfigError
from unkloc.experiments import CELL_CHUNK, TRACE_POINTS, ExperimentConfig, run, run_cell
from unkloc.sampling import SampleTrace, acquire, spawn_rngs, stream_keys, trial_seed

RENEWALS = {
    "uniform": {"family": "uniform"},
    "triangular": {"family": "triangular"},
    "beta(2,2)": {"family": "scaled_beta", "alpha": 2.0, "beta": 2.0},
    "beta(0.05,2)": {"family": "scaled_beta", "alpha": 0.05, "beta": 2.0},
    "degenerate": {"family": "degenerate"},
}

MODES = {
    "GridDeviation": {"field": {"source": "paper1"}, "noise": {"family": "zero"}},
    "DistortionSweep": {"field": {"source": "paper1"}, "noise": {"family": "gaussian", "params": [0.5]}},
    "BandwidthCurve": {"field": {"source": "paper2"}, "noise": {"family": "uniform", "params": [1.0]},
                       "delta": 0.1, "b_max": 16},
    "EnergyMSE": {"field": {"source": "paper1"}, "noise": {"family": "rademacher", "params": [0.5]}},
}

# at n = 1000 and 2000 a chunk holds 30 and 15 rows of the uniform law, and
# 27 and 14 of the others, so 36 trials cross a chunk's edge at each n
GRID, TRIALS = [1000, 2000], 36


def _config(mode, renewal="uniform", trials=TRIALS):
    return ExperimentConfig.from_dict({"mode": mode, "renewal": RENEWALS[renewal], "n_grid": GRID,
                                       "trials": trials, "master_seed": 17, **MODES[mode]})


def _rows(n, renewal="uniform"):
    """The rows of a chunk of traces at n, as the sweep sizes them."""
    spec = sampling.RenewalLaw.from_dict(RENEWALS[renewal]).at(n)
    return min(CELL_CHUNK, max(1, TRACE_POINTS // spec.width))


def _reference_trace(spec, rng):
    """One trace by one loop: blocks of spec.block spacings, each cumulated
    on from the last one's total, cut at the last sum <= 1, and ties nudged
    up one ulp.  Also the blocks drawn and whether a tie was nudged."""
    if spec.law.family == "degenerate":
        return np.arange(1, spec.n + 1) / spec.n, 0, False
    pieces, total, blocks = [], 0.0, 0
    while True:
        partial = np.cumsum(sampling._draw_block(spec, rng, np.empty(spec.block))) + total
        blocks += 1
        cut = int(partial.searchsorted(1.0, side="right"))
        pieces.append(partial[:cut])
        if cut < partial.size:
            break
        total = float(partial[-1])
    locations, tied = np.concatenate(pieces), False
    for i in range(1, locations.size):
        if locations[i] <= locations[i - 1]:
            locations[i], tied = np.nextafter(locations[i - 1], np.inf), True
    return locations, blocks, tied


def _reference(config, truth, n, trial):
    """The metrics of cell (n, trial), one trace at a time, with the blocks
    its trace drew and whether it was nudged."""
    metrics = experiments.METRIC_SETS[config.mode]
    rng_trace, rng_noise = spawn_rngs(trial_seed(config.master_seed, n, trial))
    spec = config.renewal.at(n)
    try:
        locations, blocks, tied = _reference_trace(spec, rng_trace)
    except ConfigError:
        return [math.nan] * len(metrics), 0, False
    if config.mode == "GridDeviation":
        gap = locations - np.arange(1, locations.size + 1) / locations.size
        return [float(np.add.reduce(gap * gap) / locations.size)], blocks, tied
    try:
        read = acquire(SampleTrace(spec, locations), truth, config.noise, rng_noise)
        return list(experiments._MODES[config.mode].step(config, truth, read)), blocks, tied
    except ConfigError:
        return [math.nan] * len(metrics), blocks, tied


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _check_cells(config):
    """Every cell of run at workers 1 and 2 equals its run_cell and the
    reference bit for bit; returns each cell's (blocks, tied)."""
    truth = experiments._truth(config)
    one, two = run(config), run(config, workers=2)
    assert _bits(one.seeds) == _bits(two.seeds) and _bits(one.values) == _bits(two.values)
    drawn = {}
    for i, (seed, values) in enumerate(zip(one.seeds.tolist(), one.values)):
        n, trial = config.n_grid[i // config.trials], i % config.trials
        want, blocks, tied = _reference(config, truth, n, trial)
        assert _bits(values) == _bits(want), (n, trial)
        replayed_seed, replayed = run_cell(config, n, trial)
        assert replayed_seed == seed and _bits(list(replayed.values())) == _bits(values), (n, trial)
        drawn[n, trial] = blocks, tied
    return drawn


@pytest.mark.parametrize("renewal", RENEWALS)
@pytest.mark.parametrize("mode", MODES)
def test_a_chunk_of_traces_reads_as_one_trace_at_a_time(mode, renewal):
    assert all(_rows(n, renewal) < TRIALS for n in GRID)
    drawn = _check_cells(_config(mode, renewal))
    if renewal == "beta(0.05,2)":
        # Var(nX) is about 13, so about 1 trace in 20 takes a second block;
        # some such row sits inside its chunk, not at an edge
        rows = {n: _rows(n, renewal) for n in GRID}
        inside = [(n, t) for (n, t), (blocks, _) in drawn.items() if blocks > 1 and 0 < t % rows[n] < rows[n] - 1]
        assert inside


@pytest.mark.parametrize("mode", MODES)
def test_a_tie_inside_a_chunk_takes_the_one_ulp_nudge(mode, monkeypatch):
    draw = sampling._draw_block

    def tied(spec, rng, out):
        draw(spec, rng, out)
        if out[0] < out[1]:  # about half the rows: a zero spacing makes S_8 equal S_7
            out[7] = 0.0
        return out

    monkeypatch.setattr(sampling, "_draw_block", tied)
    drawn = _check_cells(_config(mode))
    nudged = [t for (n, t), (_, was_tied) in drawn.items() if was_tied]
    assert 0 < len(nudged) < len(drawn)


@pytest.mark.parametrize("mode", MODES)
def test_a_row_that_hits_the_redraw_bound_reads_nan_alone(mode, monkeypatch):
    config = _config(mode)
    clean = run(config)
    n, trial = GRID[0], 5  # row 5 of the first chunk at n = 1000
    assert 0 < trial < _rows(n) - 1
    key = [int(word) for word in stream_keys(trial_seed(config.master_seed, n, trial), 1)[0]]
    draw = sampling._draw_block

    def bounded(spec, rng, out):
        if rng.bit_generator.state["state"]["key"].tolist() == key:
            raise ConfigError(f"{spec} still rejected draws after redrawing")
        return draw(spec, rng, out)

    monkeypatch.setattr(sampling, "_draw_block", bounded)
    cell = trial  # cells at n_grid[0] come first
    for result in (run(config), run(config, workers=2)):
        assert np.isnan(result.values[cell]).all()
        others = np.arange(len(result.seeds)) != cell
        assert _bits(result.values[others]) == _bits(clean.values[others])
    assert all(math.isnan(value) for value in run_cell(config, n, trial)[1].values())


def test_a_row_with_no_sample_is_checked_with_its_chunk(monkeypatch):
    # a row cut before its first sum holds no sample, yet that sum is at or
    # below 1: the chunk's check reads its S_0 = 0 and the stopping rule fails
    cumulate, rows = sampling._cumulate, []

    def empty(spec, rng, row):
        cut, parts = cumulate(spec, rng, row)
        rows.append(row)
        return (0 if len(rows) == 2 else cut), parts

    monkeypatch.setattr(sampling, "_cumulate", empty)
    spec = sampling.RenewalSpec.uniform(200)
    with pytest.raises(RuntimeError, match="stopping rule"):
        sampling.generate_traces(spec, spawn_rngs(7, 4), np.empty((4, spec.width)))
    assert len(rows) == 4


@pytest.mark.parametrize("scale, blocks", [(0.9, 1), (0.8, 2)])
@pytest.mark.parametrize("mode", ["GridDeviation", "EnergyMSE"])
def test_a_row_that_draws_past_its_start_reads_as_whole_blocks(mode, scale, blocks, monkeypatch):
    # a uniform row first draws the start of its block (RenewalSpec.width);
    # spacings shrunk by 0.9 leave that start below 1, so the row draws the
    # rest of its block, and shrunk by 0.8 the whole block too, so every row
    # draws a second.  Each must read as its blocks drawn whole.
    draw, rests = sampling._draw_block, []

    def shrunk(spec, rng, out):
        draw(spec, rng, out)
        out *= scale
        rests.append(out.size == spec.block - spec.width)
        return out

    monkeypatch.setattr(sampling, "_draw_block", shrunk)
    drawn = _check_cells(_config(mode))
    assert min(count for count, _ in drawn.values()) == blocks and any(rests)
