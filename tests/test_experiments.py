"""Sweep harness: seeding, replay, summaries, slope fits, fault rows."""

import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unkloc import experiments
from unkloc.errors import ConfigError
from unkloc.experiments import (
    MODES,
    ExperimentConfig,
    FieldSource,
    fit_loglog_slope,
    load_rows_csv,
    run,
    run_cell,
    write_rows_csv,
    write_slope_json,
    write_summary_csv,
)
from unkloc.noise import NoiseSpec
from unkloc.sampling import RenewalLaw, generate_trace, rekey, spawn_rngs, trial_seed


def _config(**kw):
    base = dict(
        mode="DistortionSweep",
        field_source=FieldSource(kind="paper1"),
        renewal=RenewalLaw("uniform"),
        noise=NoiseSpec.uniform_sym(1.0),
        n_grid=(200, 400, 800),
        trials=4,
        master_seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _record(**kw):
    """The config record of _config(), with the entries in kw set."""
    return {"mode": "DistortionSweep", "field": {"source": "paper1"}, "renewal": {"family": "uniform"},
            "noise": {"family": "uniform", "params": [1.0]}, "n_grid": [200, 400, 800],
            "trials": 4, "master_seed": 11, **kw}


# slope fitting ---------------------------------------------------------------


def test_slope_exact_power_law():
    points = [(n, 1.0 / n) for n in (10, 100, 1000, 10_000)]
    fit = fit_loglog_slope(points)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.ci_low <= -1.0 <= fit.ci_high


def test_slope_with_curvature_matches_inline_ols():
    # mean(n) = 5/n + 100/n^2 bends the log-log line; chase the same fit
    # with a hand-rolled least squares here
    ns = (100, 1000, 10_000, 100_000)
    points = [(n, 5.0 / n + 100.0 / n**2) for n in ns]
    x = np.log(ns)
    y = np.log([m for _, m in points])
    xc = x - x.mean()
    want = float(np.dot(xc, y) / np.dot(xc, xc))
    fit = fit_loglog_slope(points)
    assert fit.slope == pytest.approx(want, abs=1e-12)
    assert -1.05 < fit.slope < -1.0
    assert fit.ci_low < fit.slope < fit.ci_high


def test_slope_rejects_nonpositive_means():
    with pytest.raises(ValueError, match=r"\[200\]"):
        fit_loglog_slope([(100, 1.0), (200, 0.0), (400, 0.5), (800, 0.2)])
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope([(100, 1.0), (200, -2.0), (400, 0.5)])
    # a non-finite mean is refused too, rather than fit to a NaN slope
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"finite means; offending n: \[400\]"):
            fit_loglog_slope([(100, 1.0), (200, 0.5), (400, bad)])
    # so is an n with no logarithm
    with pytest.raises(ValueError, match=r"positive n .*offending n: \[0\]"):
        fit_loglog_slope([(0, 1.0), (10, 0.5), (100, 0.2)])
    # and an n that is not a whole number is named, not truncated to one
    for bad in (2.5, True, math.inf):
        with pytest.raises(ValueError, match=f"slope fit n must be an integer, got {bad!r}"):
            fit_loglog_slope([(bad, 1.0), (3, 0.5), (4, 0.25)])


def test_slope_fit_takes_n_past_int64():
    # np.log of ints past 2**63 would see an object array and raise TypeError
    fit = fit_loglog_slope([(10**20, 1.0), (10**21, 0.5), (10**22, 0.25)])
    assert fit.slope == pytest.approx(math.log(0.5) / math.log(10), rel=1e-12)


def test_slope_rejects_short_input():
    with pytest.raises(ValueError, match="3"):
        fit_loglog_slope([(100, 1.0), (200, 0.5)])
    # three points on one n leave no spread in log(n) to fit
    with pytest.raises(ValueError, match=r"repeated n: \[10\]"):
        fit_loglog_slope([(10, 1.0), (10, 2.0), (10, 3.0)])
    with pytest.raises(ValueError, match=r"repeated n: \[20\]"):
        fit_loglog_slope([(10, 1.0), (20, 2.0), (20, 3.0), (40, 1.0)])


# t_{0.975, dof} computed by mpmath at 60 digits, rounded to the nearest double
T975 = {1: 12.706204736174705, 2: 4.302652729749464, 3: 3.1824463052837095, 10: 2.228138851986275,
        60: 2.0002978220142604, 1000: 1.9623390808264085}


@pytest.mark.parametrize("dof", T975)
def test_t_quantile_is_correctly_rounded(dof):
    assert experiments._t975(dof) == T975[dof]


def test_t_quantile_agrees_with_scipy():
    # scipy's stdtrit is not correctly rounded: 6 ulp low at dof 1, 19 off at dof 6
    stdtrit = pytest.importorskip("scipy.special").stdtrit
    quantiles = {dof: experiments._t975(dof) for dof in range(1, 201)}
    far = [dof for dof, t in quantiles.items() if abs(t - float(stdtrit(dof, 0.975))) > 32 * math.ulp(t)]
    assert not far, f"more than 32 ulp from scipy at dof {far}"


def test_t_quantile_is_correctly_rounded_at_every_small_dof():
    mpmath = pytest.importorskip("mpmath")
    wrong = []
    with mpmath.workdps(60):
        for dof in range(1, 201):
            # P(|T| <= t) = 1 - I_x(dof/2, 1/2) at x = dof / (dof + t²); every quantile lies in [1.9, 13]
            root = mpmath.findroot(lambda t: mpmath.betainc(dof / 2, 0.5, 0, dof / (dof + t * t), regularized=True)
                                   - mpmath.mpf("0.05"), (1.9, 13), solver="anderson")
            if experiments._t975(dof) != float(root):
                wrong.append(dof)
    assert not wrong, f"not the nearest double at dof {wrong}"


def test_t_quantile_is_cheap():
    # a sweep fits one slope, at dof = its grid points less 2
    for dof, budget in ((10, 1e-3), (1000, 0.1)):
        assert min(timeit.repeat(lambda: experiments._t975(dof), number=1, repeat=5)) <= budget, dof


# config ----------------------------------------------------------------------


def test_config_round_trip():
    # a record parses to the config it describes
    cfg = _config(mode="BandwidthCurve", field_source=FieldSource(kind="paper2"),
                  n_grid=(1000, 2000, 4000), delta=0.2, b_max=16)
    again = ExperimentConfig.from_dict(_record(mode="BandwidthCurve", field={"source": "paper2"},
                                               n_grid=[1000, 2000, 4000], delta=0.2, b_max=16))
    assert again == cfg


def test_config_round_trip_random_source():
    cfg = _config(field_source=FieldSource(kind="random", b=4, seed=9))
    again = ExperimentConfig.from_dict(_record(field={"source": "random", "b": 4, "seed": 9}))
    assert again == cfg
    assert np.array_equal(again.field_source.resolve().coeffs,
                          cfg.field_source.resolve().coeffs)


def test_each_mode_refuses_the_entries_it_does_not_read():
    reads = {"DistortionSweep": {"known_b"}, "BandwidthCurve": {"delta", "b_max"},
             "GridDeviation": set(), "EnergyMSE": set()}
    assert set(reads) == set(MODES)
    for mode in MODES:
        for key, value in (("known_b", 3), ("delta", 0.2), ("b_max", 16)):
            record = _record(mode=mode, field={"source": "paper2"}, n_grid=[2000, 4000], **{key: value})
            if key in reads[mode]:
                assert getattr(ExperimentConfig.from_dict(record), key) == value
            else:
                with pytest.raises(ConfigError, match=rf"^{mode} mode does not read \['{key}'\]$"):
                    ExperimentConfig.from_dict(record)
    with pytest.raises(ConfigError, match=r"DistortionSweep mode does not read \['b_max', 'delta'\]"):
        ExperimentConfig.from_dict(_record(delta=0.2, b_max=3))


def test_shipped_configs_load():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert paths
    for path in paths:
        assert ExperimentConfig.load(path).mode in MODES


def test_config_rejects_unknown_keys():
    for key in ("typo_key", "riemann_k"):
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
            ExperimentConfig.from_dict(_record(**{key: 1}))


def test_config_rejects_unsorted_grid():
    with pytest.raises(ConfigError):
        _config(n_grid=(400, 200))
    with pytest.raises(ConfigError):
        _config(n_grid=(200, 200))


def test_config_rejects_grid_below_lambda():
    # n X <= lam, so at n < lam the first spacing can pass 1 and leave an
    # empty trace, which no mode can score
    with pytest.raises(ConfigError, match="lam = 2"):
        _config(n_grid=(1, 200))
    with pytest.raises(ConfigError, match="lam = 4"):
        _config(renewal=RenewalLaw("scaled_beta", alpha=1.0, beta=3.0), n_grid=(3, 200))
    assert _config(renewal=RenewalLaw("degenerate"), n_grid=(1, 200)).n_grid[0] == 1
    # a trace at n = 200 may hold 99 samples, and known_b = b needs 2b + 1
    with pytest.raises(ConfigError, match="known_b = 50 needs 2 known_b [+] 1 samples, but a trace at n = 200 may hold 99"):
        _config(known_b=50)
    assert _config(known_b=49).known_b == 49


def test_config_rejects_more_trials_than_the_seed_word_counts():
    # a cell's trial is hashed as one 32-bit word; a config is only loaded
    # here, since a sweep of 2**32 trials would list more than 4e9 cells
    assert _config(trials=2**32).trials == 2**32
    with pytest.raises(ConfigError, match="trials must be at most 2[*][*]32, got 4294967297"):
        _config(trials=2**32 + 1)
    with pytest.raises(ValueError, match="below 2[*][*]32"):  # replay hashes a cell as the sweep does
        run_cell(_config(trials=2**32), 200, 2**32)


def test_config_rejects_unknown_mode():
    for mode in ("Sweep", "RiemannError"):
        with pytest.raises(ConfigError, match="unknown mode"):
            _config(mode=mode)
        with pytest.raises(ConfigError, match="unknown mode"):
            ExperimentConfig.from_dict(_record(mode=mode))


def test_config_load_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "mode": "DistortionSweep",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        ExperimentConfig.load(path)


def test_config_load_round_trip(tmp_path):
    cfg = _config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_record()))
    assert ExperimentConfig.load(path) == cfg


def test_field_source_file_kind(tmp_path):
    from unkloc.field import reference_field

    path = tmp_path / "truth.json"
    reference_field("paper2").save(path)
    src = FieldSource(kind="file", path=str(path))
    assert src.resolve().b == 12
    with pytest.raises(ConfigError):
        FieldSource(kind="file")
    with pytest.raises(ConfigError):
        FieldSource(kind="random", b=3)  # missing seed


def test_field_source_integers_are_whole_numbers():
    assert FieldSource.from_dict({"source": "random", "b": 3.0, "seed": 1}).b == 3
    for key, bad in (("b", True), ("b", 2.5), ("b", "3"), ("seed", False), ("seed", 1.5)):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            FieldSource.from_dict({"source": "random", "b": 3, "seed": 1, key: bad})
    with pytest.raises(ConfigError, match="trials"):
        _config(trials=True)


def test_records_refuse_entries_their_kind_does_not_read():
    for record, key in (({"source": "paper1", "b": 5}, "b"),
                        ({"source": "random", "b": 2, "seed": 1, "path": "f.json"}, "path"),
                        ({"source": "file", "path": "f.json", "seed": 1}, "seed")):
        with pytest.raises(ConfigError, match=rf"does not read \['{key}'\]"):
            FieldSource.from_dict(record)
    for kind in ("uniform", "triangular", "degenerate"):
        with pytest.raises(ConfigError, match=r"does not read \['alpha'\]"):
            RenewalLaw.from_dict({"family": kind, "alpha": 2.0})
    # a null entry is an unset one
    assert FieldSource.from_dict({"source": "paper1", "b": None}) == FieldSource(kind="paper1")
    assert RenewalLaw.from_dict({"family": "uniform", "beta": None}) == RenewalLaw("uniform")


def test_renewal_law_takes_the_shape_defaults():
    law = RenewalLaw.from_dict({"family": "scaled_beta", "alpha": None})
    assert law == RenewalLaw("scaled_beta", alpha=2.0, beta=2.0)
    assert law.lam == 2.0
    assert RenewalLaw.from_dict({"family": "scaled_beta", "beta": 6.0}).lam == 4.0
    with pytest.raises(ConfigError):
        RenewalLaw("scaled_beta", alpha=-1.0)


def test_config_applies_the_detector_rules_at_load():
    data = _record(mode="BandwidthCurve", field={"source": "paper2"})
    for key, value in (("delta", 0.0), ("delta", float("nan")), ("b_max", -1), ("b_max", 2.5)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({**data, key: value})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# one valid config of each mode that reads entries of its own; together
# they exercise every key, nested ones included
_SHARED = {
    "field": {"source": "random", "b": 3, "seed": 5},
    "renewal": {"family": "scaled_beta", "alpha": 1.5, "beta": 3.0},
    "noise": {"family": "gaussian", "params": [0.5, 4.0]},
    "n_grid": [2000, 4000],
    "trials": 3,
    "master_seed": 7,
}
_VALID = {**_SHARED, "mode": "BandwidthCurve", "delta": 0.2, "b_max": 16}
_VALID_RECORDS = [_VALID, {**_SHARED, "mode": "DistortionSweep", "known_b": 3}]
_KEY_PATHS = [(i, (key,)) for i, record in enumerate(_VALID_RECORDS) for key in record] + [
    (0, (record, key)) for record in ("field", "renewal", "noise") for key in _VALID[record]
]


@settings(max_examples=300, deadline=None)
@given(where=st.sampled_from(_KEY_PATHS), value=_JSON)
def test_config_with_any_one_value_replaced_loads_or_raises_config_error(where, value):
    index, path = where
    data = json.loads(json.dumps(_VALID_RECORDS[index]))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        ExperimentConfig.from_dict(data)
    except ConfigError as exc:
        assert path[0] in str(exc)  # the error names the config key it is about


# running ---------------------------------------------------------------------


def test_run_shape_and_determinism():
    cfg = _config()
    a = run(cfg)
    b = run(cfg)
    assert a.rows == b.rows
    assert a.summary == b.summary
    assert len(a.rows) == 3 * 4  # n_grid x trials, one metric
    assert {row.metric for row in a.rows} == {"distortion"}


def test_run_matches_serial_at_any_worker_count():
    cfg = _config()
    serial = run(cfg).rows
    assert run(cfg, workers=2).rows == serial
    assert run(cfg, workers=4).rows == serial


def test_run_forks_no_more_workers_than_cells(monkeypatch):
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    cfg = _config(n_grid=(200,), trials=2)
    assert run(cfg, workers=8).rows == run(cfg).rows
    assert len(forks) == 1  # this process runs the first of the two cells


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # a running or unreaped child would be found
        os.waitpid(-1, os.WNOHANG)


def _gridgap(**kw):
    return _config(mode="GridDeviation", noise=NoiseSpec.from_dict({"family": "zero"}), **kw)


def _faulting_in(where, fault, monkeypatch):
    """Patch the grid-gap layer to raise fault() in this process ("parent")
    or only in a forked worker ("worker")."""
    parent, real = os.getpid(), experiments.grid_deviation

    def layer(trace):
        if (os.getpid() == parent) == (where == "parent"):
            raise fault()
        return real(trace)

    monkeypatch.setattr(experiments, "grid_deviation", layer)


def test_a_fault_in_the_callers_share_does_not_wait_on_a_full_pipe(monkeypatch):
    # the worker's seeds and values (16 B a cell) overfill the pipe, so it
    # blocks writing until the caller closes its read end; waiting on the
    # worker first would hang
    cfg = _gridgap(n_grid=(100,), trials=12000)
    held = pickle.dumps((True, experiments._run_cells(cfg, experiments._truth(cfg), range(1, cfg.trials, 2))))
    assert len(held) > 64 * 1024
    _faulting_in("parent", lambda: RuntimeError("caller share bug"), monkeypatch)

    def hung(signum, frame):
        raise TimeoutError("run() still waits on its worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="caller share bug"):
            run(cfg, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


def test_a_worker_fault_reaches_the_caller(monkeypatch):
    class WorkerOnly(Exception):  # local to this test, so pickle cannot carry it
        pass

    cfg = _gridgap(n_grid=(100, 200), trials=3)
    _faulting_in("worker", lambda: ZeroDivisionError("worker share bug"), monkeypatch)
    with pytest.raises(ZeroDivisionError, match="worker share bug"):
        run(cfg, workers=2)
    _assert_no_child_left()
    _faulting_in("worker", lambda: WorkerOnly("unpicklable worker bug"), monkeypatch)
    with pytest.raises(RuntimeError, match="unpicklable worker bug") as caught:
        run(cfg, workers=2)
    assert "Traceback" in str(caught.value) and "WorkerOnly" in str(caught.value)
    _assert_no_child_left()


def test_a_worker_that_dies_unheard_is_named(monkeypatch):
    _faulting_in("worker", lambda: os._exit(7), monkeypatch)
    with pytest.raises(RuntimeError, match="sweep worker 1 of 2 sent no outcomes; it ended with exit code 7"):
        run(_gridgap(n_grid=(100,), trials=3), workers=2)
    _assert_no_child_left()


def _gone(pid):
    """Whether pid has exited: a zombie that no reaper has collected counts."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux: POLLERR on an unread pipe and /proc")
def test_a_worker_leaves_once_its_caller_is_killed():
    # the caller prints its worker's pid and runs its share of a sweep that
    # would take minutes; once it is killed, the worker has nothing to send
    # its outcomes to, and must not run on to the end of its share
    code = ("import os; from unkloc.experiments import ExperimentConfig, run\n"
            "fork = os.fork\n"
            "def announced():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = announced\n"
            "run(ExperimentConfig.from_dict({'mode': 'GridDeviation', 'field': {'source': 'paper1'}, "
            "'renewal': {'family': 'uniform'}, 'noise': {'family': 'zero'}, 'n_grid': [200000], "
            "'trials': 100000}), workers=2)")
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    caller = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env)
    worker = None
    try:
        worker = int(caller.stdout.readline())
        time.sleep(0.3)  # both halves are running their shares
        assert not _gone(worker)
        caller.kill()
        caller.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        while not _gone(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _gone(worker), "the worker outlived its killed caller by 2 s"
    finally:
        caller.kill()
        caller.wait(timeout=10)
        caller.stdout.close()
        if worker is not None and not _gone(worker):
            os.kill(worker, signal.SIGKILL)


def test_more_than_one_worker_needs_fork(monkeypatch):
    cfg = _gridgap(n_grid=(100,), trials=3)
    serial = run(cfg).rows
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ConfigError, match="os.fork"):
        run(cfg, workers=2)
    assert run(cfg, workers=1).rows == serial


def test_single_cell_replay_matches_sweep_row():
    cfg = _config()
    result = run(cfg)
    row = result.rows[7]
    seed, again = run_cell(cfg, row.n, row.trial)
    assert seed == row.seed
    assert again[row.metric] == row.value


# a small sweep of each mode; the BandwidthCurve one faults at n = 100
_SMALL_SWEEPS = {
    "DistortionSweep": {"known_b": 4},
    "BandwidthCurve": {"field": {"source": "paper2"}, "n_grid": [100, 2000], "b_max": 16},
    "GridDeviation": {"renewal": {"family": "triangular"}},
    "EnergyMSE": {"noise": {"family": "rademacher", "params": [0.3]}},
}


def _bits(value: float) -> str:
    return float(value).hex()  # tells apart every distinct double, and matches NaN to NaN


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=3, deadline=None)
@given(master_seed=st.integers(0, 2**64 - 1))
def test_every_row_replays_bit_exactly_at_one_and_two_workers(mode, master_seed):
    cfg = ExperimentConfig.from_dict(_record(mode=mode, trials=2, master_seed=master_seed,
                                             **{"n_grid": [100, 200], **_SMALL_SWEEPS[mode]}))
    rows = run(cfg).rows
    assert [(r.n, r.trial, r.seed, r.metric, _bits(r.value)) for r in rows] == [
        (r.n, r.trial, r.seed, r.metric, _bits(r.value)) for r in run(cfg, workers=2).rows]
    for row in rows:
        seed, values = run_cell(cfg, row.n, row.trial)
        assert (seed, _bits(values[row.metric])) == (row.seed, _bits(row.value))


@pytest.mark.parametrize("mode, streams", [("DistortionSweep", 2), ("BandwidthCurve", 2), ("GridDeviation", 1),
                                           ("EnergyMSE", 2)])
def test_a_trial_builds_only_the_streams_it_draws_from(monkeypatch, mode, streams):
    # a GridDeviation trial reads no noise, so it builds no noise stream
    asked = []
    monkeypatch.setattr(experiments, "spawn_rngs",
                        lambda seed, count=2: asked.append(count) or spawn_rngs(seed, count))
    cfg = ExperimentConfig.from_dict(_record(mode=mode, **{"n_grid": [100, 2000], **_SMALL_SWEEPS[mode]}))
    run_cell(cfg, 2000, 1)
    assert asked == [streams]


@pytest.mark.parametrize("mode, streams", [("DistortionSweep", 2), ("BandwidthCurve", 2), ("GridDeviation", 1),
                                           ("EnergyMSE", 2)])
def test_a_sweep_keys_only_the_streams_it_draws_from(monkeypatch, mode, streams):
    # a worker builds its generators once and re-keys them for each cell
    built, keyed = [], []
    monkeypatch.setattr(experiments, "spawn_rngs",
                        lambda seed, count=2: built.append(count) or spawn_rngs(seed, count))
    monkeypatch.setattr(experiments, "rekey", lambda rng, key: keyed.append(key) or rekey(rng, key))
    cfg = ExperimentConfig.from_dict(_record(mode=mode, trials=3, **{"n_grid": [100, 2000], **_SMALL_SWEEPS[mode]}))
    run(cfg)
    assert built == [streams]
    assert len(keyed) == streams * 6


def test_summary_mean_is_arithmetic_mean():
    result = run(_config())
    for srow in result.summary:
        values = [r.value for r in result.rows if r.n == srow.n and r.metric == srow.metric]
        assert srow.count == len(values)
        assert srow.mean == pytest.approx(np.mean(values), rel=1e-12)
        if srow.count > 1:
            want = np.std(values, ddof=1) / math.sqrt(len(values))
            assert srow.stderr == pytest.approx(want, rel=1e-12)


def test_distortion_sweep_has_positive_slope_fit():
    result = run(_config(trials=8))
    assert result.slope is not None
    assert result.slope_note is None
    assert result.slope.ci_low < result.slope.slope < result.slope.ci_high


def test_noiseless_degenerate_sweep_hits_slope_floor():
    cfg = _config(renewal=RenewalLaw("degenerate"), noise=NoiseSpec("zero"),
                  trials=2)
    result = run(cfg)
    for row in result.rows:
        assert row.value < 1e-20
    assert result.slope is None
    assert "floor" in result.slope_note


def test_bandwidth_curve_metrics_are_indicator_valued():
    cfg = _config(mode="BandwidthCurve", field_source=FieldSource(kind="paper2"),
                  n_grid=(2000, 4000, 8000), trials=3, delta=0.1)
    result = run(cfg)
    assert len(result.rows) == 3 * 3 * 3  # grid x trials x metrics
    for row in result.rows:
        assert row.value in (0.0, 1.0)
    assert result.slope is None  # not a decay mode
    assert result.slope_note is None


def test_bandwidth_curve_fault_rows_are_nan():
    # n = 8 makes the detection threshold non-positive; the trial faults and
    # the summary denominator drops to zero for that n
    cfg = _config(mode="BandwidthCurve", field_source=FieldSource(kind="paper2"),
                  n_grid=(8, 2000), trials=3)
    result = run(cfg)
    bad = [r for r in result.rows if r.n == 8]
    assert len(bad) == 9
    assert all(math.isnan(r.value) for r in bad)
    assert all(not math.isnan(r.value) for r in result.rows if r.n == 2000)
    summary = {row.n: row for row in result.summary if row.metric == "success"}
    assert summary[8].count == 0
    assert math.isnan(summary[8].mean)
    assert summary[2000].count == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_other_trial_faults_propagate_out_of_run(monkeypatch, workers):
    def broken(readings, b):
        raise RuntimeError("estimator bug")

    monkeypatch.setattr(experiments, "estimate_field", broken)
    with pytest.raises(RuntimeError, match="estimator bug"):
        run(_config(), workers=workers)


def test_distortion_trial_allocates_about_three_readings_arrays():
    # the spacing draws (which become the locations), the field values
    # (which become the readings) and the noise draw are the only arrays
    # as long as the readings; a trial that also copies them takes about 8x
    cfg = _config(n_grid=(100_000,), trials=1)
    rng_trace, _ = spawn_rngs(trial_seed(cfg.master_seed, 100_000, 0))
    readings_bytes = 8 * generate_trace(cfg.renewal.at(100_000), rng_trace).m
    tracemalloc.start()
    try:
        run_cell(cfg, 100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * readings_bytes


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_holds_at_most_64_bytes_a_cell(tmp_path, workers):
    # a sweep's results are a uint64 seed and a float64 value per cell, and
    # the rows CSV streams from them; a Python row per cell held about 550 B
    write_rows_csv(run(_gridgap(n_grid=(20,), trials=50), workers=workers), tmp_path / "warm.csv")  # first calls
    cells = 10_000
    cfg = _gridgap(n_grid=(20,), trials=cells)
    tracemalloc.start()
    try:
        write_rows_csv(run(cfg, workers=workers), tmp_path / "rows.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * cells, f"{peak / cells:.1f} B a cell"


def test_result_columns_hold_each_cells_seed_and_values():
    cfg = _config(mode="BandwidthCurve", field_source=FieldSource(kind="paper2"), n_grid=(100, 2000), trials=3,
                  b_max=16)
    result = run(cfg)
    assert result.seeds.dtype == np.uint64 and result.seeds.shape == (6,)
    assert result.values.dtype == np.float64 and result.values.shape == (6, 3)
    for i, (seed, values) in enumerate(zip(result.seeds.tolist(), result.values.tolist())):
        n, trial = cfg.n_grid[i // cfg.trials], i % cfg.trials
        rows = result.rows[3 * i:3 * i + 3]
        assert [(row.n, row.trial, row.seed, row.metric) for row in rows] == [
            (n, trial, seed, metric) for metric in ("success", "stop_check", "coeff_check")]
        assert [_bits(row.value) for row in rows] == [_bits(value) for value in values]
        assert math.isnan(values[0]) == (n == 100)  # the threshold is not positive at n = 100


def test_grid_deviation_mode_skips_acquisition():
    cfg = _config(mode="GridDeviation", noise=NoiseSpec("zero"), trials=3)
    result = run(cfg)
    for row in result.rows:
        assert row.metric == "grid_deviation"
        assert 0.0 <= row.value < 1.0


def test_grid_deviation_never_resolves_the_truth(tmp_path, monkeypatch, capsys):
    # GridDeviation scores the trace alone, so a field that cannot be
    # resolved (here any field) stops neither a sweep nor a replay of it
    from unkloc import cli

    def unresolvable(self):
        raise ConfigError(f"the {self.kind} field was resolved")

    monkeypatch.setattr(FieldSource, "resolve", unresolvable)
    cfg = _gridgap(n_grid=(100, 200), trials=3)
    result = run(cfg)
    assert result.values.tobytes() == run(cfg, workers=2).values.tobytes()
    seed, metrics = run_cell(cfg, 200, 2)
    assert seed == int(result.seeds[5]) and _bits(metrics["grid_deviation"]) == _bits(result.values[5, 0])
    record = {"mode": "GridDeviation", "field": {"source": "file", "path": str(tmp_path / "missing.json")},
              "renewal": {"family": "uniform"}, "noise": {"family": "zero"}, "n_grid": [100, 200], "trials": 3}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(record))
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert cli.main(["replay", "--config", str(config), "--n", "200", "--trial", "2",
                     "--rows", str(tmp_path / "out" / "rows.csv")]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["verified"] == ["grid_deviation"]
    with pytest.raises(ConfigError, match="the paper1 field was resolved"):  # a mode with readings still needs it
        run(_config())


@pytest.mark.parametrize("known_b, b", [(None, 3), (5, 5), (0, 0)])
def test_estimate_reads_known_b_and_defaults_to_the_truths(known_b, b):
    cfg = _config(known_b=known_b)
    truth = cfg.field_source.resolve()
    est = experiments.estimate(cfg, truth, experiments.simulate(cfg, truth, 400, 7))
    assert est.b == b


def test_known_b_override_widens_the_estimate():
    cfg = _config(known_b=5, trials=2, n_grid=(500, 1000, 2000))
    result = run(cfg)
    assert all(math.isfinite(r.value) for r in result.rows)


# emission --------------------------------------------------------------------


def test_rows_csv_round_trip(tmp_path):
    result = run(_config())
    path = tmp_path / "rows.csv"
    write_rows_csv(result, path)
    header = path.read_text().split("\n", 1)[0]
    assert header == "mode,n,trial,seed,metric,value"
    back = load_rows_csv(path)
    assert len(back) == len(result.rows)
    for rec, row in zip(back, result.rows):
        assert rec["mode"] == "DistortionSweep"
        assert rec["n"] == row.n
        assert rec["trial"] == row.trial
        assert rec["seed"] == row.seed
        assert rec["value"] == row.value  # repr round trip, bit exact


def test_summary_csv_schema(tmp_path):
    result = run(_config())
    path = tmp_path / "summary.csv"
    write_summary_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "mode,n,mean,stderr,count"
    assert len(lines) == 1 + 3  # one line per n, primary metric only
    first = lines[1].split(",")
    assert first[0] == "DistortionSweep"
    assert int(first[1]) == 200
    assert int(first[4]) == 4


def test_summary_csv_keeps_primary_metric_only(tmp_path):
    cfg = _config(mode="BandwidthCurve", field_source=FieldSource(kind="paper2"),
                  n_grid=(2000, 4000), trials=2)
    result = run(cfg)
    path = tmp_path / "summary.csv"
    write_summary_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 2  # success rows only, not the check metrics


def test_slope_json(tmp_path):
    result = run(_config(trials=8))
    path = tmp_path / "slope.json"
    write_slope_json(result, path)
    data = json.loads(path.read_text())
    assert set(data) == {"slope", "ci_low", "ci_high"}
    assert data["ci_low"] < data["slope"] < data["ci_high"]


def test_slope_json_records_note_when_unfit(tmp_path):
    cfg = _config(renewal=RenewalLaw("degenerate"), noise=NoiseSpec("zero"),
                  trials=2)
    result = run(cfg)
    path = tmp_path / "slope.json"
    write_slope_json(result, path)
    data = json.loads(path.read_text())
    assert data["slope"] is None
    assert "floor" in data["note"]
