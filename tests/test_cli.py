"""End-to-end CLI checks driven through main(argv)."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unkloc
from unkloc import cli, experiments, noise, sampling
from unkloc.cli import EXIT_CAP, EXIT_FAULT, EXIT_OK, EXIT_USAGE, main
from unkloc.experiments import load_rows_csv, run, simulate
from unkloc.field import BandlimitedField


@pytest.fixture
def paper2_file(tmp_path):
    path = tmp_path / "paper2.json"
    assert main(["field-gen", "paper2", "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def paper1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fields") / "paper1.json"
    assert main(["field-gen", "paper1", "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def sweep_config(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "mode": "DistortionSweep",
        "field": {"source": "paper1"},
        "renewal": {"family": "uniform"},
        "noise": {"family": "uniform", "params": [1.0]},
        "n_grid": [200, 400, 800],
        "trials": 3,
        "master_seed": 4,
    }))
    return path


# field-gen -------------------------------------------------------------------


def test_field_gen_builtin(paper2_file):
    field = BandlimitedField.load(paper2_file)
    assert field.b == 12
    data = json.loads(paper2_file.read_text())
    assert data["coeffs"][24] == [0.1, 0.0]  # k = +12


def test_field_gen_is_byte_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["field-gen", "paper1", "--out", str(a)])
    main(["field-gen", "paper1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_field_gen_random(tmp_path):
    path = tmp_path / "r.json"
    assert main(["field-gen", "--b", "3", "--seed", "5", "--out", str(path)]) == EXIT_OK
    field = BandlimitedField.load(path)
    assert field.b == 3
    assert np.array_equal(field.coeffs[::-1], np.conj(field.coeffs))
    path2 = tmp_path / "r2.json"
    main(["field-gen", "--b", "3", "--seed", "5", "--out", str(path2)])
    assert path.read_bytes() == path2.read_bytes()


def test_field_gen_zero_bandwidth(tmp_path):
    path = tmp_path / "flat.json"
    assert main(["field-gen", "--b", "0", "--seed", "7", "--out", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    assert data["b"] == 0
    assert len(data["coeffs"]) == 1


def test_field_gen_rejects_mixed_source(tmp_path, capsys):
    code = main(["field-gen", "paper1", "--b", "3", "--seed", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_USAGE
    assert "does not read ['b', 'seed']" in capsys.readouterr().err


def test_a_random_field_whose_b_the_sup_norm_probe_cannot_resolve_exits_usage(tmp_path, capsys):
    # the field is scaled by its peak on the 8192-point probe, which aliases
    # once 2b + 1 > 8192; b = 2**64 + 1 once drew coefficients for hours
    assert main(["field-gen", "--b", "4096", "--seed", "1", "--out", str(tmp_path / "f.json")]) == EXIT_USAGE
    assert "bandwidth b must be at most 4095" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "mode": "GridDeviation", "field": {"source": "random", "b": 2**64 + 1, "seed": 3},
        "renewal": {"family": "uniform"}, "noise": {"family": "zero"}, "n_grid": [100], "trials": 1}))
    start = time.perf_counter()
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "bandwidth b must be at most 4095" in capsys.readouterr().err


def test_field_gen_requires_some_source(tmp_path):
    assert main(["field-gen", "--out", str(tmp_path / "x.json")]) == EXIT_USAGE
    assert main(["field-gen", "--b", "3", "--out", str(tmp_path / "x.json")]) == EXIT_USAGE


# estimate --------------------------------------------------------------------


def test_estimate_noiseless_degenerate_is_exact(paper2_file, capsys):
    code = main(["estimate", "--field", str(paper2_file), "--n", "100",
                 "--renewal", "degenerate", "--noise", "zero", "--seed", "0"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 100
    assert payload["m"] == 100
    assert payload["b"] == 12
    assert len(payload["coefficients"]) == 25
    assert payload["distortion"] < 1e-20


def test_estimate_bandwidth_override(paper2_file, capsys):
    code = main(["estimate", "--field", str(paper2_file), "--n", "500",
                 "--noise", "uniform:0.5", "--seed", "3", "--b", "5"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["b"] == 5
    assert len(payload["coefficients"]) == 11


def test_estimate_writes_out_file(paper2_file, tmp_path):
    out = tmp_path / "est.json"
    code = main(["estimate", "--field", str(paper2_file), "--n", "200",
                 "--renewal", "triangular", "--noise", "uniform:1.0",
                 "--seed", "9", "--out", str(out)])
    assert code == EXIT_OK
    assert "distortion" in json.loads(out.read_text())


def test_estimate_rejects_bad_noise_token(paper2_file, capsys):
    code = main(["estimate", "--field", str(paper2_file), "--n", "200",
                 "--noise", "uniform:abc"])
    assert code == EXIT_USAGE
    assert "noise" in capsys.readouterr().err
    # a finite half-width whose fourth power overflows is refused at parse time
    code = main(["detect", "--field", str(paper2_file), "--n", "100000",
                 "--noise", "uniform:1e200"])
    assert code == EXIT_USAGE
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    # Beta(1e-300, 2) underflows to 0, but its lam = 2e300 is refused before any
    # draw (test_sampling checks that the redraw bound stops it as well)
    ["--renewal", "scaled_beta", "--alpha", "1e-300"],
    ["--noise", "gaussian:1:1e-300"],  # a cut of 1e-300 sigma accepts no draw
])
def test_estimate_refuses_a_law_that_never_accepts(paper2_file, capsys, flags):
    start = time.perf_counter()
    code = main(["estimate", "--field", str(paper2_file), "--n", "100", *flags])
    assert code == EXIT_USAGE
    assert ("n >= lam" if "scaled_beta" in flags else "redrawing") in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0  # bounded: about 0.2 s on 2 cores


_PARAM = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_SHAPE = st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(noise.FAMILIES), params=st.lists(_PARAM, max_size=2),
       renewal=st.sampled_from(sampling.FAMILIES), alpha=_SHAPE, beta=_SHAPE)
def test_estimate_fuzz_exits_ok_or_usage(paper1_path, family, params, renewal, alpha, beta):
    token = ":".join([family, *map(repr, params)])
    argv = ["estimate", "--field", str(paper1_path), "--n", "64", "--noise", token,
            "--renewal", renewal, "--out", os.devnull]
    for flag, value in (("--alpha", alpha), ("--beta", beta)):
        if value is not None:
            argv += [flag, repr(value)]
    assert main(argv) in (EXIT_OK, EXIT_USAGE)


# detect ----------------------------------------------------------------------


def test_detect_reference_field(paper2_file, capsys):
    code = main(["detect", "--field", str(paper2_file), "--n", "50000",
                 "--noise", "uniform:1.0", "--seed", "12", "--delta", "0.1"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "Stopped"
    assert payload["detected_b"] == 12
    assert payload["n"] == 50000
    assert payload["delta"] == 0.1


def test_detect_cap_exit_code(paper2_file, capsys):
    # a scan cap below the true bandwidth cannot explain the energy
    code = main(["detect", "--field", str(paper2_file), "--n", "2000",
                 "--renewal", "degenerate", "--noise", "zero", "--b-max", "2"])
    assert code == EXIT_CAP
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "CapReached"
    assert payload["detected_b"] is None


def test_detect_guards_threshold_positivity(paper2_file, capsys):
    code = main(["detect", "--field", str(paper2_file), "--n", "500",
                 "--noise", "uniform:1.0", "--delta", "0.1"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "not positive" in err
    assert "1000" in err


@pytest.mark.parametrize("delta", ["1e155", "1e-200"])
def test_detect_refuses_a_delta_that_overflows(paper2_file, capsys, delta):
    code = main(["detect", "--field", str(paper2_file), "--n", "2000", "--delta", delta])
    assert code == EXIT_USAGE
    assert "overflows" in capsys.readouterr().err


def test_detect_refuses_an_infinite_delta(paper2_file, capsys):
    # an infinite threshold zeroes every coefficient, and JSON has no Infinity
    code = main(["detect", "--field", str(paper2_file), "--n", "20000", "--delta", "inf",
                 "--noise", "uniform:1.0"])
    assert code == EXIT_USAGE
    assert "finite positive" in capsys.readouterr().err


# sweep -----------------------------------------------------------------------


def test_sweep_writes_artifacts(sweep_config, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    out_dir = tmp_path / "out"
    code = main(["sweep", "--config", str(sweep_config), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "rows.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "slope.json").exists()
    stdout = capsys.readouterr().out
    assert "slope=" in stdout
    assert "n=800" in stdout
    lines = (out_dir / "rows.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 9  # 3 n values x 3 trials


def test_sweep_output_is_identical_at_any_worker_count(sweep_config, tmp_path, monkeypatch):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    serial = tmp_path / "serial"
    main(["sweep", "--config", str(sweep_config), "--out", str(serial)])
    monkeypatch.setenv("UNKLOC_THREADS", "3")
    pooled = tmp_path / "pooled"
    main(["sweep", "--config", str(sweep_config), "--out", str(pooled)])
    assert (serial / "rows.csv").read_bytes() == (pooled / "rows.csv").read_bytes()
    assert (serial / "slope.json").read_bytes() == (pooled / "slope.json").read_bytes()


def test_sweep_trial_fault_in_a_worker_exits_fault(sweep_config, tmp_path, monkeypatch, capsys):
    # a forked worker inherits the patched layer; its fault reaches the CLI.
    # Only the worker faults, as the caller's own share would fault first.
    parent, real = os.getpid(), experiments.estimate_field

    def broken(readings, b):
        if os.getpid() != parent:
            raise RuntimeError("estimator bug")
        return real(readings, b)

    monkeypatch.setattr(experiments, "estimate_field", broken)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # a pool even on a one-CPU host
    monkeypatch.setenv("UNKLOC_THREADS", "2")
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]) == EXIT_FAULT
    assert "estimator bug" in capsys.readouterr().err


def test_sweep_worker_that_dies_unheard_exits_fault(sweep_config, tmp_path, monkeypatch, capsys):
    parent, real = os.getpid(), experiments.estimate_field

    def dying(readings, b):
        if os.getpid() != parent:
            os._exit(9)
        return real(readings, b)

    monkeypatch.setattr(experiments, "estimate_field", dying)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("UNKLOC_THREADS", "2")
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]) == EXIT_FAULT
    assert "sweep worker 1 of 2 sent no outcomes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_workers_without_fork_are_a_usage_error(sweep_config, tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("UNKLOC_THREADS", "2")
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "os.fork" in capsys.readouterr().err


def test_sweep_env_var_must_be_integer(sweep_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNKLOC_THREADS", "many")
    code = main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "UNKLOC_THREADS" in capsys.readouterr().err


def test_sweep_threads_are_capped_at_the_cpu_count(sweep_config, tmp_path, monkeypatch, capsys):
    # the sweep forks a process per worker, up to one per cell, so an
    # uncapped value could fork one per cell; the stand-in run forks none
    seen = []
    monkeypatch.setattr(cli, "run", lambda config, workers: seen.append(workers) or run(config))
    for value in ("100000", "1"):
        monkeypatch.setenv("UNKLOC_THREADS", value)
        assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / value)]) == EXIT_OK
    assert seen == [cli._usable_cpus(), 1]
    assert (tmp_path / "100000" / "rows.csv").read_bytes() == (tmp_path / "1" / "rows.csv").read_bytes()


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    # under taskset -c 0 on a many-CPU host a second worker would share the one CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setenv("UNKLOC_THREADS", "2")
    assert cli._usable_cpus() == 1
    assert cli._workers_from_env() == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # an OS without affinity masks falls back to the CPU count
    assert cli._usable_cpus() == 8


def test_sweep_overrides(sweep_config, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    out_dir = tmp_path / "out"
    code = main(["sweep", "--config", str(sweep_config), "--out", str(out_dir),
                 "--n", "100,200", "--trials", "2", "--seed", "99",
                 "--renewal", "triangular"])
    assert code == EXIT_OK
    lines = (out_dir / "rows.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 4
    assert ",100," in lines[1]
    # slope needs 3 points; with 2 the note lands in the json
    note = json.loads((out_dir / "slope.json").read_text())
    assert note["slope"] is None


def test_sweep_refuses_an_empty_grid_flag(sweep_config, tmp_path, capsys):
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o"), "--n", ""]) == EXIT_USAGE
    assert "n_grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("existed", [False, True])
def test_a_failed_sweep_removes_only_the_directory_it_made(sweep_config, tmp_path, monkeypatch, capsys, existed):
    out_dir = tmp_path / "o"
    if existed:
        out_dir.mkdir()

    def starved(config, workers):
        raise MemoryError("no room for the rows")

    monkeypatch.setattr(cli, "run", starved)
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out_dir)]) == EXIT_USAGE
    assert "not enough memory" in capsys.readouterr().err
    assert out_dir.exists() == existed


def test_sweep_missing_config_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_scaled_beta_shape_flags_default_per_flag(paper2_file, sweep_config, tmp_path, monkeypatch):
    # unset --alpha/--beta keep the family default of 2, so lam = (alpha + 2) / alpha
    lams = []
    monkeypatch.setattr(cli, "simulate", lambda config, truth, n, seed: lams.append(config.renewal.lam)
                        or simulate(config, truth, n, seed))
    monkeypatch.setattr(cli, "run", lambda config, workers: lams.append(config.renewal.lam)
                        or run(config))
    assert main(["estimate", "--field", str(paper2_file), "--n", "100",
                 "--renewal", "scaled_beta", "--out", os.devnull]) == EXIT_OK
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o"),
                 "--trials", "1", "--renewal", "scaled_beta", "--alpha", "1.0"]) == EXIT_OK
    assert lams == [2.0, 3.0]


NON_FINITE_FIELD = '{"b": 1, "coeffs": [[Infinity, 0], [0, 0], [Infinity, 0]]}'


def test_estimate_rejects_non_finite_field(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(NON_FINITE_FIELD)
    assert main(["estimate", "--field", str(path), "--n", "100"]) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


def test_sweep_rejects_non_finite_field_file(sweep_config, tmp_path, capsys):
    field = tmp_path / "inf.json"
    field.write_text(NON_FINITE_FIELD)
    data = json.loads(sweep_config.read_text())
    data["field"] = {"source": "file", "path": str(field)}
    sweep_config.write_text(json.dumps(data))
    code = main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


ASYMMETRIC_FIELD = '{"b": 1, "coeffs": [[0.5, 0.1], [0.2, 0], [0.5, 0.1]]}'  # a[-1] is not conj(a[1])


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_field_files_that_are_not_conjugate_symmetric_exit_usage(sweep_config, tmp_path, capsys, command):
    field = tmp_path / "asym.json"
    field.write_text(ASYMMETRIC_FIELD)
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()),
                                        "field": {"source": "file", "path": str(field)}}))
    where = (["--config", str(sweep_config), "--out", str(tmp_path / "o")] if command == "sweep"
             else ["--field", str(field), "--n", "100"])
    assert main([command, *where]) == EXIT_USAGE
    assert "conjugate-symmetric" in capsys.readouterr().err


def test_field_files_with_boolean_coefficients_exit_usage(tmp_path, capsys):
    # complex(True, False) is 1+0j; a JSON true is no coefficient
    field = tmp_path / "bools.json"
    field.write_text('{"b": 1, "coeffs": [[true, false], [true, false], [true, false]]}')
    assert main(["estimate", "--field", str(field), "--n", "100"]) == EXIT_USAGE
    assert "field coefficient must be a number, got True" in capsys.readouterr().err


def test_energy_sweep_whose_squared_error_overflows_reads_inf(sweep_config, tmp_path, capsys):
    # finite field energy 2e200, but an energy error near 1e200 squares past the largest double
    field = tmp_path / "big.json"
    field.write_text('{"b": 1, "coeffs": [[1e100, 0], [0, 0], [1e100, 0]]}')
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), "mode": "EnergyMSE",
                                        "field": {"source": "file", "path": str(field)}}))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out), "--trials", "2"]) == EXIT_OK
    rows = load_rows_csv(out / "rows.csv")
    assert {rec["value"] for rec in rows if rec["n"] == 400} == {math.inf}
    capsys.readouterr()
    assert main(["replay", "--config", str(sweep_config), "--n", "400", "--trial", "1",
                 "--rows", str(out / "rows.csv")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["metrics"] == {"energy_sq_error": math.inf}


def test_sweep_on_a_field_near_the_energy_limit_runs(sweep_config, tmp_path):
    # the file's energy 1.62e308 is finite, but at these n estimates overflow
    # their own energy sum; they must still score (inf or huge distortion rows).
    # n = 7 is the first n at which a trace may hold the 3 samples b = 1 needs
    field = tmp_path / "near.json"
    field.write_text('{"b": 1, "coeffs": [[9e153, 0], [0, 0], [9e153, 0]]}')
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), "n_grid": [7, 8, 9],
                                        "trials": 10, "field": {"source": "file", "path": str(field)}}))
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]) == EXIT_OK


# finite coefficients whose sums overflow: evaluating the first leaves NaN in
# the imaginary part of a real field, the second reads inf and estimates NaN
OVERFLOWING_FIELDS = ['{"b": 1, "coeffs": [[1.5e308, -1.5e308], [0, 0], [1.5e308, 1.5e308]]}',
                      '{"b": 1, "coeffs": [[1e308, 0], [0, 0], [1e308, 0]]}']


@pytest.mark.parametrize("text", OVERFLOWING_FIELDS)
def test_field_files_whose_coefficients_overflow_exit_usage(sweep_config, tmp_path, capsys, text):
    field = tmp_path / "big.json"
    field.write_text(text)
    assert main(["estimate", "--field", str(field), "--n", "100"]) == EXIT_USAGE
    assert "energy" in capsys.readouterr().err
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()),
                                        "field": {"source": "file", "path": str(field)}}))
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "energy" in capsys.readouterr().err


_COEFF = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _field_records(draw):
    b = draw(st.integers(0, 2))
    pairs = draw(st.lists(st.tuples(_COEFF, _COEFF), min_size=2 * b + 1, max_size=2 * b + 1))
    if draw(st.booleans()):  # mirror the upper half: a conjugate-symmetric, real field
        upper = pairs[b + 1:]
        pairs = [(re, -im) for re, im in reversed(upper)] + [(pairs[b][0], 0.0)] + upper
    return {"b": b, "coeffs": pairs}


@settings(max_examples=50, deadline=None)
@given(field=_field_records())
def test_estimate_on_any_finite_field_file_exits_ok_or_usage(tmp_path_factory, field):
    where = tmp_path_factory.mktemp("field")
    (where / "field.json").write_text(json.dumps(field))
    code = main(["estimate", "--field", str(where / "field.json"), "--n", "64", "--noise", "uniform:0.5",
                 "--out", str(where / "estimate.json")])
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_OK:
        assert "NaN" not in (where / "estimate.json").read_text()


@pytest.mark.parametrize("patch", [
    {"delta": "x"},
    {"n_grid": 5},
    {"renewal": {"family": "scaled_beta", "alpha": "x"}},
    {"field": {"source": "random", "b": "x", "seed": 1}},
    {"noise": {"family": "uniform", "params": [1e200]}, "mode": "EnergyMSE"},  # moments overflow
    # booleans and strings are not numbers: a JSON true would read as 1, and a
    # string or a mapping would be read one character or key at a time
    {"renewal": {"family": "scaled_beta", "alpha": True}},
    {"renewal": {"family": "scaled_beta", "beta": True}},
    {"noise": {"family": "gaussian", "params": "12"}},
    {"noise": {"family": "uniform", "params": {"3": 1}}},
    {"noise": {"family": "uniform", "params": [True]}},
])
def test_sweep_config_type_errors_exit_usage(sweep_config, tmp_path, capsys, patch):
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), **patch}))
    code = main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert next(iter(patch)) in capsys.readouterr().err  # the error names the offending key


# flags and records -----------------------------------------------------------


@pytest.mark.parametrize("command", ["estimate", "detect", "sweep"])
def test_lambda_flag_is_gone(paper2_file, sweep_config, tmp_path, capsys, command):
    # the mean-1 constraint pins lam, so no flag may set it
    where = (["--config", str(sweep_config), "--out", str(tmp_path / "o")] if command == "sweep"
             else ["--field", str(paper2_file), "--n", "2000"])
    assert main([command, *where, "--lambda", "2.0"]) == EXIT_USAGE
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("argv, patch, key", [
    (["estimate", "--alpha", "5"], None, "alpha"),  # uniform spacings have no shape
    (["detect", "--renewal", "triangular", "--beta", "3"], None, "beta"),
    (["sweep", "--beta", "9"], None, "beta"),  # the config renewal record is uniform
    (["sweep"], {"field": {"source": "paper1", "b": 5}}, "b"),
    (["sweep"], {"field": {"source": "random", "b": 2, "seed": 1, "path": "x.json"}}, "path"),
    (["field-gen", "paper1", "--b", "3"], None, "b"),
    (["field-gen", "paper2", "--seed", "3"], None, "seed"),
    (["sweep", "--delta", "0.5"], None, "delta"),  # the config mode is DistortionSweep
    (["sweep"], {"mode": "GridDeviation", "delta": 0.2}, "delta"),
    (["sweep"], {"b_max": 3}, "b_max"),
    (["sweep"], {"mode": "EnergyMSE", "known_b": 3}, "known_b"),
    (["sweep"], {"noise": {"family": "zero", "sigma": 3, "params": []}}, "sigma"),
])
def test_unread_entries_exit_usage(paper2_file, sweep_config, tmp_path, capsys, argv, patch, key):
    if patch:
        sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), **patch}))
    where = {"sweep": ["--config", str(sweep_config), "--out", str(tmp_path / "o")],
             "field-gen": ["--out", str(tmp_path / "f.json")]}.get(
                 argv[0], ["--field", str(paper2_file), "--n", "2000"])
    assert main([*argv, *where]) == EXIT_USAGE
    assert f"does not read ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("command, flags", [
    ("estimate", ["--n", "1"]),  # uniform: lam = 2
    ("detect", ["--n", "1500", "--renewal", "scaled_beta", "--alpha", "1e-3"]),  # lam = 2001
    ("estimate", ["--n", "1000", "--b", "400000"]),  # a trace may hold 499 samples, and b needs 2b + 1
    ("estimate", ["--n", "40"]),  # with no --b the truth's b = 12 needs 25 samples; a trace may hold 19
])
def test_simulation_refuses_n_below_lambda(paper2_file, capsys, command, flags):
    # the rule sweep configs already follow: below lam a trace can hold no sample
    assert main([command, "--field", str(paper2_file), *flags]) == EXIT_USAGE
    assert "n >= lam" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "detect", "sweep"])
def test_an_n_that_no_float_holds_exits_usage(paper2_file, sweep_config, tmp_path, capsys, command):
    # every formula in n runs in floats; a sweep checks every grid entry,
    # the largest too, before any trial runs
    huge = 10**400
    if command == "sweep":
        sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), "n_grid": [200, 400, huge]}))
        argv = ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]
    else:
        argv = [command, "--field", str(paper2_file), "--n", str(huge)]
    assert main(argv) == EXIT_USAGE
    assert "largest float" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# the address space the memory tests give themselves: room for the
# interpreter and numpy, far too little for a trace of 10**12 samples
_ADDRESS_SPACE = 3 << 30
_LIMITED_MAIN = ("import resource, sys; "
                 "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
                 f"limit = {_ADDRESS_SPACE} if hard == resource.RLIM_INFINITY else min(hard, {_ADDRESS_SPACE}); "
                 "resource.setrlimit(resource.RLIMIT_AS, (limit, hard)); "
                 "from unkloc.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("command, n", [("estimate", 10**12), ("estimate", 10**17), ("detect", 10**12),
                                        ("sweep", 10**12)])
def test_an_n_that_memory_cannot_hold_exits_usage(paper2_file, sweep_config, tmp_path, command, n):
    # a float holds n, but the first draw block of about n spacings does not
    # fit; the command runs under an address-space limit it sets on itself,
    # so the allocation fails at once and nothing is really allocated
    pytest.importorskip("resource")
    if command == "sweep":
        sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), "n_grid": [200, n]}))
        argv = ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]
    else:
        argv = [command, "--field", str(paper2_file), "--n", str(n)]
    proc = _interpreter(_LIMITED_MAIN, *argv)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: not enough memory: "), proc.stderr


def test_sweep_shape_flags_patch_the_config_renewal(sweep_config, tmp_path, capsys):
    data = json.loads(sweep_config.read_text())
    data["renewal"] = {"family": "scaled_beta", "alpha": 2.0}
    sweep_config.write_text(json.dumps(data))
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**data, "renewal": {"family": "scaled_beta", "alpha": 2.0, "beta": 9.0}}))
    for config, flags, out in ((sweep_config, [], "plain"), (sweep_config, ["--beta", "9"], "patched"),
                               (wide, [], "wide")):
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / out), *flags]) == EXIT_OK
    rows = {out: (tmp_path / out / "rows.csv").read_bytes() for out in ("plain", "patched", "wide")}
    assert rows["patched"] != rows["plain"]
    assert rows["patched"] == rows["wide"]


@pytest.mark.parametrize("text", ['{"coeffs": [[1, 0]]}', '{"b": 1, "coeffs": [0.1, 0.2, 0.1]}'])
def test_estimate_refuses_a_field_file_without_b_or_coefficient_pairs(tmp_path, capsys, text):
    path = tmp_path / "field.json"
    path.write_text(text)
    assert main(["estimate", "--field", str(path), "--n", "100"]) == EXIT_USAGE
    assert "field record must carry 'b' and 'coeffs' as [re, im] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("b", ["2.5", "true", '"2"'])
def test_estimate_refuses_a_field_file_with_a_non_integer_bandwidth(tmp_path, capsys, b):
    # five pairs would fit b = 2, which int() used to truncate 2.5 to
    path = tmp_path / "field.json"
    path.write_text('{"b": %s, "coeffs": [[0, 0], [0, 0], [1, 0], [0, 0], [0, 0]]}' % b)
    assert main(["estimate", "--field", str(path), "--n", "100"]) == EXIT_USAGE
    assert "bandwidth b must be an integer" in capsys.readouterr().err


_FLAG_VALUE = st.one_of(st.integers(-3, 10**4).map(str), st.floats(0.1, 5.0).map(repr),
                        st.floats(allow_nan=True, allow_infinity=True).map(repr), st.text(max_size=6))


_NOISE_TOKEN = st.sampled_from(["zero", "uniform:0.5", "gaussian:0.3:4"]) | st.builds(
    lambda family, params: ":".join([family, *map(repr, params)]),
    st.sampled_from(noise.FAMILIES), st.lists(_PARAM, max_size=2))


@settings(max_examples=25, deadline=None)
@given(noise_token=_NOISE_TOKEN, renewal=st.none() | st.sampled_from(sampling.FAMILIES),
       alpha=_SHAPE, beta=_SHAPE, n=st.integers(1, 3000),
       delta=st.none() | st.floats(0.05, 1.0) | st.floats(allow_nan=True),
       b_max=st.none() | st.integers(-2, 70))
def test_detect_fuzz_exits_ok_usage_or_cap(paper1_path, noise_token, renewal, alpha, beta,
                                          n, delta, b_max):
    argv = ["detect", "--field", str(paper1_path), "--n", str(n), "--noise", noise_token,
            "--out", os.devnull]
    for flag, value in (("--renewal", renewal), ("--alpha", alpha), ("--beta", beta),
                        ("--delta", delta), ("--b-max", b_max)):
        if value is not None:
            argv += [flag, str(value) if isinstance(value, str) else repr(value)]
    assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_CAP)


_SWEEP_FLAGS = ("--n", "--trials", "--seed", "--delta", "--renewal", "--alpha", "--beta", "--noise")


@settings(max_examples=25, deadline=None)
@given(flags=st.dictionaries(st.sampled_from(_SWEEP_FLAGS),
                             _FLAG_VALUE | st.sampled_from(sampling.FAMILIES + noise.FAMILIES)
                             | st.lists(st.integers(1, 600), min_size=1, max_size=3).map(
                                 lambda ns: ",".join(map(str, ns))),
                             max_size=4))
def test_sweep_fuzz_exits_ok_or_usage(tmp_path_factory, flags):
    config = tmp_path_factory.mktemp("fuzz") / "sweep.json"
    config.write_text(json.dumps({
        "mode": "BandwidthCurve", "field": {"source": "paper1"},
        "renewal": {"family": "scaled_beta"}, "noise": {"family": "uniform", "params": [0.5]},
        "n_grid": [100, 200], "trials": 2, "delta": 0.3, "b_max": 4,
    }))
    argv = ["sweep", "--config", str(config), "--out", str(config.parent / "o")]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    if "--trials" in flags:
        argv.append("--trials=2")  # keep the run small; the fuzzed value still has to parse
    assert main(argv) in (EXIT_OK, EXIT_USAGE)


# replay ----------------------------------------------------------------------


def test_replay_verifies_recorded_rows(sweep_config, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    out_dir = tmp_path / "out"
    main(["sweep", "--config", str(sweep_config), "--out", str(out_dir)])
    capsys.readouterr()
    code = main(["replay", "--config", str(sweep_config), "--n", "400", "--trial", "1",
                 "--rows", str(out_dir / "rows.csv")])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] == ["distortion"]
    assert payload["n"] == 400


def test_replay_detects_tampered_rows(sweep_config, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    out_dir = tmp_path / "out"
    main(["sweep", "--config", str(sweep_config), "--out", str(out_dir)])
    rows_path = out_dir / "rows.csv"
    lines = rows_path.read_text().strip().split("\n")
    for i, line in enumerate(lines):
        if line.startswith("DistortionSweep,400,1,"):
            parts = line.split(",")
            parts[-1] = "0.123456"
            lines[i] = ",".join(parts)
    rows_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["replay", "--config", str(sweep_config), "--n", "400", "--trial", "1",
                 "--rows", str(rows_path)])
    assert code == EXIT_FAULT
    assert "mismatch" in capsys.readouterr().err


def test_replay_refuses_rows_of_another_mode(sweep_config, tmp_path, capsys, monkeypatch):
    # a GridDeviation sweep's rows hold no distortion to verify; that is a
    # usage error, not a mismatch
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({**json.loads(sweep_config.read_text()), "mode": "GridDeviation"}))
    assert main(["sweep", "--config", str(grid), "--out", str(tmp_path / "o")]) == EXIT_OK
    capsys.readouterr()
    assert main(["replay", "--config", str(sweep_config), "--n", "400", "--trial", "1",
                 "--rows", str(tmp_path / "o" / "rows.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "mode GridDeviation" in err and "mode DistortionSweep" in err


@pytest.mark.parametrize("with_rows", [False, True])
def test_replay_exits_usage_on_a_field_file_that_cannot_load(sweep_config, tmp_path, capsys, with_rows):
    # sweep refuses this file; replay must too, not report (or verify) a NaN row
    field = tmp_path / "bad.json"
    field.write_text('{"b": 2.5, "coeffs": [[0.1, 0], [0.2, 0], [0.1, 0]]}')
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()),
                                        "field": {"source": "file", "path": str(field)}}))
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    rows = tmp_path / "rows.csv"
    rows.write_text(f"mode,n,trial,seed,metric,value\nDistortionSweep,400,1,{sampling.trial_seed(4, 400, 1)},"
                    "distortion,nan\n")
    capsys.readouterr()
    assert main(["replay", "--config", str(sweep_config), "--n", "400", "--trial", "1",
                 *(["--rows", str(rows)] if with_rows else [])]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "bandwidth b" in captured.err and captured.out == ""


def test_sweep_and_replay_refuse_a_truth_whose_b_the_grid_cannot_resolve(sweep_config, tmp_path, capsys):
    # with no known_b a DistortionSweep estimates at the truth's b; at n = 200
    # a trace may hold 99 samples, too few for b = 50, as for known_b = 50
    field = tmp_path / "wide.json"
    BandlimitedField.from_half([0.1] + [0.0] * 49 + [0.2]).save(field)
    record = {**json.loads(sweep_config.read_text()), "field": {"source": "file", "path": str(field)}}
    sweep_config.write_text(json.dumps(record))
    for argv in (["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")],
                 ["replay", "--config", str(sweep_config), "--n", "400", "--trial", "1"]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "b = 50 needs 2 b + 1 samples, but a trace at n = 200 may hold 99" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "o").exists()
    sweep_config.write_text(json.dumps({**record, "known_b": 49}))  # a known_b the grid resolves runs
    assert main(["replay", "--config", str(sweep_config), "--n", "400", "--trial", "1"]) == EXIT_OK


def test_replay_refuses_a_trial_past_the_seed_word(sweep_config, capsys):
    # a cell's trial is hashed as one 32-bit word, so a config may not hold
    # a trial 2**32; the sweep is refused at load and never runs
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), "trials": 2**32 + 2}))
    assert main(["replay", "--config", str(sweep_config), "--n", "200", "--trial", str(2**32)]) == EXIT_USAGE
    assert "trials must be at most 2**32" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fault_sweep(tmp_path_factory):
    """A BandwidthCurve config whose n = 100 cells are unrunnable (NaN rows), and its rows."""
    where = tmp_path_factory.mktemp("faults")
    config = where / "sweep.json"
    config.write_text(json.dumps({
        "mode": "BandwidthCurve", "field": {"source": "paper2"}, "renewal": {"family": "uniform"},
        "noise": {"family": "uniform", "params": [0.5]}, "n_grid": [100, 2000], "trials": 2,
        "master_seed": 3, "delta": 0.1, "b_max": 16,
    }))
    assert main(["sweep", "--config", str(config), "--out", str(where / "o")]) == EXIT_OK
    return config, where / "o" / "rows.csv"


def test_replay_verifies_fault_rows(fault_sweep, capsys):
    # at n = 100 the threshold 0.1 - 100**(-1/3) is negative, so those cells are NaN rows
    config, rows = fault_sweep
    assert {math.isnan(rec["value"]) for rec in load_rows_csv(rows) if rec["n"] == 100} == {True}
    capsys.readouterr()
    for n in (100, 2000):
        assert main(["replay", "--config", str(config), "--n", str(n), "--trial", "1",
                     "--rows", str(rows)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] == ["coeff_check", "stop_check", "success"]
        assert {math.isnan(value) for value in payload["metrics"].values()} == {n == 100}


@pytest.mark.parametrize("text, missing", [
    ("a,b\n1,2\n", "['mode', 'n', 'trial', 'seed', 'metric', 'value']"),
    ("mode,n,trial,seed,metric\nBandwidthCurve,100,0,1,success\n", "['value']"),
])
def test_replay_refuses_rows_without_the_row_columns(fault_sweep, tmp_path, capsys, text, missing):
    rows = tmp_path / "rows.csv"
    rows.write_text(text)
    assert main(["replay", "--config", str(fault_sweep[0]), "--n", "100", "--trial", "0",
                 "--rows", str(rows)]) == EXIT_USAGE
    assert f"lacks the rows CSV columns {missing}" in capsys.readouterr().err


def test_replay_refuses_a_metric_recorded_twice(fault_sweep, tmp_path, capsys):
    # a conflicting success row placed before the true one: were the last row
    # of each metric read alone, the cell would verify
    config, real = fault_sweep
    header, *lines = real.read_text().splitlines()
    true = next(line for line in lines if line.startswith("BandwidthCurve,2000,1,") and ",success," in line)
    head, value = true.rsplit(",", 1)
    rows = tmp_path / "rows.csv"
    rows.write_text("\n".join([header, f"{head},{1.0 - float(value)}", *lines]) + "\n")
    assert main(["replay", "--config", str(config), "--n", "2000", "--trial", "1", "--rows", str(rows)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "record metric success twice" in captured.err and captured.out == ""


def test_replay_refuses_rows_without_the_cell(fault_sweep, tmp_path, capsys):
    config, real = fault_sweep
    rows = tmp_path / "rows.csv"
    rows.write_text("".join(line for line in real.read_text().splitlines(keepends=True)
                            if not line.startswith("BandwidthCurve,2000,1,")))
    assert main(["replay", "--config", str(config), "--n", "2000", "--trial", "1", "--rows", str(rows)]) == EXIT_USAGE
    assert f"no rows for n=2000, trial=1 in {rows}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"mode": "GridDeviation", "field": {"source": "paper1"}, "renewal": {"family": "uniform"}, '
     '"noise": {"family": "zero"}}', "experiment config is missing ['n_grid']"),
    ('[{"mode": "GridDeviation"}]', "experiment config must be a mapping"),
])
def test_replay_refuses_a_config_that_is_no_sweep_record(tmp_path, capsys, text, message):
    config = tmp_path / "sweep.json"
    config.write_text(text)
    assert main(["replay", "--config", str(config), "--n", "200", "--trial", "0"]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def _cell_records(path, n, trial):
    return {rec["metric"]: (rec["seed"], rec["value"].hex())
            for rec in load_rows_csv(path) if rec["n"] == n and rec["trial"] == trial}


def _flag(cells):
    """Mostly a cell of the fault sweep's grid, now and then one outside it or no integer."""
    return st.sampled_from(cells * 4 + ["", "x", "-1", "99999", "1e3"])


_ROW_CELL = st.text(max_size=6) | st.sampled_from(["nan", "0.0", "1.0", "100", "2000", "success", "-1"])


@settings(max_examples=100, deadline=None)
@given(n=_flag(["100", "2000"]), trial=_flag(["0", "1"]), data=st.data())
def test_replay_fuzz_exits_ok_or_usage_and_faults_only_on_a_mismatch(fault_sweep, tmp_path_factory,
                                                                   n, trial, data):
    config, real = fault_sweep
    table = [line.split(",") for line in real.read_text().splitlines()]
    for _ in range(data.draw(st.integers(0, 3))):
        row = table[data.draw(st.integers(0, len(table) - 1))]
        col = data.draw(st.integers(0, len(row) - 1))
        cell = data.draw(st.none() | _ROW_CELL)
        if cell is None:
            del row[col]
        else:
            row[col] = cell
    if data.draw(st.integers(0, 3)) == 0:  # now and then a table of any cells, or text that need not be CSV
        table = data.draw(st.lists(st.lists(_ROW_CELL, max_size=7), max_size=4)
                          | st.text(max_size=40).map(lambda text: [[text]]))
    text = "\n".join(",".join(row) for row in table)
    rows = tmp_path_factory.mktemp("rows") / "rows.csv"
    rows.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["replay", "--config", str(config), f"--n={n}", f"--trial={trial}", "--rows", str(rows),
                     "--out", os.devnull])
    if code == EXIT_FAULT:  # only a recorded value that differs from the real one
        assert "replay mismatch" in err.getvalue()
        assert _cell_records(rows, int(n), int(trial)) != _cell_records(real, int(n), int(trial))
    else:
        assert code in (EXIT_OK, EXIT_USAGE), err.getvalue()


def test_replay_without_rows_just_reports(sweep_config, capsys):
    code = main(["replay", "--config", str(sweep_config), "--n", "200", "--trial", "0"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "distortion" in payload["metrics"]
    assert "verified" not in payload


def test_replay_rejects_off_grid_cell(sweep_config, capsys):
    assert main(["replay", "--config", str(sweep_config), "--n", "999",
                 "--trial", "0"]) == EXIT_USAGE
    assert main(["replay", "--config", str(sweep_config), "--n", "200",
                 "--trial", "77"]) == EXIT_USAGE


@pytest.mark.parametrize("command, mode, flags", [
    ("estimate", "DistortionSweep", []),
    ("detect", "BandwidthCurve", ["--delta", "0.1", "--b-max", "16"]),
])
def test_a_rows_seed_makes_estimate_and_detect_print_that_cells_trial(paper2_file, tmp_path, capsys,
                                                                      command, mode, flags):
    # estimate and detect run the sweep's own trial (same streams, same
    # detector settings), so --seed set to a row's seed prints that row's trial
    config = tmp_path / "sweep.json"
    record = {"mode": mode, "field": {"source": "file", "path": str(paper2_file)},
              "renewal": {"family": "triangular"}, "noise": {"family": "uniform", "params": [1.0]},
              "n_grid": [2000, 20000], "trials": 3, "master_seed": 11}
    if mode == "BandwidthCurve":
        record.update(delta=0.1, b_max=16)
    config.write_text(json.dumps(record))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_OK
    truth = BandlimitedField.load(paper2_file)
    rows = load_rows_csv(tmp_path / "o" / "rows.csv")
    successes = set()
    for n, trial in {(rec["n"], rec["trial"]) for rec in rows}:
        cell = {rec["metric"]: rec for rec in rows if rec["n"] == n and rec["trial"] == trial}
        seed = {rec["seed"] for rec in cell.values()}.pop()
        capsys.readouterr()
        code = main([command, "--field", str(paper2_file), "--n", str(n), "--seed", str(seed),
                     "--renewal", "triangular", "--noise", "uniform:1.0", *flags])
        assert code in (EXIT_OK, EXIT_CAP)
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == seed
        if command == "estimate":
            assert float(payload["distortion"]).hex() == cell["distortion"]["value"].hex()
            continue
        kept = payload["kept_coeffs"]
        half = len(kept) // 2
        stop_ok = payload["status"] == "Stopped" and payload["detected_b"] == truth.b
        coeff_ok = all((half >= k and kept[half + k] != [0.0, 0.0]) == (truth.coefficient(k) != 0)
                       for k in range(truth.b + 1))
        assert [float(stop_ok and coeff_ok), float(stop_ok), float(coeff_ok)] == \
            [cell[name]["value"] for name in ("success", "stop_check", "coeff_check")]
        successes.add(stop_ok and coeff_ok)
    assert mode == "DistortionSweep" or successes == {False, True}  # both outcomes are compared


# pinned output ---------------------------------------------------------------

# estimate/detect stdout and sweep files for seeded runs, pinned by the first
# 16 hex digits of a sha256 digest (as test_seeded_draws_are_pinned does for
# the draws).  The CLI may change how it reads its flags, never what a run
# writes: a row recorded by one version must replay under the next.
PINNED_RENEWAL_FLAGS = {
    "uniform": [],
    "triangular": ["--renewal", "triangular"],
    "scaled_beta": ["--renewal", "scaled_beta"],
    "scaled_beta:1.5:3": ["--renewal", "scaled_beta", "--alpha", "1.5", "--beta", "3"],
    "degenerate": ["--renewal", "degenerate"],
}
PINNED_NOISE_FLAGS = [[], ["--noise", "uniform:0.5"], ["--noise", "gaussian:0.5:4"],
                      ["--noise", "rademacher:0.3"]]
PINNED_COMMANDS = {
    "estimate": ["--n", "500", "--seed", "3"],
    "detect": ["--n", "2000", "--seed", "5", "--delta", "0.2", "--b-max", "8"],
}
# detect reads the noise variance: its gaussian:0.5:4 entries (index 2) moved
# once the gaussian law reported its truncated moments
PINNED_CLI_DIGESTS = {
    ("estimate", "uniform"): ("dfc3403528785ad2", "edd9d1b3e45e4a75", "a83f20af4ca14bf9", "2c1df9adf1b75b00"),
    ("estimate", "triangular"): ("e8b05c6c3e1feba0", "ff570eed5b3b264f", "f436c6d05185d272", "4326e84e72ba3d15"),
    ("estimate", "scaled_beta"): ("f3e0f7901c4183ab", "4c992239f957bbe5", "0c8b6b050b6b0e8e", "30bae014589a68c9"),
    ("estimate", "scaled_beta:1.5:3"): ("7ae4bc06183a8d9c", "089648044a06d4cb", "b8fb6b1a4e4f8a51", "787d083ceaac3cf9"),
    ("estimate", "degenerate"): ("c0b4e0d3b8ac60f5", "1a91ad608827ee9b", "870ae32fa74250d5", "29ccbb87688b29cb"),
    ("detect", "uniform"): ("dfb86835f597f3f8", "549fa8c4f39b546b", "3084a557ebb586cd", "1003522587779702"),
    ("detect", "triangular"): ("5aa1bd076108d52f", "d1ac6ae2710ea536", "765104124c017b06", "8b3baa16afc6a447"),
    ("detect", "scaled_beta"): ("9694142d969f33df", "b4a7a43f67de551c", "a0018fc0a37baea6", "fe481d94ad5481bb"),
    ("detect", "scaled_beta:1.5:3"): ("f024af2f027ff680", "ca191a29180a2c0b", "1665823bcad6bb06", "f28de552317098b3"),
    ("detect", "degenerate"): ("4af590d9ec88bf21", "8b1282a762bdcb85", "05331ea1cea8a868", "2de3e9856116db72"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("command", PINNED_COMMANDS)
@pytest.mark.parametrize("renewal", PINNED_RENEWAL_FLAGS)
def test_simulated_output_is_pinned(paper1_path, capsys, command, renewal):
    digests = []
    for noise_flags in PINNED_NOISE_FLAGS:
        code = main([command, "--field", str(paper1_path), *PINNED_COMMANDS[command],
                     *PINNED_RENEWAL_FLAGS[renewal], *noise_flags])
        digests.append(_digest(f"{code}\n{capsys.readouterr().out}".encode()))
    assert tuple(digests) == PINNED_CLI_DIGESTS[command, renewal]


PINNED_SWEEPS = {
    "distortion": ({"mode": "DistortionSweep", "field": {"source": "paper1"}},
                   ["--n", "200,400,800", "--trials", "3", "--seed", "5",
                    "--renewal", "scaled_beta", "--alpha", "1.5", "--beta", "3",
                    "--noise", "gaussian:0.5:4"]),
    "bandwidth": ({"mode": "BandwidthCurve", "field": {"source": "paper2"}, "b_max": 16},
                  ["--n", "2000,4000", "--trials", "2", "--seed", "9", "--delta", "0.15",
                   "--renewal", "triangular", "--noise", "uniform:0.5"]),
    "grid": ({"mode": "GridDeviation", "field": {"source": "paper1"}},
             ["--n", "200,400,800", "--trials", "3", "--seed", "6", "--renewal", "triangular"]),
    "energy": ({"mode": "EnergyMSE", "field": {"source": "random", "b": 4, "seed": 2}},
               ["--n", "200,400,800", "--trials", "3", "--seed", "7", "--noise", "rademacher:0.3"]),
    # n spanning two and three blocks of field.BLOCK points (evaluate's blocks and the
    # projection's leaves), at b = 3 and 12
    "distortion_large": ({"mode": "DistortionSweep", "field": {"source": "paper1"}},
                         ["--n", "10000,20000", "--trials", "2", "--seed", "10",
                          "--renewal", "triangular", "--noise", "gaussian:0.5:4"]),
    "energy_large": ({"mode": "EnergyMSE", "field": {"source": "random", "b": 12, "seed": 3}},
                     ["--n", "12289,20000", "--trials", "2", "--seed", "11", "--noise", "uniform:0.5"]),
}
# the distortion and energy slope.json entries (index 2) moved once the
# interval's t quantile was computed correctly rounded, without scipy
PINNED_SWEEP_DIGESTS = {
    "distortion": ("6147d76ec69ec0a3", "b47233b50d8bb077", "04e2187e9728ac82"),
    "bandwidth": ("15799e938ce0b861", "92938cf418f67134", "a5fdfe006dc29e2d"),
    "grid": ("17b83979ed2d5752", "fd91699a308b23e5", "a5fdfe006dc29e2d"),
    "energy": ("cb48da0ee1576133", "915ac0ddc7db33c5", "72511b0729c992ca"),
    "distortion_large": ("f09b3c6bdcdd6228", "78da3145ec891d40", "70cd43a315525f3e"),
    "energy_large": ("96497f8fe485420d", "a1f82618d790cceb", "70cd43a315525f3e"),
}


@pytest.mark.parametrize("sweep", PINNED_SWEEPS)
def test_sweep_output_is_pinned(sweep_config, tmp_path, monkeypatch, capsys, sweep):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    patch, flags = PINNED_SWEEPS[sweep]
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), **patch}))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out_dir), *flags]) == EXIT_OK
    capsys.readouterr()
    digests = tuple(_digest((out_dir / name).read_bytes())
                    for name in ("rows.csv", "summary.csv", "slope.json"))
    assert digests == PINNED_SWEEP_DIGESTS[sweep]


# top level -------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def _interpreter(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """code run with args in a new interpreter, started with flags, that imports this unkloc."""
    src = str(Path(unkloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def _fresh_interpreter(code: str) -> str:
    """What code prints in a new interpreter that imports this unkloc."""
    proc = _interpreter(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # a slope fit computes its own t quantile: scipy.stats cost a sweep about
    # 70 MiB and 1.4 s to import, and no command may pay for any of scipy
    code = ("import sys, unkloc.cli; from unkloc.experiments import ExperimentConfig, run; "
            "result = run(ExperimentConfig.from_dict({'mode': 'DistortionSweep', 'field': {'source': 'paper1'}, "
            "'renewal': {'family': 'uniform'}, 'noise': {'family': 'uniform', 'params': [1.0]}, "
            "'n_grid': [200, 400, 800], 'trials': 2})); "
            "print(result.slope is not None, sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code) == "True []"


def test_one_worker_sweep_leaves_the_process_pool_unloaded():
    # the pool's modules cost every start-up about 14 ms; one worker needs none of them
    code = ("import sys, unkloc.cli; from unkloc.experiments import ExperimentConfig, run; "
            "run(ExperimentConfig.from_dict({'mode': 'GridDeviation', 'field': {'source': 'paper1'}, "
            "'renewal': {'family': 'uniform'}, 'noise': {'family': 'zero'}, 'n_grid': [100, 200], "
            "'trials': 2}), workers=1); "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    assert _fresh_interpreter(code) == "[]"


def test_forked_sweep_under_python_O_writes_the_serial_bytes(sweep_config, tmp_path):
    # one fresh interpreter with asserts stripped sweeps at UNKLOC_THREADS 1
    # and 2, and forks even on a one-CPU host
    code = ("import os, sys; from unkloc import cli; cli._usable_cpus = lambda: 2\n"
            "for threads in ('1', '2'):\n"
            "    os.environ['UNKLOC_THREADS'] = threads\n"
            "    code = cli.main(['sweep', '--config', sys.argv[1], '--out', os.path.join(sys.argv[2], threads)])\n"
            "    if code:\n"
            "        raise SystemExit(code)")
    proc = _interpreter(code, str(sweep_config), str(tmp_path), flags=("-O",))
    assert proc.returncode == EXIT_OK, proc.stderr
    for name in ("rows.csv", "slope.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "field-gen" in capsys.readouterr().out
