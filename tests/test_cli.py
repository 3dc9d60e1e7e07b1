"""End-to-end CLI checks driven through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unkloc
from unkloc.cli import EXIT_CAP, EXIT_FAULT, EXIT_OK, EXIT_USAGE, main
from unkloc.field import BandlimitedField


@pytest.fixture
def paper2_file(tmp_path):
    path = tmp_path / "paper2.json"
    assert main(["field-gen", "paper2", "--out", str(path)]) == EXIT_OK
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
    assert field.is_real
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
    assert "either" in capsys.readouterr().err


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


def test_estimate_rejects_wrong_lambda(paper2_file, capsys):
    code = main(["estimate", "--field", str(paper2_file), "--n", "200",
                 "--lambda", "3.0", "--noise", "zero"])
    assert code == EXIT_USAGE
    assert "mean-1" in capsys.readouterr().err


def test_estimate_accepts_matching_lambda(paper2_file):
    code = main(["estimate", "--field", str(paper2_file), "--n", "200",
                 "--lambda", "2.0", "--noise", "zero", "--out", "/dev/null"])
    assert code == EXIT_OK


def test_estimate_rejects_bad_noise_token(paper2_file, capsys):
    code = main(["estimate", "--field", str(paper2_file), "--n", "200",
                 "--noise", "uniform:abc"])
    assert code == EXIT_USAGE
    assert "noise" in capsys.readouterr().err


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


def test_sweep_threaded_run_is_identical(sweep_config, tmp_path, monkeypatch):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    serial = tmp_path / "serial"
    main(["sweep", "--config", str(sweep_config), "--out", str(serial)])
    monkeypatch.setenv("UNKLOC_THREADS", "3")
    threaded = tmp_path / "threaded"
    main(["sweep", "--config", str(sweep_config), "--out", str(threaded)])
    assert (serial / "rows.csv").read_bytes() == (threaded / "rows.csv").read_bytes()
    assert (serial / "slope.json").read_bytes() == (threaded / "slope.json").read_bytes()


def test_sweep_env_var_must_be_integer(sweep_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNKLOC_THREADS", "many")
    code = main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert "UNKLOC_THREADS" in capsys.readouterr().err


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


def test_sweep_rejects_wrong_lambda(sweep_config, tmp_path, capsys):
    code = main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o"),
                 "--lambda", "3.0"])
    assert code == EXIT_USAGE
    assert "mean-1" in capsys.readouterr().err


def test_sweep_missing_config_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_scaled_beta_shape_flags_default_per_flag(paper2_file, sweep_config, tmp_path):
    # unset --alpha/--beta keep the family default of 2, so lam = (alpha + 2) / alpha
    assert main(["estimate", "--field", str(paper2_file), "--n", "100",
                 "--renewal", "scaled_beta", "--lambda", "2.0"]) == EXIT_OK
    assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o"),
                 "--trials", "1", "--renewal", "scaled_beta", "--alpha", "1.0",
                 "--lambda", "3.0"]) == EXIT_OK


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


@pytest.mark.parametrize("patch", [
    {"delta": "x"},
    {"n_grid": 5},
    {"renewal": {"family": "scaled_beta", "alpha": "x"}},
    {"field": {"source": "random", "b": "x", "seed": 1}},
])
def test_sweep_config_type_errors_exit_usage(sweep_config, tmp_path, patch):
    sweep_config.write_text(json.dumps({**json.loads(sweep_config.read_text()), **patch}))
    code = main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


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


# top level -------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import and only slope fits use it,
    # so commands like replay must not pay for it at start-up
    code = "import sys, unkloc.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(unkloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "field-gen" in capsys.readouterr().out
