"""A seeded fuzz of config records and CLI flags: every input exits in time
with success or a usage error (detect may also report its bandwidth cap),
never an internal fault, a raise or a hang.  It draws from random.Random,
so each run sees the same inputs."""

import contextlib
import io
import json
import math
import random
import time

import pytest

from unkloc.cli import EXIT_CAP, EXIT_OK, EXIT_USAGE, main

SEED = 1
RECORDS = 100
SWAP = 0.04  # the chance that an entry of a record is swapped for a bad value
RECORD_SECONDS = 1.0  # a record at n <= 500 runs in tens of milliseconds

BAD = [None, True, False, 0, -1, 1e30, -1e30, 2**64 + 1, math.nan, math.inf, -math.inf, "x", "", [1, "a"], {"k": 1}]

# one small sweep of each mode, and each field source, at n <= 500
BASES = [
    {"mode": "DistortionSweep", "field": {"source": "paper1"}, "renewal": {"family": "uniform"},
     "noise": {"family": "uniform", "params": [0.5]}, "n_grid": [50, 200, 500], "trials": 2, "master_seed": 1,
     "known_b": 4},
    {"mode": "BandwidthCurve", "field": {"source": "paper2"}, "renewal": {"family": "triangular"},
     "noise": {"family": "gaussian", "params": [0.3, 4.0]}, "n_grid": [100, 500], "trials": 2, "master_seed": 2,
     "delta": 0.3, "b_max": 16},
    {"mode": "GridDeviation", "field": {"source": "random", "b": 5, "seed": 3},
     "renewal": {"family": "scaled_beta", "alpha": 2.0, "beta": 3.0}, "noise": {"family": "zero"},
     "n_grid": [20, 100, 400], "trials": 3, "master_seed": 3},
    {"mode": "EnergyMSE", "field": {"source": "file", "path": "FIELD"}, "renewal": {"family": "uniform"},
     "noise": {"family": "rademacher", "params": [0.2]}, "n_grid": [30, 300], "trials": 2, "master_seed": 4},
]

FLAG_VALUES = ["0", "1", "3", "64", "500", "-1", str(2**64 + 1), "1e30", "nan", "inf", "-inf", "x", ""]
FLAGS = {
    "estimate": {"--n": ["50", "500"], "--seed": ["0", "9"], "--b": ["2", "3"], "--renewal": ["scaled_beta"],
                 "--alpha": ["2.0"], "--beta": ["3.0"], "--noise": ["zero", "uniform:0.5", "gaussian:0.3:4"]},
    "detect": {"--n": ["100", "500"], "--seed": ["0", "9"], "--delta": ["0.3", "0.5"], "--b-max": ["4", "16"],
               "--renewal": ["uniform"], "--noise": ["zero", "rademacher:0.1"]},
    "replay": {"--n": ["100", "500"], "--trial": ["0", "1"], "--rows": ["ROWS"]},
}


def _mutate(value, rng: random.Random):
    """value with each entry, at any depth, swapped for a bad value with chance SWAP."""
    if rng.random() < SWAP:
        return rng.choice(BAD)
    if isinstance(value, dict):
        return {key: _mutate(entry, rng) for key, entry in value.items()}
    if isinstance(value, list):
        return [_mutate(entry, rng) for entry in value]
    return value


def _flags(command: str, rng: random.Random) -> list[str]:
    """The command's required flags and some of its others, each with a good
    value or, now and then, any value."""
    argv = []
    for flag, good in FLAGS[command].items():
        if flag in ("--n", "--trial") or rng.random() < 0.6:
            argv.append(f"{flag}={rng.choice(good) if rng.random() < 0.8 else rng.choice(FLAG_VALUES)}")
    return argv


def _exit(argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, time.perf_counter() - start


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A field file, a replay config and the rows its sweep wrote."""
    where = tmp_path_factory.mktemp("fuzz")
    assert main(["field-gen", "paper2", "--out", str(where / "field.json")]) == EXIT_OK
    config = where / "replay.json"
    config.write_text(json.dumps({**BASES[1], "n_grid": [100, 500]}))
    assert main(["sweep", "--config", str(config), "--out", str(where / "rows")]) == EXIT_OK
    return where


def test_config_records_and_flags_exit_ok_or_usage_in_time(inputs, monkeypatch):
    monkeypatch.delenv("UNKLOC_THREADS", raising=False)
    rng = random.Random(SEED)
    field, rows, config = inputs / "field.json", inputs / "rows" / "rows.csv", inputs / "replay.json"
    seen = []
    for r in range(RECORDS):
        record = {key: _mutate(value, rng) for key, value in rng.choice(BASES).items()}
        if isinstance(record.get("field"), dict) and record["field"].get("path") == "FIELD":
            record["field"]["path"] = str(field)
        path = inputs / f"record{r}.json"
        path.write_text(json.dumps(record))
        runs = [(["sweep", "--config", str(path), "--out", str(inputs / f"out{r}")], (EXIT_OK, EXIT_USAGE))]
        command = ("estimate", "detect", "replay")[r % 3]
        source = ["--config", str(config)] if command == "replay" else ["--field", str(field)]
        argv = [command, *source, *(flag.replace("ROWS", str(rows)) for flag in _flags(command, rng))]
        runs.append((argv, (EXIT_OK, EXIT_USAGE, EXIT_CAP) if command == "detect" else (EXIT_OK, EXIT_USAGE)))
        for argv, allowed in runs:
            code, seconds = _exit(argv)
            assert code in allowed and seconds < RECORD_SECONDS, (argv, record, code, seconds)
            seen.append(code)
    assert {EXIT_OK, EXIT_USAGE} <= set(seen)  # the fuzz reaches both outcomes
