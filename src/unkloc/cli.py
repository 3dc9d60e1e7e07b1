"""Command-line harness.

Subcommands: field-gen, estimate, detect, sweep, replay.  Exit codes:
0 success, 2 usage or config error, 3 detection hit its bandwidth cap,
4 internal fault.  UNKLOC_THREADS sets the sweep's worker processes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import takewhile
from pathlib import Path

from .errors import ConfigError
from .experiments import (
    ExperimentConfig,
    FieldSource,
    _truth,
    detect,
    estimate,
    load_record,
    load_rows_csv,
    run,
    run_cell,
    simulate,
    write_rows_csv,
    write_slope_json,
    write_summary_csv,
)
from .field import distortion
from .sampling import FAMILIES as RENEWAL_FAMILIES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_FAULT = 4


def _noise_record(token: str) -> dict:
    """'uniform:1.0', 'gaussian:0.5[:cut]', 'rademacher:0.5', 'zero' as a noise record."""
    family, *params = token.split(":")
    try:
        return {"family": family, "params": [float(p) for p in params]}
    except ValueError:
        raise ConfigError(f"bad noise parameter in {token!r}")


def _n_grid(text: str) -> list[int]:
    """sweep --n: the n_grid entry as comma-separated integers."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"n_grid must be comma-separated integers, got {text!r}")


def _patched(record, **flags):
    """record with every flag the user set (not None) written over its
    entries; a record that is not a mapping is left for its parser to refuse."""
    flags = {key: value for key, value in flags.items() if value is not None}
    return {**record, **flags} if flags and isinstance(record, dict) else record


def _config(args, record: dict, **entries) -> ExperimentConfig:
    """The one path from flags to a config: the flags the user set are written
    into record, which is parsed once.  --renewal and --noise replace their
    records, --alpha/--beta patch the renewal one, entries the top level."""
    renewal = {"family": args.renewal} if args.renewal else record.get("renewal")
    noise = None if args.noise is None else _noise_record(args.noise)
    return ExperimentConfig.from_dict(_patched(
        record, renewal=_patched(renewal, alpha=args.alpha, beta=args.beta), noise=noise, **entries))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_field_gen(args) -> int:
    # an unset flag is a null entry, which the field parser treats as absent
    record = {"source": args.source or "random", "b": args.b, "seed": args.seed}
    FieldSource.from_dict(record).resolve().save(args.out)
    return EXIT_OK


def _simulated_readings(args, mode: str, **entries):
    """A one-cell config from the flags, its truth, and the trace of the sweep trial seeded by --seed."""
    config = _config(args, {"mode": mode, "field": {"source": "file", "path": args.field},
                            "renewal": {"family": "uniform"}, "noise": {"family": "zero"},
                            "n_grid": [args.n]}, **entries)
    truth = _truth(config)
    return config, truth, simulate(config, truth, args.n, args.seed)


def cmd_estimate(args) -> int:
    config, truth, trace = _simulated_readings(args, "DistortionSweep", known_b=args.b)
    est = estimate(config, truth, trace)
    payload = {
        "n": args.n,
        "m": trace.m,
        "seed": args.seed,
        "b": est.b,
        "coefficients": est.to_dict()["coeffs"],
        "distortion": distortion(truth, est),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_detect(args) -> int:
    config, _, trace = _simulated_readings(args, "BandwidthCurve", delta=args.delta, b_max=args.b_max)
    outcome = detect(config, trace)
    payload = outcome.to_dict()
    payload.update(n=args.n, seed=args.seed, delta=config.delta)
    _emit(payload, args.out)
    return EXIT_OK if outcome.status == "Stopped" else EXIT_CAP


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one (under taskset that is fewer than the CPU count), else the
    CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers_from_env() -> int:
    """UNKLOC_THREADS, the number of sweep worker processes, capped at the usable CPUs."""
    raw = os.environ.get("UNKLOC_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return min(max(1, int(raw)), _usable_cpus())
    except ValueError:
        raise ConfigError(f"UNKLOC_THREADS must be an integer, got {raw!r}")


def cmd_sweep(args) -> int:
    config = _config(args, load_record(args.config), n_grid=args.n, trials=args.trials,
                     master_seed=args.seed, delta=args.delta)
    out_dir = Path(args.out)
    made = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)  # before the trials: an unwritable --out fails at once
    try:
        result = run(config, workers=_workers_from_env())
    except BaseException:
        for path in made:  # a failed sweep leaves no empty directory behind
            path.rmdir()
        raise
    write_rows_csv(result, out_dir / "rows.csv")
    write_summary_csv(result, out_dir / "summary.csv")
    write_slope_json(result, out_dir / "slope.json")
    for row in result.summary:
        print(f"{config.mode} n={row.n} {row.metric}: mean={row.mean:.6g} "
              f"stderr={row.stderr:.3g} count={row.count}")
    if result.slope is not None:
        print(f"slope={result.slope.slope:.4f} "
              f"ci95=[{result.slope.ci_low:.4f}, {result.slope.ci_high:.4f}]")
    elif result.slope_note:
        print(f"slope: {result.slope_note}")
    return EXIT_OK


def cmd_replay(args) -> int:
    config = ExperimentConfig.load(args.config)
    seed, metrics = run_cell(config, args.n, args.trial)  # a cell outside the config's sweep is refused
    payload = {"n": args.n, "trial": args.trial, "seed": seed, "metrics": metrics}
    if args.rows:
        cell = [rec for rec in load_rows_csv(args.rows) if rec["n"] == args.n and rec["trial"] == args.trial]
        if not cell:
            raise ConfigError(f"no rows for n={args.n}, trial={args.trial} in {args.rows}")
        other = sorted({rec["mode"] for rec in cell} - {config.mode})
        if other:
            raise ConfigError(f"the rows for n={args.n}, trial={args.trial} in {args.rows} were recorded "
                              f"by mode {', '.join(other)}, not by the config's mode {config.mode}")
        recorded = {}
        for rec in cell:
            if recorded.setdefault(rec["metric"], rec) is not rec:
                raise ConfigError(f"the rows for n={args.n}, trial={args.trial} in {args.rows} record "
                                  f"metric {rec['metric']} twice")
        mismatches = []
        for name, value in metrics.items():
            rec = recorded.get(name)  # values compare by bits, so a recorded NaN matches a NaN
            if rec is None or rec["seed"] != seed or rec["value"].hex() != float(value).hex():
                mismatches.append(name)
        if mismatches:
            print(f"replay mismatch for metrics {mismatches}", file=sys.stderr)
            return EXIT_FAULT
        payload["verified"] = sorted(metrics)
    _emit(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unkloc",
                                     description="periodic-field estimation from unknown sample locations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-gen", help="write a coefficient file")
    p.add_argument("source", nargs="?", choices=("paper1", "paper2"),
                   help="built-in benchmark field; omit to draw a random one")
    p.add_argument("--b", type=int, help="bandwidth for a random field")
    p.add_argument("--seed", type=int, help="seed for a random field")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_field_gen)

    def record_flags(p):
        """Flags that patch the config record; unset, they leave it alone."""
        p.add_argument("--renewal", choices=RENEWAL_FAMILIES, help="replaces the renewal record")
        p.add_argument("--alpha", type=float, help="scaled_beta alpha")
        p.add_argument("--beta", type=float, help="scaled_beta beta")
        p.add_argument("--noise", help="replaces the noise record, e.g. uniform:1.0, gaussian:0.5, zero")

    def sim_flags(p):
        p.add_argument("--field", required=True, help="coefficient file of the truth field")
        p.add_argument("--n", type=int, required=True, help="nominal sampling density")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        record_flags(p)

    p = sub.add_parser("estimate", help="estimate coefficients at known bandwidth")
    sim_flags(p)
    p.add_argument("--b", type=int, help="estimation bandwidth (default: truth bandwidth)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("detect", help="detect the bandwidth")
    sim_flags(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--b-max", dest="b_max", type=int)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="run a Monte Carlo sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory for rows/summary/slope files")
    p.add_argument("--n", type=_n_grid, help="override n_grid, comma separated")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--delta", type=float, default=None)
    record_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="re-run one (n, trial) cell from its derived seed")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trial", type=int, required=True)
    p.add_argument("--rows", default=None, help="rows CSV to verify against")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an n that a float holds can still need more memory than there is
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal fault: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    raise SystemExit(main())
