"""Command-line harness.

Subcommands: field-gen, estimate, detect, sweep, replay.  Exit codes:
0 success, 2 usage or config error, 3 detection hit its bandwidth cap,
4 internal fault.  UNKLOC_THREADS caps sweep worker parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bandwidth import BandwidthConfig, detect_bandwidth
from .errors import ConfigError
from .estimator import estimate_field
from .experiments import (
    ExperimentConfig,
    RenewalFamily,
    load_rows_csv,
    run,
    run_trial,
    write_rows_csv,
    write_slope_json,
    write_summary_csv,
)
from .field import BandlimitedField, distortion, random_field, reference_field
from .noise import NoiseSpec
from .sampling import FAMILIES as RENEWAL_FAMILIES, RenewalSpec, acquire, generate_trace, spawn_rngs, trial_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_FAULT = 4


def _parse_noise(token: str) -> NoiseSpec:
    """'uniform:1.0', 'gaussian:0.5[:cut]', 'rademacher:0.5', 'zero'."""
    parts = token.split(":")
    family = parts[0]
    try:
        params = tuple(float(p) for p in parts[1:])
    except ValueError:
        raise ConfigError(f"bad noise parameter in {token!r}")
    return NoiseSpec(family, params)


def _check_lambda(lam: float | None, spec: RenewalSpec) -> None:
    """--lambda may only restate the support bound the mean-1 constraint pins."""
    if lam is not None and abs(lam - spec.lam) > 1e-12:
        raise ConfigError(
            f"--lambda {lam} conflicts with the mean-1 constraint for "
            f"{spec.family} (lam = {spec.lam})"
        )


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_field_gen(args) -> int:
    if args.source:
        if args.b is not None or args.seed is not None:
            raise ConfigError("give either a built-in field name or --b/--seed, not both")
        field = reference_field(args.source)
    else:
        if args.b is None or args.seed is None:
            raise ConfigError("random field needs both --b and --seed")
        field = random_field(args.b, args.seed)
    field.save(args.out)
    return EXIT_OK


def _renewal_record(args) -> dict:
    """--renewal/--alpha/--beta as a config renewal record; an unset shape
    (None) keeps the family default."""
    return {"family": args.renewal, "alpha": args.alpha, "beta": args.beta}


def _simulated_readings(args):
    truth = BandlimitedField.load(args.field)
    spec = RenewalFamily.from_dict(_renewal_record(args)).spec_for(args.n)
    _check_lambda(args.lam, spec)
    noise = _parse_noise(args.noise)
    rng_trace, rng_noise = spawn_rngs(args.seed)
    trace = generate_trace(spec, rng_trace)
    trace = acquire(trace, truth, noise, rng_noise)
    return truth, noise, trace


def cmd_estimate(args) -> int:
    truth, _, trace = _simulated_readings(args)
    b = truth.b if args.b is None else args.b
    est = estimate_field(trace.readings, b)
    payload = {
        "n": args.n,
        "m": trace.m,
        "seed": args.seed,
        "b": b,
        "coefficients": [[float(c.real), float(c.imag)] for c in est.coeffs],
        "distortion": distortion(truth, est),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_detect(args) -> int:
    _, noise, trace = _simulated_readings(args)
    config = BandwidthConfig(delta=args.delta, sigma2=noise.variance, n=args.n, b_max=args.b_max)
    outcome = detect_bandwidth(trace.readings, config)
    payload = outcome.to_dict()
    payload.update(n=args.n, seed=args.seed, delta=args.delta)
    _emit(payload, args.out)
    return EXIT_OK if outcome.status == "Stopped" else EXIT_CAP


def _config_with_overrides(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config)
    data = config.to_dict()
    if args.n:
        data["n_grid"] = [int(tok) for tok in args.n.split(",")]
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.delta is not None:
        data["delta"] = args.delta
    if args.renewal is not None:
        data["renewal"] = _renewal_record(args)
    if args.lam is not None:
        probe = ExperimentConfig.from_dict(data)
        _check_lambda(args.lam, probe.renewal.spec_for(probe.n_grid[0]))
    if args.noise is not None:
        data["noise"] = _parse_noise(args.noise).to_dict()
    return ExperimentConfig.from_dict(data)


def _workers_from_env() -> int:
    raw = os.environ.get("UNKLOC_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"UNKLOC_THREADS must be an integer, got {raw!r}")


def cmd_sweep(args) -> int:
    config = _config_with_overrides(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run(config, workers=_workers_from_env())
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
    if args.n not in config.n_grid:
        raise ConfigError(f"n={args.n} is not in the config grid {list(config.n_grid)}")
    if not (0 <= args.trial < config.trials):
        raise ConfigError(f"trial must lie in [0, {config.trials})")
    seed = trial_seed(config.master_seed, args.n, args.trial)
    metrics = run_trial(config, args.n, seed)
    payload = {"n": args.n, "trial": args.trial, "seed": seed, "metrics": metrics}
    if args.rows:
        recorded = {
            rec["metric"]: rec
            for rec in load_rows_csv(args.rows)
            if rec["n"] == args.n and rec["trial"] == args.trial
        }
        if not recorded:
            raise ConfigError(f"no rows for n={args.n}, trial={args.trial} in {args.rows}")
        mismatches = []
        for name, value in metrics.items():
            rec = recorded.get(name)
            if rec is None or rec["seed"] != seed or rec["value"] != value:
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

    def sim_flags(p, with_b=False):
        p.add_argument("--field", required=True, help="coefficient file of the truth field")
        p.add_argument("--n", type=int, required=True, help="nominal sampling density")
        p.add_argument("--renewal", default="uniform", choices=RENEWAL_FAMILIES)
        p.add_argument("--alpha", type=float, help="scaled_beta alpha")
        p.add_argument("--beta", type=float, help="scaled_beta beta")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="spacing support bound (validated against the family)")
        p.add_argument("--noise", default="zero", help="e.g. uniform:1.0, gaussian:0.5, zero")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if with_b:
            p.add_argument("--b", type=int, default=None,
                           help="estimation bandwidth (default: truth bandwidth)")

    p = sub.add_parser("estimate", help="estimate coefficients at known bandwidth")
    sim_flags(p, with_b=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("detect", help="detect the bandwidth")
    sim_flags(p)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--b-max", dest="b_max", type=int, default=64)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="run a Monte Carlo sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory for rows/summary/slope files")
    p.add_argument("--n", default=None, help="override n_grid, comma separated")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--renewal", default=None, choices=RENEWAL_FAMILIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--noise", default=None)
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
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal fault: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    raise SystemExit(main())
