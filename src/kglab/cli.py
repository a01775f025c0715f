"""Command-line front end.

Four subcommands: run one configured experiment, run the acceptance
battery, scan a resonance phase, and sweep lifespans against data
size.  Exit status follows the verdict so shell pipelines can gate on
it: 0 is a pass, 1 a failed verdict, and 2 bad input (argparse usage
and config errors, caught before any compute).  Output locations honor
KGLAB_OUT and worker counts KGLAB_WORKERS unless the config overrides
them.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .config import ExperimentConfig, _env_workers, load_config
from .experiments import acceptance_battery, pinned_config, run_experiment
from .reports import write_report
from .resonance import phase_bound_scan

__all__ = ["main"]


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    csv_path, json_path = write_report(report, cfg.out_dir())
    print(report.summary())
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0 if report.verdict in ("pass", "report-only") else 1


def _bad_worker_env() -> bool:
    """Report a malformed KGLAB_WORKERS as a config error, before compute."""
    try:
        _env_workers()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return True
    return False


def _cmd_acceptance(args) -> int:
    if _bad_worker_env():
        return 2
    ok = acceptance_battery(fast=args.fast)
    print("acceptance: " + ("all criteria pass" if ok else "FAILURES above"))
    return 0 if ok else 1


def _parse_signs(raw: str) -> tuple:
    pair = raw.strip()
    if len(pair) != 2 or any(c not in "+-" for c in pair):
        raise argparse.ArgumentTypeError("signs must be two of +/-, e.g. ++ or +-")
    return tuple(1 if c == "+" else -1 for c in pair)


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {raw!r}")
    return value


def _positive_floats(raw: str) -> tuple:
    """Comma-separated positive numbers; blank pieces are skipped."""
    return tuple(_positive_float(piece) for piece in raw.split(",") if piece.strip())


def _cmd_scan_phase(args) -> int:
    try:  # the lattice and pair bounds of a phase-scan config
        ExperimentConfig("phase-scan", dim=args.dim, radius=args.radius, step=args.step)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    mu, nu = args.signs
    out = phase_bound_scan(args.dim, mu, nu, radius=args.radius, step=args.step)
    for key in ("d", "mu", "nu", "radius", "step", "n_pairs", "n_pairs_covered",
                "min_abs_phase", "c_phi", "c_grad", "floor_violations"):
        print(f"{key} = {out[key]}")
    return 0 if out["floor_violations"] == 0 else 1


def _cmd_sweep_lifespan(args) -> int:
    eps = args.eps
    if not eps:
        print("empty eps list", file=sys.stderr)
        return 2
    if _bad_worker_env():
        return 2
    try:
        cfg = dataclasses.replace(pinned_config("lifespan-sweep"), dim=args.dim, eps=eps)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(cfg)
    print(report.summary())
    for row in report.rows:
        print(f"  eps={row['eps']:g} lifespan={row['lifespan']:g} ({row['verdict']})")
    return 0 if report.verdict == "pass" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kglab",
        description="Desk-scale measurements for a quasilinear Klein-Gordon model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to a key = value experiment file")
    p_run.set_defaults(fn=_cmd_run)

    p_acc = sub.add_parser("acceptance", help="run the acceptance battery")
    p_acc.add_argument("--fast", action="store_true",
                       help="skip the long nonlinear sweeps")
    p_acc.set_defaults(fn=_cmd_acceptance)

    p_scan = sub.add_parser("scan-phase", help="scan one bilinear phase")
    p_scan.add_argument("--signs", type=_parse_signs, required=True,
                        help="sign pair, e.g. ++ or -+")
    p_scan.add_argument("--radius", type=_positive_float, default=8.0)
    p_scan.add_argument("--step", type=_positive_float, default=0.25)
    p_scan.add_argument("--dim", type=int, default=1, choices=(1, 2, 3))
    p_scan.set_defaults(fn=_cmd_scan_phase)

    p_sweep = sub.add_parser("sweep-lifespan", help="lifespan against data size")
    p_sweep.add_argument("--eps", type=_positive_floats, required=True,
                         help="comma-separated data sizes, e.g. 0.4,0.3,0.2")
    p_sweep.add_argument("--dim", type=int, default=1, choices=(1, 2, 3))
    p_sweep.set_defaults(fn=_cmd_sweep_lifespan)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
