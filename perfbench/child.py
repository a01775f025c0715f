"""One repetition of a workload, or of one of its parts, in a fresh process.

run.py starts this script once per repetition; the self-test calls
:func:`run_parts` in its own process.  From the root of a checkout:

    python3 perfbench/child.py --workload lifespan-1d --seed 1 \\
        --out DIR --t0 MONOTONIC_START [--part P] [--mode probe|run|trace] [--cpu N]

For each part of the workload (or for part P alone) the process renders
the pinned config with its lines in a seeded order and writes it under
DIR; it parses every config back with ``load_config`` and (unless
``--mode probe``) runs ``run_experiment`` and ``write_report`` into DIR
for each part in turn, as ``kglab run`` does.  It prints one JSON line:
the set-up time from ``--t0`` (the parent's CLOCK_MONOTONIC reading just
before it started this process) to the parsed configs, the wall time
from the parsed configs to the last written report, CPU time and peak
memory of the process, each report's verdict, checks, constants and
rows, and, with ``--mode trace``, the trace.  ``--cpu`` pins the process
to one CPU before kglab is imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import PARTS, WORKLOADS, config_text, overrides  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _plain(value):
    """JSON form of numpy scalars in a report, such as a numpy.bool_ check."""
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def run_parts(parts, seed: int, out_dir: str, *, mode: str = "run",
              shrunk: bool = False) -> dict:
    """Parse, run and write each part in turn; see the module docstring."""
    # functions are looked up on their modules at call time, so that the
    # traced run calls the wrappers the tracer puts there
    from kglab import config, experiments, reports

    pinned, paths = [], []
    for part in parts:
        experiment, dim = PARTS[part]
        cfg = dataclasses.replace(experiments.pinned_config(experiment, dim),
                                  **overrides(part, seed, shrunk))
        path = os.path.join(out_dir, f"{part}.kg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config_text(cfg.canonical(), seed))
        pinned.append(cfg)
        paths.append(path)

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    try:
        cfgs = [config.load_config(path) for path in paths]
        parsed_at = now()
        for cfg in cfgs:
            if os.path.abspath(cfg.out_dir()) != os.path.abspath(out_dir):
                raise RuntimeError(f"KGLAB_OUT must name {out_dir}, got {cfg.out_dir()}")
        result = {"parsed_at": parsed_at, "parts": [
            {"part": part, "config_hash": cfg.content_hash(),
             "pinned_hash": pin.content_hash(), "signs": list(cfg.signs)}
            for part, cfg, pin in zip(parts, cfgs, pinned)]}
        if mode == "probe":
            return result
        if tracer is not None:
            tracer.enter(ROOT_SPAN)
        for entry, cfg in zip(result["parts"], cfgs):
            report = experiments.run_experiment(cfg)
            csv_path, json_path = reports.write_report(report, cfg.out_dir())
            entry["report"] = {
                "verdict": report.verdict, "checks": dict(report.checks),
                "constants": dict(report.constants), "rows": report.rows,
                "json_path": json_path, "csv_path": csv_path,
            }
        if tracer is not None:
            tracer.exit()
        result["wall_s"] = now() - parsed_at
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None:
        result["trace"] = {
            "layers": tracer.layer_metrics(),
            "root_s": tracer.total_s[ROOT_SPAN],
            "self_sum_s": tracer.self_time_inside_root(),
            **tracer.counts_only(),
        }
    return result


def environment() -> dict:
    """Library versions and BLAS build of the process that ran kglab."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--part", choices=sorted(PARTS), help="run this part alone")
    parser.add_argument("--mode", choices=("probe", "run", "trace"), default="run")
    parser.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kglab

    if not Path(kglab.__file__).resolve().is_relative_to(src):
        print(f"kglab imported from {kglab.__file__}, not from {src}", file=sys.stderr)
        return 2
    parts = (args.part,) if args.part else WORKLOADS[args.workload]
    result = run_parts(parts, args.seed, args.out, mode=args.mode)
    result["setup_s"] = result.pop("parsed_at") - args.t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    result["environment"] = environment()
    print(json.dumps(result, default=_plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
