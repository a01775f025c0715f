"""Run the benchmark over several seeds and report how far its metrics spread.

From the root of a checkout:

    python3 perfbench/spread.py --seeds 101-110 [--workload NAME ...] \\
        [--trace-seed 1] [--baseline perfbench/baseline.json]

Each run is ``perfbench/run.py`` as BENCHMARK.json gives it.  For every
end-to-end metric the script prints the median of the runs and the
distance between their first and third quartiles as a share of the
median, next to the metric's bound.  With ``--baseline`` it also makes
one traced run per workload and writes medians, quartiles and per-layer
metrics to that file, with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple:
    """(result line, environment line) of one benchmark run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    baseline = {"environment": {}, "end_to_end": {}, "per_layer": {}}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            result, detail = run_once(spec, workload, seed, 0)
            ok &= result["correct"]
            baseline["environment"] = detail["environment"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        summary = baseline["end_to_end"][workload] = {}
        for metric in spec["end_to_end"]:
            runs = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(runs, n=4)
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                       "runs": len(runs), "unit": metric["unit"]}
            print(f"  {metric['name']}: median {median:.4g} {metric['unit']}, "
                  f"spread {(q3 - q1) / median:.3f} (bound {metric['bound']})", flush=True)
        if args.baseline:
            result, _ = run_once(spec, workload, args.trace_seed, 1)
            ok &= result["correct"]
            baseline["per_layer"][workload] = {
                name: metric["value"] for name, metric in result["metrics"].items()}
    if args.baseline:
        baseline["about"] = (
            "Baseline of the benchmark: end_to_end holds the median and quartiles "
            f"of untraced runs with seeds {args.seeds[0]}-{args.seeds[-1]} "
            f"({spec['run_seconds']} s each); per_layer one traced run "
            f"(seed {args.trace_seed}). Compare only with numbers from the same environment.")
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(baseline.items())), handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
