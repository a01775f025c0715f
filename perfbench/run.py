"""kglab benchmark: pinned experiments timed end to end, and a traced run per layer.

From the root of a checkout:

    python3 perfbench/run.py --workload lifespan-1d --seed 1 --seconds 45 --trace 0

A workload is a list of parts, each a pinned config (workloads.py).
Every repetition is a fresh process (perfbench/child.py) that parses
pinned configs, runs them as ``kglab run`` does and writes their reports
into a temporary directory inside the checkout, which is removed at the
end.

``--trace 0`` times set-up alone in a few processes that parse every
config of the workload, then repeats the workload's parts in turn, one
part per repetition, until ``--seconds`` have passed.  It does so in one
lane per CPU (at most two): each lane is a sequence of single-threaded
repetitions pinned to its own CPU.  Much of the host's noise is separate
per CPU, and short repetitions fill the run evenly, so the run averages
as much of that noise as its length allows.  It reports the median
set-up time, and for wall time, CPU time and peak memory the median over
each part's repetitions, summed over the parts (the largest, for peak
memory): the time to every verdict of the workload.  ``--trace 1`` runs
the whole workload once untraced and once traced, each in one process,
and reports the per-layer metrics.

Every report is gated: its own checks must hold and its key numbers must
match perfbench/reference.json.  The second-to-last line of output holds
the environment and every repetition; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, key_numbers, overrides, reference_key, within  # noqa: E402

SETUP_PROBES = 5      # set-up-only processes per untraced run
BUDGET_S = 165.0      # a run must end within 180 s
LANES = 2             # workload processes at once, one per CPU
THREADS = 1           # BLAS and OpenMP threads in every kglab process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def pinned_env(out_dir: Path) -> dict:
    """The environment every kglab process runs in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["KGLAB_WORKERS"] = "1"
    env["KGLAB_OUT"] = str(out_dir)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(workload: str, seed: int, mode: str, out_dir: Path, env: dict,
          deadline: float, cpu=None, part=None):
    """Run child.py once; returns (result dict or None, error text)."""
    out_dir.mkdir(parents=True)
    env = dict(env, KGLAB_OUT=str(out_dir))
    t0 = now()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir), "--t0", repr(t0),
           "--mode", mode]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    if part is not None:
        cmd += ["--part", part]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"{mode} run timed out"
    if proc.returncode != 0 or not out.strip():
        return None, f"{mode} run exited {proc.returncode}: {err.strip()[-2000:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except ValueError:
        return None, f"{mode} run printed no result: {out.strip()[-2000:]}"


def gate_part(entry: dict, reference: dict) -> list:
    """(name, passed) for every correctness check on one part of a repetition."""
    part = entry["part"]
    ref = reference[reference_key(part, entry["signs"])]
    report = entry["report"]
    with open(report["json_path"], encoding="utf-8") as handle:
        written = json.load(handle)
    checks = [
        ("config parses to the pinned config",
         entry["config_hash"] == entry["pinned_hash"] == ref["config_hash"]),
        ("written report matches the run",
         written["verdict"] == report["verdict"]
         and written["checks"] == {k: bool(v) for k, v in report["checks"].items()}),
        (f"verdict is {ref['verdict']}", report["verdict"] == ref["verdict"]),
        ("report has the reference checks", sorted(report["checks"]) == ref["checks"]),
    ]
    checks += [(f"check {name}", bool(ok)) for name, ok in sorted(report["checks"].items())]
    numbers = key_numbers(part, report)
    checks.append(("report has the reference key numbers",
                   sorted(numbers) == sorted(ref["keys"])))
    checks += [(f"{key} = {value!r} within {ref['keys'][key]}",
                within(value, ref["keys"][key]))
               for key, value in sorted(numbers.items()) if key in ref["keys"]]
    return [(f"{part}: {name}", ok) for name, ok in checks]


def gate(workload: str, result: dict, reference: dict, part=None) -> list:
    """(name, passed) for every correctness check on one repetition."""
    ran = [entry["part"] for entry in result["parts"]]
    expected = [part] if part else list(WORKLOADS[workload])
    checks = [(f"repetition ran {expected}", ran == expected)]
    for entry in result["parts"]:
        checks += gate_part(entry, reference)
    if "trace" in result:
        trace = result["trace"]
        checks.append(("trace self times add up to the traced wall time",
                       abs(trace["self_sum_s"] - trace["root_s"]) <= 1e-6 * trace["root_s"]))
    return checks


def expected_checks(workload: str, seed: int, reference: dict, mode: str,
                    part=None) -> int:
    """How many checks a repetition attempts, for counting a crash."""
    count = 2 if mode == "trace" else 1
    for name in [part] if part else WORKLOADS[workload]:
        signs = overrides(name, seed).get("signs", ())
        ref = reference[reference_key(name, signs)]
        count += 5 + len(ref["checks"]) + len(ref["keys"])
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kglab" / "__init__.py").is_file():
        print(f"no kglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = now()
    deadline = start + BUDGET_S
    cpus = sorted(os.sched_getaffinity(0))[:LANES]
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = pinned_env(tmp)
    runs, failures, probes = [], [], []
    serial = itertools.count()
    lock = threading.Lock()
    attempted = failed = 0

    def repetition(mode: str, cpu: int, part=None):
        nonlocal attempted, failed
        with lock:
            out_dir = tmp / f"{mode}-{next(serial)}"
        result, error = spawn(args.workload, args.seed, mode, out_dir, env, deadline,
                              cpu, part)
        checks = None
        if result is not None:
            try:
                checks = gate(args.workload, result, reference, part)
            except Exception:  # a report the gate cannot read fails it
                error = "gate could not read the report: " + traceback.format_exc()[-2000:]
        with lock:
            if checks is None:
                count = expected_checks(args.workload, args.seed, reference, mode, part)
                attempted += count
                failed += count
                failures.append(error)
                return None
            attempted += len(checks)
            failed += sum(not ok for _, ok in checks)
            failures.extend(name for name, ok in checks if not ok)
            runs.append({"cpu": cpu, "part": part, **{key: result[key] for key in
                                                      ("setup_s", "wall_s", "cpu_s",
                                                       "peak_rss_mb")}})
        return result

    def lane(index: int, cpu: int, measuring: float):
        """Repeat the workload's parts in turn on one CPU for --seconds.

        Each repetition runs one part.  Lanes start at different parts;
        every lane runs each part once, and after that a repetition
        starts only if it would end less than half its own length past
        --seconds, as that part took last time.
        """
        parts = WORKLOADS[args.workload]
        took = {}
        for k in itertools.count():
            part = parts[(index + k) % len(parts)]
            if k >= len(parts) and (now() - measuring + 0.5 * took[part] >= args.seconds
                                    or now() + took[part] > deadline):
                return
            began = now()
            if repetition("run", cpu, part) is None:
                return
            took[part] = now() - began

    try:
        if args.trace:
            plain = repetition("run", cpus[0])
            traced = repetition("trace", cpus[0])
            metrics = {}
            if plain is not None and traced is not None:
                metrics = dict(traced["trace"]["layers"])
                metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            environment = (traced or plain or {}).get("environment", {})
        else:
            environment = {}
            for i in range(SETUP_PROBES):
                result, error = spawn(args.workload, args.seed, "probe",
                                      tmp / f"probe-{i}", env, deadline, cpus[0])
                if result is None:
                    failures.append(error)
                else:
                    probes.append(result["setup_s"])
                    environment = result["environment"]
            measuring = now()
            threads = [threading.Thread(target=lane, args=(i, cpu, measuring))
                       for i, cpu in enumerate(cpus)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = {}
            by_part = [[r for r in runs if r["part"] == part]
                       for part in WORKLOADS[args.workload]]
            if all(by_part) and probes:
                def per_part(key):
                    return [statistics.median(r[key] for r in reps) for reps in by_part]

                # time to every verdict of the workload, and its largest process
                metrics = {
                    "wall_s": sum(per_part("wall_s")),
                    "setup_s": statistics.median(probes),
                    "cpu_s": sum(per_part("cpu_s")),
                    "peak_rss_mb": max(per_part("peak_rss_mb")),
                }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # not empty: another run is using it
            pass

    environment.update({
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "python": platform.python_version(), "platform": platform.platform(),
        "kglab_workers": env["KGLAB_WORKERS"], "lanes": cpus,
        **{var.lower(): env[var] for var in THREAD_VARS},
    })
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment, "setup_probes_s": probes,
                      "runs": runs, "failures": failures}))
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
