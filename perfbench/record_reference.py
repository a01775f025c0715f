"""Write perfbench/reference.json from one run of every workload variant.

From the root of a checkout:

    python3 perfbench/record_reference.py

The reference holds, per part (per sign pair for phase-scan-2d), the
pinned config hash, the verdict, the names of the report's checks and its
key numbers with the tolerance each is held to.  Record it only at a
commit whose numbers are trusted: the gate in run.py measures every later
commit against it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, now, pinned_env, spawn
from workloads import SIGN_PAIRS, WORKLOADS, key_numbers, reference_key

TOLERANCES = (
    # (part, key suffix, rule); the first match wins
    # lifespans are checkpoint times on a log grid 1.1% apart; allow two
    ("lifespan-1d", "lifespan_power", {"rtol": 0.05}),
    ("lifespan-1d", "", {"rtol": 0.025}),
    ("bootstrap-2d", "", {"rtol": 1e-4}),
    # ROADMAP item 3: constants to 1e-12 relative, floor violations exactly
    ("phase-scan-2d", "floor_violations", {"exact": True}),
    ("phase-scan-2d", "", {"rtol": 1e-12}),
    # oracle errors are round-off; each is held to the experiment's 1e-10
    ("oracle-kernels", "rel_err", {"max": 1e-10}),
    ("oracle-kernels", "", {"exact": True}),
)


def rule(part: str, key: str, value) -> dict:
    for name, suffix, spec in TOLERANCES:
        if name == part and key.endswith(suffix):
            return dict(spec) if "max" in spec else {"value": value, **spec}
    raise KeyError(f"no tolerance for {part} {key}")


def main() -> int:
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    env = pinned_env(tmp)
    entries = {}
    try:
        for workload, parts in WORKLOADS.items():
            # one seed per sign pair when the workload scans phases
            seeds = range(len(SIGN_PAIRS)) if "phase-scan-2d" in parts else (0,)
            for seed in seeds:
                result, error = spawn(workload, seed, "run", Path(tmp) / f"{workload}-{seed}",
                                      env, now() + 600.0)
                if result is None:
                    print(error, file=sys.stderr)
                    return 1
                for entry in result["parts"]:
                    part, report = entry["part"], entry["report"]
                    entries[reference_key(part, entry["signs"])] = {
                        "config_hash": entry["pinned_hash"],
                        "verdict": report["verdict"],
                        "checks": sorted(report["checks"]),
                        "keys": {key: rule(part, key, value) for key, value
                                 in sorted(key_numbers(part, report).items())},
                    }
                    print(f"recorded {part} seed {seed}: {report['verdict']}",
                          file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump({"workloads": entries}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
