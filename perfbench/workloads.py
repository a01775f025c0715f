"""The benchmark's workloads: pinned kglab experiments and how to vary them.

A workload is a list of parts, and a part is one pinned config from
``kglab.experiments._PINNED``, run exactly as ``kglab run`` runs a config
file.  One repetition of a workload runs its parts one after another in
a fresh process.  The seed never changes the work a run does, so timings
from different seeds are comparable; it changes the input text instead:
the key order of each config file the run parses and, on
``phase-scan-2d``, which sign pair is scanned (all four cost the same
and have stored references).

Why each workload is in the benchmark is recorded in BENCHMARK.json; which
layer metric each one should move is recorded in ``layers.json``.
"""

from __future__ import annotations

import math
import random

# part -> (experiment id, pinned dim)
PARTS = {
    "lifespan-1d": ("lifespan-sweep", None),
    "bootstrap-2d": ("weighted-bootstrap", None),
    # one sign pair per run keeps the pinned step, refinement and peak
    # memory of the 2-D scan at a quarter of the pinned four-pair cost
    "phase-scan-2d": ("phase-scan", 2),
    "oracle-kernels": ("paradiff-oracle", None),
}

# workload -> the parts one repetition runs, in order.  The three 2-D
# parts take 7-8 s each, so they share one workload: a repetition as
# long as the 1-D sweep averages host noise as well as it does.
WORKLOADS = {
    "lifespan-1d": ("lifespan-1d",),
    "bootstrap-scan-oracle": ("bootstrap-2d", "phase-scan-2d", "oracle-kernels"),
}

SIGN_PAIRS = ("++", "+-", "-+", "--")

# Shrunken copies for the self-test: the same code paths at a cost of
# seconds.  paradiff-oracle fixes its grid sizes in code, so
# oracle-kernels has no shrunken copy.
SHRUNK = {
    "lifespan-1d": {"eps": (0.4,), "t1": 1.5, "checkpoints": 3},
    "bootstrap-2d": {"n": 32, "box": 8.0 * math.pi},
    "phase-scan-2d": {"radius": 2.0, "step": 0.5},
}


def overrides(part: str, seed: int, shrunk: bool = False) -> dict:
    """Config fields a run of this part replaces in the pinned config."""
    out = {}
    if part == "phase-scan-2d":
        out["signs"] = (SIGN_PAIRS[seed % len(SIGN_PAIRS)],)
    if shrunk:
        out.update(SHRUNK[part])
    return out


def config_text(canonical: str, seed: int) -> str:
    """The canonical config rendering with its lines in a seeded order."""
    lines = canonical.splitlines()
    random.Random(seed).shuffle(lines)
    return "\n".join(lines) + "\n"


def reference_key(part: str, signs) -> str:
    """Entry of reference.json that a run of this part is checked against."""
    if part == "phase-scan-2d":
        return f"{part}/{''.join(signs)}"
    return part


def key_numbers(part: str, report: dict) -> dict:
    """The report numbers the correctness gate compares with the reference."""
    rows, constants = report["rows"], report["constants"]
    if part == "lifespan-1d":
        out = {f"lifespan@eps={row['eps']:g}": row["lifespan"] for row in rows}
        out["lifespan_power"] = constants["lifespan_power"]
        return out
    if part == "bootstrap-2d":
        return {key: constants[key]
                for key in ("sobolev_growth", "weighted_growth", "cauchy_rate")}
    if part == "phase-scan-2d":
        return {f"{row['pair']}/{key}": row[key] for row in rows
                for key in ("min_abs_phase", "min_refined", "c_phi", "c_grad",
                            "floor_violations")}
    out = {f"{row['op']}-{row['dim']}d/rel_err": row["rel_err"] for row in rows}
    out["tolerance"] = constants["tolerance"]
    return out


def within(value: float, spec: dict) -> bool:
    """Does a key number meet its reference entry?"""
    if "max" in spec:
        return value <= spec["max"]
    if "rtol" in spec:
        return abs(value - spec["value"]) <= spec["rtol"] * abs(spec["value"])
    return value == spec["value"]
