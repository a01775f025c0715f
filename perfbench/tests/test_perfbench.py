"""Self-test of the benchmark harness on shrunken copies of its workloads' parts.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import kglab  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import PARTS, SHRUNK, WORKLOADS, key_numbers  # noqa: E402


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("KGLAB_OUT", str(tmp_path))
    monkeypatch.setenv("KGLAB_WORKERS", "1")
    return tmp_path


def traced(part, out_dir, seed=0):
    return child.run_parts((part,), seed, str(out_dir), mode="trace", shrunk=True)


def namespace_snapshot() -> dict:
    """Every attribute of every kglab module and of the traced classes."""
    owners = [m for name, m in sys.modules.items()
              if name == "kglab" or name.startswith("kglab.")]
    owners += [kglab.grid.Field, kglab.resonance.BilinearSymbol,
               kglab.resonance.TrilinearSymbol]
    return {(id(o), attr): value for o in owners for attr, value in vars(o).items()}


@pytest.mark.parametrize("part", sorted(SHRUNK))
def test_two_traced_runs_give_identical_counts(part, out_dir):
    first, second = traced(part, out_dir), traced(part, out_dir)
    assert first["parts"][0]["report"]["rows"] == second["parts"][0]["report"]["rows"]
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counts"] == second["trace"]["counts"]


@pytest.mark.parametrize("part", sorted(SHRUNK))
def test_self_times_add_up_to_the_traced_wall_time(part, out_dir):
    trace = traced(part, out_dir)["trace"]
    assert trace["root_s"] > 0
    assert math.isclose(trace["self_sum_s"], trace["root_s"], rel_tol=1e-9)


@pytest.mark.parametrize("part, ratio", [("lifespan-1d", Fraction(1, 3)),
                                         ("bootstrap-2d", Fraction(3, 4))])
def test_useful_product_ratio_matches_the_nonlinearity(part, ratio, out_dir):
    # lifespan: S = 2u^2 with zero quasilinear coefficients, so of the
    # three products per rhs only u*u is live; bootstrap: every coupling
    # on, and 3 in 4 products have two nonzero operands
    trace = traced(part, out_dir)["trace"]
    products = trace["calls"]["spectral.dealiased_product"]
    assert products > 0
    assert Fraction(trace["counts"]["spectral.useful_products"], products) == ratio
    assert trace["layers"]["spectral.useful_product_ratio"] == float(ratio)


def test_scan_pairs_are_the_sum_of_returned_pair_counts(out_dir):
    from kglab.resonance import phase_bound_scan

    trace = traced("phase-scan-2d", out_dir, seed=1)["trace"]
    shrunk = SHRUNK["phase-scan-2d"]
    scans = [phase_bound_scan(2, 1, -1, radius=shrunk["radius"], step=step)
             for step in (shrunk["step"], shrunk["step"] / 2)]
    assert trace["layers"]["resonance.scan_calls"] == 2
    assert trace["layers"]["resonance.scan_pairs"] == sum(s["n_pairs"] for s in scans)
    assert trace["layers"]["resonance.grad_pairs"] == sum(s["n_grad_pairs"] for s in scans)
    assert trace["layers"]["grid.fft_calls"] == 0


def test_symbol_points_count_every_kernel_evaluation(out_dir):
    from kglab import resonance
    from kglab.data import make_rng, random_band_field
    from kglab.grid import make_grid
    from kglab.nonlinearity import default_spec

    grid = make_grid(1, 32, 4 * math.pi)
    rng = make_rng(3)
    f = random_band_field(grid, rng, real=False)
    g = random_band_field(grid, rng, real=False)
    in_box = [int((grid.dealias_mask & (x.coeffs != 0)).sum()) for x in (f, g)]
    tracer = Tracer()
    tracer.install()
    try:
        resonance.bilinear_apply(resonance.a_kernel(default_spec(1), 1, -1), f, g)
    finally:
        tracer.uninstall()
    assert tracer.calls["resonance.bilinear_apply"] == 1
    assert tracer.counts["resonance.symbol_points"] == in_box[0] * in_box[1]


def test_tracing_restores_every_name(out_dir):
    before = namespace_snapshot()
    traced("lifespan-1d", out_dir)
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(v, "perfbench_span") or hasattr(getattr(v, "fget", None),
                                                           "perfbench_span")
                   for v in after.values())


def test_untraced_run_installs_no_wrapper(out_dir, monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    result = child.run_parts(("phase-scan-2d",), 0, str(out_dir), mode="run", shrunk=True)
    assert "trace" not in result


def test_gate_passes_on_matching_numbers_and_fails_on_drift(out_dir):
    result = traced("phase-scan-2d", out_dir, seed=2)
    report = result["parts"][0]["report"]
    entry = {"config_hash": result["parts"][0]["pinned_hash"], "verdict": report["verdict"],
             "checks": sorted(report["checks"]),
             "keys": {key: {"value": value, "rtol": 1e-12} for key, value
                      in key_numbers("phase-scan-2d", report).items()}}
    reference = {"phase-scan-2d/-+": entry}
    assert all(ok for _, ok in run.gate_part(result["parts"][0], reference))

    key = "-+/c_phi"
    entry["keys"][key]["value"] *= 1 + 1e-9
    failed = [name for name, ok in run.gate_part(result["parts"][0], reference) if not ok]
    assert len(failed) == 1 and failed[0].startswith(f"phase-scan-2d: {key}")


def test_per_layer_metrics_match_benchmark_json():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = {m["name"] for m in spec["per_layer"]}
    assert names == set(Tracer().layer_metrics()) | {"trace.overhead_s"}


def test_workloads_match_benchmark_json_and_layer_map():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(BENCH / "layers.json", encoding="utf-8") as handle:
        layers = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert layers["workloads"] == {name: list(parts) for name, parts in WORKLOADS.items()}
    assert set(layers["parts"]) == set(PARTS)
    for entry in layers["layers"].values():
        assert set(entry["parts"]) <= set(PARTS)
        assert entry["on"] == list(dict.fromkeys(
            name for part in entry["parts"] for name, parts in WORKLOADS.items()
            if part in parts))


def test_a_crash_counts_as_many_checks_as_a_repetition_attempts(out_dir):
    with open(BENCH / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"]
    result = traced("phase-scan-2d", out_dir, seed=2)
    checks = run.gate("bootstrap-scan-oracle", result, reference, part="phase-scan-2d")
    assert len(checks) == run.expected_checks("bootstrap-scan-oracle", 2, reference,
                                              "trace", part="phase-scan-2d")
