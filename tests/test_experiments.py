"""Experiment plumbing at unit scale: dispatch, pinned configs and the
benchmark's hashes of them, worker mapping, the multiplier-bound
measurement, and one cheap end-to-end driver run."""

import ast
import dataclasses
import importlib.util
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kglab
from kglab.config import EXPERIMENT_IDS, ExperimentConfig
from kglab.data import make_rng, random_band_field
from kglab.grid import make_grid
from kglab.nonlinearity import default_spec
from kglab.resonance import (
    Pseudoproduct,
    b_kernel,
    bilinear_apply,
    semilinear_symbol,
    trilinear_apply,
)
from kglab.spectral import lp_project
from kglab.experiments import (
    CRITERIA,
    EXPERIMENT_DRIVERS,
    _bound_constant,
    acceptance_battery,
    pinned_config,
    run_experiment,
    run_phase_scan,
    run_reduced_residual,
    run_scattering,
)


def test_every_experiment_id_has_a_driver_and_a_pin():
    assert set(EXPERIMENT_DRIVERS) == set(EXPERIMENT_IDS)
    # the linear-flow measurements pin per dimension, the rest pin once
    per_dim = {"dispersive-decay": 1, "strichartz-growth": 1, "phase-scan": 1}
    for ident in EXPERIMENT_IDS:
        cfg = pinned_config(ident, per_dim.get(ident))
        assert cfg.experiment == ident


def test_pinned_config_unknown_id_raises():
    with pytest.raises(ValueError, match="no pinned config"):
        pinned_config("nope")


def test_pinned_dimension_variants_differ():
    d1 = pinned_config("dispersive-decay", 1)
    d2 = pinned_config("dispersive-decay", 2)
    assert d1.dim == 1 and d2.dim == 2
    assert d1.content_hash() != d2.content_hash()


def test_criteria_names_are_unique_and_split_fast_slow():
    names = [name for name, _, _ in CRITERIA]
    assert len(names) == len(set(names)) == 11
    fast = [name for name, _, in_fast in CRITERIA if in_fast]
    assert len(fast) == 7


def test_run_experiment_dispatches_and_reports():
    cfg = ExperimentConfig(experiment="phase-scan", dim=1, radius=3.0,
                           step=0.5, signs=("+-",))
    report = run_experiment(cfg)
    assert report.experiment == "phase-scan"
    assert report.config_hash == cfg.content_hash()
    assert report.verdict == "pass"
    assert [row["pair"] for row in report.rows] == ["+-"]
    assert report.checks["+--above-floor"]
    assert report.checks["+--refinement-stable"]


def test_lifespan_sweep_with_one_eps_fails_growth_without_a_fit():
    cfg = dataclasses.replace(pinned_config("lifespan-sweep"), eps=(0.4,))
    report = run_experiment(cfg)
    assert report.checks["blew-up-eps-0.4"]
    assert report.checks["grows-at-least-square"] is False
    assert report.fits == {} and "lifespan_power" not in report.constants
    assert report.verdict == "fail"


def test_worker_pool_gives_identical_rows():
    base = ExperimentConfig(experiment="phase-scan", dim=1, radius=3.0,
                            step=0.5, signs=("++", "+-", "--"))
    solo = run_phase_scan(base)
    pooled = run_phase_scan(dataclasses.replace(base, workers=3))
    assert solo.rows == pooled.rows
    assert solo.verdict == pooled.verdict == "pass"


# the pinned scattering run at a fraction of its cost
SMALL_SCATTERING = dataclasses.replace(pinned_config("scattering"), n=16,
                                       t1=1.5, checkpoints=3)


def test_scattering_builds_its_kernels_once_for_every_eps(monkeypatch):
    built = []
    init = Pseudoproduct.__init__

    def counting_init(self, *args):
        built.append(len(args) - 2)
        init(self, *args)

    monkeypatch.setattr(Pseudoproduct, "__init__", counting_init)
    assert len(SMALL_SCATTERING.eps) == 4
    run_scattering(SMALL_SCATTERING)
    # four sign pairs of the boundary, eight sign triples of the cubic term
    assert sorted(built) == [2] * 4 + [3] * 8


def test_scattering_threads_share_the_kernels(monkeypatch):
    # the worker count comes from the environment, so both runs have
    # the same config hash and their reports must match byte for byte
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("KGLAB_WORKERS", workers)
        reports.append(run_scattering(SMALL_SCATTERING))
    solo, pooled = reports
    assert solo.csv_text() == pooled.csv_text()
    assert solo.json_text() == pooled.json_text()


def test_malformed_worker_env_fails_before_compute(monkeypatch):
    monkeypatch.setenv("KGLAB_WORKERS", "two")
    calls = []
    monkeypatch.setitem(EXPERIMENT_DRIVERS, "phase-scan", calls.append)
    cfg = ExperimentConfig(experiment="phase-scan", dim=1, radius=3.0, step=0.5)
    with pytest.raises(ValueError, match="KGLAB_WORKERS"):
        run_experiment(cfg)
    with pytest.raises(ValueError, match="KGLAB_WORKERS"):
        acceptance_battery(fast=True)
    assert calls == []


def test_acceptance_battery_prints_one_line_per_criterion(monkeypatch, capsys):
    ran = []

    def stub(name, result):
        def criterion():
            ran.append(name)
            if isinstance(result, Exception):
                raise result
            return result
        return criterion

    monkeypatch.setattr(kglab.experiments, "CRITERIA", (
        ("good", stub("good", (True, "fine")), True),
        ("bad", stub("bad", (False, "off by 2")), True),
        ("boom", stub("boom", RuntimeError("kaput")), True),
        ("slow", stub("slow", (True, "took long")), False),
    ))
    assert acceptance_battery(fast=True) is False
    assert ran == ["good", "bad", "boom"]  # fast skips the slow-only one
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"PASS good  fine  \[\d+\.\ds\]", lines[0])
    assert re.fullmatch(r"FAIL bad  off by 2  \[\d+\.\ds\]", lines[1])
    assert re.fullmatch(r"FAIL boom  crashed: RuntimeError\('kaput'\)  \[\d+\.\ds\]",
                        lines[2])

    ran.clear()
    assert acceptance_battery() is False
    assert ran == ["good", "bad", "boom", "slow"]
    assert capsys.readouterr().out.splitlines()[3].startswith("PASS slow  took long  [")

    monkeypatch.setattr(kglab.experiments, "CRITERIA", (
        ("good", stub("good", (True, "fine")), True),
        ("slow", stub("slow", (False, "would fail")), False),
    ))
    assert acceptance_battery(fast=True) is True
    assert acceptance_battery() is False


def test_reduced_residual_with_the_tail_is_pure_dt_squared():
    # with the truncation tail in the right side there is no floor: every
    # rung of the pinned ladder runs and each halving divides by 4
    cfg = dataclasses.replace(pinned_config("reduced-residual"), include_tail=True)
    report = run_reduced_residual(cfg)
    assert len(report.rows) == cfg.ladder * len(cfg.eps)
    ratios = [row["ratio"] for row in report.rows if not math.isnan(row["ratio"])]
    assert len(ratios) == (cfg.ladder - 1) * len(cfg.eps)
    assert all(3.9 <= r <= 4.1 for r in ratios)
    assert report.checks == {f"clean-halvings-eps-{e:g}": True for e in cfg.eps}
    assert "floor_exponent" not in report.fits
    assert report.notes == ["tail included: no floor, ladder is pure dt^2"]
    assert report.verdict == "pass"


def test_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(kglab.__file__))
    code = ("import sys, kglab.experiments; "
            "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    # the package root re-exports by name, so importing it checks those
    for info in pkgutil.iter_modules(kglab.__path__):
        module = importlib.import_module(f"kglab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_no_module_imports_a_name_it_never_reads():
    package = os.path.dirname(kglab.__file__)
    unused = {}
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(package, fname), encoding="utf-8") as handle:
                found = _unused_imports(handle.read())
            if found:
                unused[fname] = found
    assert not unused, unused


FAST_PATH_MODULES = ("paradiff", "resonance", "spectral", "dynamics")


def _fast_path_borrowings(source: str) -> list:
    """What oracles.py takes from the fast-path modules beyond constants
    and types: functions, _-prefixed names, whole modules, and the fast
    key evaluator paradiff.zeta_factor however it is reached."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("kglab.")
            for alias in node.names:
                if module in ("", "kglab") and alias.name in FAST_PATH_MODULES:
                    found.append((node.lineno, alias.name))
                elif module in FAST_PATH_MODULES:
                    obj = getattr(importlib.import_module(f"kglab.{module}"), alias.name)
                    if alias.name.startswith("_") or (callable(obj) and not isinstance(obj, type)):
                        found.append((node.lineno, f"{module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.removeprefix("kglab.") in FAST_PATH_MODULES]
        elif isinstance(node, ast.Attribute) and node.attr == "zeta_factor":
            found.append((node.lineno, "zeta_factor"))
    return found


def test_oracles_share_no_code_with_the_fast_paths():
    with open(os.path.join(os.path.dirname(kglab.__file__), "oracles.py"),
              encoding="utf-8") as handle:
        assert _fast_path_borrowings(handle.read()) == []
    # the guard sees the key evaluator by import and by attribute
    assert _fast_path_borrowings("from .paradiff import zeta_factor") == [(1, "paradiff.zeta_factor")]
    assert _fast_path_borrowings("import kglab\nkglab.paradiff.zeta_factor") == [(2, "zeta_factor")]


def _literal_lp_norm(field, p):
    v = np.abs(field.values)
    if p == math.inf:
        return float(np.max(v))
    return float((np.sum(v ** p) * field.grid.quad_weight) ** (1.0 / p))


def _literal_constant(apply, grid, bands, log2_scale, exponents, seed):
    """max over six trials of ||P(f_i)||_p / (2^s prod ||f_i||_{q_i}), with
    the band inputs drawn operand by operand, trial by trial."""
    rng = make_rng(seed)
    p, *qs = exponents
    ratios = []
    for _ in range(6):
        fs = [lp_project(random_band_field(grid, rng, real=False), k) for k in bands]
        denom = 2.0 ** log2_scale
        for f, q in zip(fs, qs):
            denom = denom * _literal_lp_norm(f, q)
        ratios.append(_literal_lp_norm(apply(*fs), p) / denom)
    return max(ratios)


def test_bound_constant_is_the_literal_holder_ratio():
    g = make_grid(1, 256, 2 * np.pi)
    m = semilinear_symbol(1, 1)
    want = _literal_constant(lambda f, h: bilinear_apply(m, f, h), g, (1, 1), 5,
                             (2.0, 2.0, math.inf), seed=42)
    assert want > 0
    assert _bound_constant(m, g, (1, 1), 5, make_rng(42)) == want

    g = make_grid(1, 32, np.pi)
    b = b_kernel(default_spec(1), 1, 1, -1)
    want = _literal_constant(lambda f, h, w: trilinear_apply(b, f, h, w), g, (1, 1, 1),
                             9, (2.0, 6.0, 6.0, 6.0), seed=43)
    assert want > 0
    assert _bound_constant(b, g, (1, 1, 1), 9, make_rng(43)) == want


def test_bound_constant_tabulates_one_pseudoproduct_per_call(monkeypatch):
    built = []

    class CountingPseudoproduct(Pseudoproduct):
        def __init__(self, *args):
            built.append(len(args) - 2)
            super().__init__(*args)

    monkeypatch.setattr(kglab.experiments, "Pseudoproduct", CountingPseudoproduct)
    _bound_constant(semilinear_symbol(1, 1), make_grid(1, 256, 2 * np.pi), (1, 1), 5,
                    make_rng(42))
    assert built == [2]
    _bound_constant(b_kernel(default_spec(1), 1, 1, -1), make_grid(1, 32, np.pi),
                    (1, 1, 1), 9, make_rng(43))
    assert built == [2, 3]


def _load_benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, path.with_name("reference.json")


def test_pinned_configs_keep_the_benchmark_reference_hashes():
    # the benchmark gate refuses a part whose pinned config hash differs
    # from the one its reference pins, so a config change must be caught
    # here, before the benchmark runs
    workloads, reference_path = _load_benchmark_workloads()
    with open(reference_path, encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"]
    seen = {}
    for part, (experiment, dim) in workloads.PARTS.items():
        for seed in range(len(workloads.SIGN_PAIRS)):
            cfg = dataclasses.replace(pinned_config(experiment, dim),
                                      **workloads.overrides(part, seed))
            seen[workloads.reference_key(part, cfg.signs)] = cfg.content_hash()
    assert seen == {key: entry["config_hash"] for key, entry in reference.items()}
