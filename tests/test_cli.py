"""CLI wiring: exit codes track verdicts, config errors exit 2, and the
scan output is machine-greppable."""

import pytest

from kglab.cli import main

QUICK_SCAN = """\
schema = kglab-experiment-v1
experiment = phase-scan
dim = 1
radius = 3.0
step = 0.5
signs = ++, --
"""


def test_run_executes_config_and_writes_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KGLAB_OUT", str(tmp_path / "ledger"))
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(QUICK_SCAN)
    code = main(["run", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "phase-scan: pass" in out
    written = sorted(p.name for p in (tmp_path / "ledger").iterdir())
    assert len(written) == 2
    assert written[0].startswith("phase-scan-") and written[0].endswith(".csv")
    assert written[1].endswith(".json")


def test_run_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("KGLAB_OUT", str(tmp_path / "ledger"))
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(QUICK_SCAN)
    assert main(["run", str(cfg)]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "ledger").iterdir()}
    assert main(["run", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "ledger").iterdir()}
    assert first == second


def test_run_exits_2_on_unknown_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KGLAB_OUT", str(tmp_path / "ledger"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(QUICK_SCAN + "turbo = yes\n")
    code = main(["run", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "unknown key" in err
    assert not (tmp_path / "ledger").exists()  # validation precedes compute


def test_run_exits_2_on_a_checkpoint_count_no_machine_can_hold(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KGLAB_OUT", str(tmp_path / "ledger"))
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("schema = kglab-experiment-v1\nexperiment = dispersive-decay\n"
                   "checkpoints = 1000000000000\n")
    code = main(["run", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "exceeds the limit" in err
    assert not (tmp_path / "ledger").exists()


@pytest.mark.parametrize("body, needle", [
    ("experiment = weighted-bootstrap\ndim = 2\nn = 32\nbox = 8pi\neps = 0.05\n"
     "checkpoints = 5\n", "at least ten checkpoints"),
    ("experiment = phase-scan\ndim = 2\nradius = 1e6\n", "phase-scan lattice"),
], ids=["bootstrap-checkpoints", "scan-lattice"])
def test_run_exits_2_on_a_config_the_run_could_not_finish(body, needle, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setenv("KGLAB_OUT", str(tmp_path / "ledger"))
    calls = []
    monkeypatch.setattr("kglab.cli.run_experiment", calls.append)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("schema = kglab-experiment-v1\n" + body)
    code = main(["run", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and needle in err
    assert calls == []
    assert not (tmp_path / "ledger").exists()


@pytest.mark.parametrize("argv", [
    ["--radius", "1e6", "--dim", "2"],
    ["--radius", "1e6", "--dim", "3"],
    ["--step", "5e-324"],
    ["--step", "5e-324", "--dim", "2"],
    ["--step", "5e-324", "--dim", "3"],
], ids=["radius-1e6", "radius-1e6-3d", "step-subnormal", "step-subnormal-2d",
        "step-subnormal-3d"])
def test_scan_phase_refuses_a_lattice_no_machine_can_hold(argv, capsys, monkeypatch):
    # the rule of a phase-scan config, checked before any compute
    calls = []
    monkeypatch.setattr("kglab.cli.phase_bound_scan", lambda *a, **k: calls.append(a))
    code = main(["scan-phase", "--signs", "++", *argv])
    assert code == 2
    assert "config error: the phase-scan lattice" in capsys.readouterr().err
    assert calls == []


def test_run_exits_2_on_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "{cfg}"],
    ["acceptance", "--fast"],
    ["sweep-lifespan", "--eps", "0.4"],
], ids=["run", "acceptance", "sweep-lifespan"])
def test_run_exits_2_on_malformed_worker_env(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KGLAB_OUT", str(tmp_path / "ledger"))
    monkeypatch.setenv("KGLAB_WORKERS", "two")
    calls = []
    monkeypatch.setattr("kglab.cli.run_experiment", calls.append)
    monkeypatch.setattr("kglab.cli.acceptance_battery", lambda fast: calls.append(fast))
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(QUICK_SCAN)
    code = main([arg.format(cfg=cfg) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "KGLAB_WORKERS" in err
    assert calls == []
    assert not (tmp_path / "ledger").exists()


def test_acceptance_fast_flag_reaches_the_battery(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("kglab.cli.acceptance_battery",
                        lambda fast: calls.append(fast) or True)
    assert main(["acceptance", "--fast"]) == 0
    assert main(["acceptance"]) == 0
    assert calls == [True, False]
    assert "all criteria pass" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["acceptance", "--all"])
    assert exc.value.code == 2


def test_scan_phase_prints_report_keys(capsys):
    code = main(["scan-phase", "--signs", "+-", "--radius", "2", "--step", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    for key in ("d = 1", "mu = 1", "nu = -1", "radius = 2.0", "step = 0.5",
                "n_pairs =", "n_pairs_covered =", "min_abs_phase =", "c_phi =",
                "c_grad =", "floor_violations = 0"):
        assert key in out


def test_scan_phase_runs_a_3d_scan_its_refinement_could_hold(capsys):
    code = main(["scan-phase", "--signs", "+-", "--dim", "3", "--radius", "16",
                 "--step", "0.25"])
    assert code == 0
    assert "d = 3" in capsys.readouterr().out


def test_scan_phase_rejects_malformed_signs():
    with pytest.raises(SystemExit) as exc:
        main(["scan-phase", "--signs", "+x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep-lifespan", "--eps", "0.4,abc"],
    ["sweep-lifespan", "--eps", "-0.1"],
    ["sweep-lifespan", "--eps", "0.2,0"],
    ["scan-phase", "--signs", "++", "--step", "-1"],
    ["scan-phase", "--signs", "++", "--radius", "0"],
    ["scan-phase", "--signs", "++", "--radius", "nan"],
], ids=["eps-word", "eps-negative", "eps-zero", "step-negative", "radius-zero",
        "radius-nan"])
def test_malformed_numbers_exit_2_before_compute(argv, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("kglab.cli.run_experiment", calls.append)
    monkeypatch.setattr("kglab.cli.phase_bound_scan", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert calls == []


def test_sweep_lifespan_rejects_empty_eps(capsys):
    code = main(["sweep-lifespan", "--eps", ","])
    assert code == 2
    assert "empty eps" in capsys.readouterr().err


def test_sweep_lifespan_repeated_eps_is_a_config_error(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("kglab.cli.run_experiment", calls.append)
    code = main(["sweep-lifespan", "--eps", "0.4,0.4"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert calls == []


def test_sweep_lifespan_with_one_eps_reports_and_fails(capsys):
    # one lifespan carries no growth exponent: a failed verdict, not a crash
    code = main(["sweep-lifespan", "--eps", "0.4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "lifespan-sweep: fail" in out
    assert "[FAIL] grows-at-least-square" in out
    assert "eps=0.4 lifespan=" in out


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
