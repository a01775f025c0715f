"""Report serialization: deterministic bytes, verbatim headers, verdicts."""

import json

import pytest

from kglab.norms import FitResult
from kglab.reports import RunReport, write_report


def _report():
    r = RunReport(experiment="dispersive-decay", config_hash="abc123def456", seed=7)
    r.rows.append({"t": 1.0, "sobolev_11": 0.5, "sup": 0.25, "flag": "ok"})
    r.rows.append({"t": 2.0, "sobolev_11": 0.5, "sup": 0.125, "flag": "ok"})
    r.add_fit("decay", FitResult(-1.0, 0.3, 0.999, 12, (1.0, 16.0), 0.02))
    r.constants["floor"] = 1.25e-9
    r.checks["finite"] = True
    return r


def test_csv_headers_are_row_keys_verbatim():
    text = _report().csv_text()
    lines = text.splitlines()
    assert lines[0] == "t,sobolev_11,sup,flag"
    assert lines[1] == "1,0.5,0.25,ok"
    assert len(lines) == 3


def test_csv_is_byte_stable():
    assert _report().csv_text() == _report().csv_text()
    assert _report().json_text() == _report().json_text()


def test_rows_must_share_headers():
    r = _report()
    r.rows.append({"t": 3.0, "sup": 0.1})
    with pytest.raises(ValueError, match="share one header"):
        r.csv_text()


def test_empty_report_serializes_empty():
    r = RunReport(experiment="phase-scan", config_hash="0" * 12, seed=1)
    assert r.csv_text() == ""


def test_json_structure_and_fit_payload():
    payload = json.loads(_report().json_text())
    assert payload["experiment"] == "dispersive-decay"
    assert payload["config_hash"] == "abc123def456"
    assert payload["n_rows"] == 2
    fit = payload["fits"]["decay"]
    assert fit["slope"] == -1.0
    assert fit["ci95"] == pytest.approx(0.04)
    assert fit["window"] == [1.0, 16.0]
    assert payload["checks"] == {"finite": True}


def test_finalize_derives_verdict_from_checks():
    r = _report()
    assert r.verdict == "report-only"
    assert r.finalize().verdict == "pass"
    r.checks["capped"] = False
    assert r.finalize().verdict == "fail"
    bare = RunReport(experiment="phase-scan", config_hash="0" * 12, seed=1)
    assert bare.finalize().verdict == "report-only"


def test_verdict_values_are_guarded():
    with pytest.raises(ValueError, match="verdict"):
        RunReport(experiment="phase-scan", config_hash="0" * 12, seed=1,
                  verdict="maybe")


def test_write_report_names_files_by_hash(tmp_path):
    r = _report().finalize()
    csv_path, json_path = write_report(r, str(tmp_path))
    assert csv_path.endswith("dispersive-decay-abc123def456.csv")
    assert json_path.endswith("dispersive-decay-abc123def456.json")
    with open(csv_path) as handle:
        assert handle.read() == r.csv_text()
    with open(json_path) as handle:
        assert json.load(handle)["verdict"] == "pass"


def test_summary_lists_checks_and_constants():
    s = _report().finalize().summary()
    assert s.startswith("dispersive-decay: pass")
    assert "floor = 1.25e-09" in s
    assert "[ok] finite" in s
