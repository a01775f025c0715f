"""Run reports: measured rows, fitted exponents, verdicts, and writers.

A report is the full record of one experiment run: the config hash it
came from, the per-checkpoint measurement rows, every fitted exponent
with its confidence band, the measured constants, and a three-valued
verdict.  Writers are deterministic: the same report serializes to the
same bytes, so re-running an experiment with an unchanged config can be
diffed file against file.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

from .norms import FitResult

__all__ = ["RunReport", "write_report"]

VERDICTS = ("pass", "fail", "report-only")


def _fmt(value) -> str:
    """Stable scalar rendering for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class RunReport:
    """Everything one experiment run measured.

    rows       : list of dicts, one per checkpoint / matrix entry, all
                 sharing the key order of the first row
    fits       : fitted exponents keyed by name
    constants  : scalar measured quantities keyed by name
    checks     : named boolean outcomes that feed the verdict
    """

    experiment: str
    config_hash: str
    seed: int
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    verdict: str = "report-only"
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")

    def finalize(self) -> "RunReport":
        """Derive the verdict from the recorded checks."""
        if self.checks:
            self.verdict = "pass" if all(self.checks.values()) else "fail"
        return self

    def add_fit(self, name: str, fit: FitResult):
        self.fits[name] = fit

    # -- serialization -----------------------------------------------------

    def csv_text(self) -> str:
        if not self.rows:
            return ""
        buffer = io.StringIO()
        headers = list(self.rows[0].keys())
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        for row in self.rows:
            if list(row.keys()) != headers:
                raise ValueError("report rows must share one header set")
            writer.writerow([_fmt(row[h]) for h in headers])
        return buffer.getvalue()

    def json_text(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "verdict": self.verdict,
            "fits": {
                name: {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "ci95": fit.ci95,
                    "r2": fit.r2,
                    "n_points": fit.n_points,
                    "window": list(fit.window),
                }
                for name, fit in sorted(self.fits.items())
            },
            "constants": {k: self.constants[k] for k in sorted(self.constants)},
            "checks": {k: bool(self.checks[k]) for k in sorted(self.checks)},
            "notes": list(self.notes),
            "n_rows": len(self.rows),
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def summary(self) -> str:
        parts = [f"{self.experiment}: {self.verdict}"]
        for name, fit in sorted(self.fits.items()):
            parts.append(f"  {name}: {fit}")
        for name in sorted(self.constants):
            parts.append(f"  {name} = {_fmt(self.constants[name])}")
        for name in sorted(self.checks):
            parts.append(f"  [{'ok' if self.checks[name] else 'FAIL'}] {name}")
        return "\n".join(parts)


def write_report(report: RunReport, out_dir: str) -> tuple:
    """Write <experiment>-<hash>.csv/.json under out_dir; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{report.experiment}-{report.config_hash}"
    csv_path = os.path.join(out_dir, stem + ".csv")
    json_path = os.path.join(out_dir, stem + ".json")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(report.csv_text())
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(report.json_text())
    return csv_path, json_path

