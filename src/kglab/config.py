"""Experiment configuration: a strict single-file key = value format.

One experiment per file.  Every file opens with a schema tag so stale
configs fail loudly instead of running with reinterpreted keys:

    schema = kglab-experiment-v1
    experiment = dispersive-decay
    dim = 2
    n = 256
    box = 64pi
    ...

Unknown keys are errors, values are typed per key, and all validation
happens at parse time, before any numerical work starts.  Floats accept
a "pi" suffix (box = 64pi) because box sizes are naturally multiples of
pi.  List-valued keys are comma separated.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import checkpoint_times
from .resonance import _lattice_points

__all__ = ["ExperimentConfig", "EXPERIMENT_IDS", "SCHEMA", "parse_config", "load_config"]

SCHEMA = "kglab-experiment-v1"

# largest n**dim a config may ask for: 2**24 points is 256 MiB per
# complex field.  No pinned config has a 3-D grid; the largest pinned
# grids are 2-D n = 256 and 1-D n = 32768 (2**16 and 2**15 points)
MAX_GRID_POINTS = 2**24

# largest checkpoint count a config may ask for: a run builds its whole
# schedule and keeps a row per checkpoint, so a count no machine can hold
# must fail at parse time.  The largest pinned count is 600
MAX_CHECKPOINTS = 10**6

EXPERIMENT_IDS = (
    "paradiff-oracle",
    "multiplier-bounds",
    "dispersive-decay",
    "strichartz-growth",
    "phase-scan",
    "good-unknown-scaling",
    "reduced-residual",
    "lifespan-sweep",
    "weighted-bootstrap",
    "scattering",
)

_SIGN_PAIRS = ("++", "+-", "-+", "--")


def _parse_float(raw: str) -> float:
    """A float, or a multiple of pi: "2.5pi", "pi", "-pi" (a bare sign is +-1)."""
    raw = raw.strip()
    if raw.endswith("pi"):
        factor = raw[:-2].strip()
        return float(factor + "1" if factor in ("", "+", "-") else factor) * math.pi
    return float(raw)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw: str) -> tuple:
    items = [piece.strip() for piece in raw.split(",")]
    return tuple(_parse_float(piece) for piece in items if piece)


def _parse_str_list(raw: str) -> tuple:
    return tuple(piece.strip() for piece in raw.split(",") if piece.strip())


_PARSERS = {
    int: lambda raw: int(raw.strip(), 0),
    float: _parse_float,
    bool: _parse_bool,
    str: lambda raw: raw.strip(),
    "float_list": _parse_float_list,
    "str_list": _parse_str_list,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed, validated experiment description.

    Defaults are the desk-scale parameters each experiment was tuned
    at; a config file only has to override what it changes.  `eps`,
    `signs`, and similar list-valued knobs expand into the run matrix.
    The default single `eps` does not serve good-unknown-scaling,
    scattering, or reduced-residual without the tail: each fits a slope
    across eps and needs two or more distinct values.

    A few keys mean different things per experiment.  `dt` is the step
    limit cap of lifespan-sweep and weighted-bootstrap (0: the step
    limit alone), the step per unit eps of scattering (0: 0.25), and the
    first rung of reduced-residual's ladder (0: 0.08).  `envelope` is the
    decay of the data envelope of strichartz-growth (0: no envelope) and
    of weighted-bootstrap (0: 2.0).  Scattering integrates its
    `checkpoints` nodes with `rule`, so Simpson's rule needs an odd count.
    """

    experiment: str
    dim: int = 1
    n: int = 256
    box: float = 32 * math.pi
    seed: int = 1
    eps: tuple = (0.1,)
    t0: float = 1.0
    t1: float = 2.0
    dt: float = 0.0          # 0 means the experiment's default step; see above
    checkpoints: int = 17
    schedule: str = "log"
    band_lo: int = -1
    band_hi: int = 0
    envelope: float = 0.0    # <x>^-envelope data shaping; 0: see above
    alpha: float = 0.18
    norm_order: int = 0      # 0 means "default for the dimension"
    coeff_alpha: float = 1.0
    coeff_beta: float = 1.0
    coeff_gamma_u: float = 1.0
    coeff_gamma_t: float = 1.0
    signs: tuple = _SIGN_PAIRS
    radius: float = 8.0
    step: float = 0.25
    rule: str = "simpson"
    fit_lo: float = 0.0      # 0 means "whole sample range"
    fit_hi: float = 0.0
    blow_up_factor: float = 10.0
    ladder: int = 8
    include_tail: bool = False
    # only false is accepted (no experiment writes snapshots); the key
    # stays because every config's canonical text and hash include it
    snapshot: bool = False
    out: str = ""            # "" falls back to KGLAB_OUT or ./out
    workers: int = 0         # 0 falls back to KGLAB_WORKERS or 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"known ids: {', '.join(EXPERIMENT_IDS)}"
            )
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2, or 3")
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two, at least 8")
        if self.n**self.dim > MAX_GRID_POINTS:
            raise ValueError(
                f"grid of n**dim = {self.n}**{self.dim} = {self.n**self.dim} points "
                f"exceeds the limit of {MAX_GRID_POINTS} points")
        if self.box <= 0:
            raise ValueError("box must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.eps:
            raise ValueError("eps list must be nonempty")
        if any(e <= 0 for e in self.eps):
            raise ValueError("every eps must be positive")
        if len(set(self.eps)) < len(self.eps):
            raise ValueError(f"eps values must be distinct, got {self.eps!r}")
        # these verdicts rest on a slope fitted across eps; lifespan-sweep
        # also fits one but takes a single eps, and then fails without a fit
        fits_in_eps = (self.experiment in ("good-unknown-scaling", "scattering")
                       or (self.experiment == "reduced-residual" and not self.include_tail))
        if fits_in_eps and len(self.eps) < 2:
            raise ValueError(f"{self.experiment} fits an exponent in eps: "
                             f"it needs at least two eps values")
        if self.experiment == "weighted-bootstrap" and len(self.eps) > 1:
            raise ValueError(f"weighted-bootstrap runs one eps, got {self.eps!r}")
        if self.t0 <= 0 or self.t1 <= self.t0:
            raise ValueError("need 0 < t0 < t1")
        if self.dt < 0:
            raise ValueError("dt must be nonnegative (0 = the step limit)")
        if self.checkpoints < 2:
            raise ValueError("checkpoints must be at least 2")
        if self.checkpoints > MAX_CHECKPOINTS:
            raise ValueError(f"checkpoints = {self.checkpoints} exceeds the limit of"
                             f" {MAX_CHECKPOINTS}")
        if self.experiment == "weighted-bootstrap" and self.checkpoints < 10:
            raise ValueError(f"weighted-bootstrap fits its scattering limit through at least"
                             f" ten checkpoints, got {self.checkpoints}")
        if self.schedule not in ("log", "linear"):
            raise ValueError("schedule must be 'log' or 'linear'")
        if self.band_lo < -1:
            raise ValueError(f"band_lo must be at least -1 (the low band), got {self.band_lo}")
        if self.band_hi < self.band_lo:
            raise ValueError("band_hi must be at least band_lo")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.norm_order < 0:
            raise ValueError("norm_order must be nonnegative")
        for pair in self.signs:
            if pair not in _SIGN_PAIRS:
                raise ValueError(f"bad sign pair {pair!r}; use ++, +-, -+, --")
        if not self.signs:
            raise ValueError("signs list must be nonempty")
        if self.radius <= 0 or self.step <= 0:
            raise ValueError("radius and step must be positive")
        # the phase scan's finer lattice, at step / 2, has 2m + 1 points per axis (129 pinned)
        m = 2.0 * self.radius / self.step
        if self.experiment == "phase-scan" and _lattice_points(self.dim, m) > MAX_GRID_POINTS:
            shape = "(2m + 1)(m + 1)" if self.dim == 3 else f"(2m + 1)**{self.dim}"
            raise ValueError(f"the phase-scan lattice at step / 2 has {shape} points,"
                             f" m = 2 radius / step = {m:g}: over the limit of {MAX_GRID_POINTS}")
        if self.rule not in ("simpson", "trapezoid"):
            raise ValueError("rule must be 'simpson' or 'trapezoid'")
        if (self.experiment == "scattering" and self.rule == "simpson"
                and self.checkpoints % 2 == 0):
            raise ValueError(f"scattering with rule = simpson needs an odd number "
                             f"of checkpoints, got {self.checkpoints}")
        if self.fit_lo < 0 or self.fit_hi < 0:
            raise ValueError("fit_lo and fit_hi must be nonnegative (0 = the whole sample range)")
        if 0 < self.fit_hi <= self.fit_lo:
            raise ValueError(f"fit_lo must be below fit_hi, got fit_lo = {self.fit_lo:g}"
                             f" and fit_hi = {self.fit_hi:g}")
        if self.experiment in ("dispersive-decay", "strichartz-growth", "lifespan-sweep"):
            # refuses a schedule that is not finite in float64
            ts = checkpoint_times(self.t0, self.t1, self.checkpoints, self.schedule)
        if self.experiment in ("dispersive-decay", "strichartz-growth"):
            # the fit needs two distinct checkpoint times in its window; a
            # 1-D strichartz-growth fit is log-log, and its integral is 0 at t0
            lo, hi = self.fit_lo or ts[0], self.fit_hi or ts[-1]
            usable = ts[int(self.experiment == "strichartz-growth" and self.dim == 1):]
            inside = np.unique(usable[(usable >= lo) & (usable <= hi)])
            if inside.size < 2:
                raise ValueError(f"fit window [{lo:g}, {hi:g}] holds {inside.size} usable of the"
                                 f" {self.checkpoints} {self.schedule} checkpoint times from"
                                 f" {ts[0]:g} to {ts[-1]:g}; {self.experiment} fits a slope"
                                 f" through at least two")
        if self.blow_up_factor <= 1:
            raise ValueError("blow_up_factor must exceed 1")
        if self.ladder < 1:
            raise ValueError("ladder must be at least 1")
        if "#" in self.out or self.out != self.out.strip() or len(self.out.splitlines()) > 1:
            raise ValueError(f"out must be one line with no '#' and no surrounding "
                             f"spaces, got {self.out!r}")
        if self.workers < 0:
            raise ValueError("workers must be nonnegative (0 = env/default)")
        if self.snapshot:
            raise ValueError("snapshot = true is not supported: no experiment writes snapshots")

    # -- derived accessors ------------------------------------------------

    def out_dir(self) -> str:
        return self.out or os.environ.get("KGLAB_OUT", "out")

    def worker_count(self) -> int:
        return self.workers or _env_workers()

    def content_hash(self) -> str:
        """Hash of the canonical key = value rendering; names outputs."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]

    def canonical(self) -> str:
        lines = [f"schema = {SCHEMA}"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                rendered = ", ".join(_render(v) for v in value)
            else:
                rendered = _render(value)
            lines.append(f"{f.name} = {rendered}")
        return "\n".join(lines) + "\n"


def _env_workers() -> int:
    """KGLAB_WORKERS as a worker count: unset means 1, and so does 0."""
    raw = os.environ.get("KGLAB_WORKERS", "1")
    if not raw.strip().isdecimal():
        raise ValueError(
            f"KGLAB_WORKERS must be a nonnegative integer, got {raw!r}")
    return max(1, int(raw))


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_FIELD_TYPES = {}
for _f in fields(ExperimentConfig):
    if _f.name in ("eps",):
        _FIELD_TYPES[_f.name] = "float_list"
    elif _f.name in ("signs",):
        _FIELD_TYPES[_f.name] = "str_list"
    else:
        _FIELD_TYPES[_f.name] = {"int": int, "float": float, "bool": bool, "str": str}[_f.type]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate one experiment file.  Fails before compute."""
    seen = {}
    schema = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "schema":
            schema = raw
            continue
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        parser = _PARSERS[_FIELD_TYPES[key]]
        try:
            seen[key] = parser(raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if schema is None:
        raise ValueError("missing 'schema' line")
    if schema != SCHEMA:
        raise ValueError(f"schema {schema!r} not supported; expected {SCHEMA!r}")
    if "experiment" not in seen:
        raise ValueError("missing 'experiment' key")
    return ExperimentConfig(**seen)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate one experiment file, together with the
    KGLAB_WORKERS fallback it would run with, so that `kglab run`
    reports a bad value as a config error.  run_experiment and
    acceptance_battery check KGLAB_WORKERS again before compute."""
    with open(path, encoding="utf-8") as handle:
        cfg = parse_config(handle.read())
    cfg.worker_count()
    return cfg
