"""The config file format: strict parsing, canonical re-rendering, and
the environment fallbacks."""

import math
from dataclasses import fields

import pytest

from kglab.config import (
    EXPERIMENT_IDS,
    FAMILY_KEYS,
    SCHEMA,
    ExperimentConfig,
    load_config,
    parse_config,
)
from kglab.experiments import _PINNED
from kglab.grid import make_grid

GOOD = """\
schema = kglab-experiment-v1
experiment = dispersive-decay
dim = 2
n = 256
box = 64pi          # quarter-kilometer box
seed = 7
band_lo = 0
band_hi = 3
"""

# the list-valued keys, each on a family that reads it
EPS_LIST = f"schema = {SCHEMA}\nexperiment = scattering\neps = 0.1, 0.05\n"
SIGN_LIST = f"schema = {SCHEMA}\nexperiment = phase-scan\nsigns = ++, +-\n"


def test_parse_round_trip_through_canonical():
    cfg = parse_config(GOOD)
    assert cfg.experiment == "dispersive-decay"
    assert cfg.dim == 2 and cfg.n == 256 and cfg.seed == 7
    assert cfg.box == pytest.approx(64 * math.pi)
    assert parse_config(EPS_LIST).eps == (0.1, 0.05)
    assert parse_config(SIGN_LIST).signs == ("++", "+-")
    for text in (GOOD, EPS_LIST, SIGN_LIST):
        cfg = parse_config(text)
        again = parse_config(cfg.canonical())
        assert again == cfg
        assert again.canonical() == cfg.canonical()


def test_content_hash_is_stable_and_sensitive():
    cfg = parse_config(GOOD)
    h = cfg.content_hash()
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    assert h == parse_config(GOOD).content_hash()
    bumped = parse_config(GOOD.replace("seed = 7", "seed = 8"))
    assert bumped.content_hash() != h


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config(
        "schema = kglab-experiment-v1\n\n# full-line comment\n"
        "experiment = phase-scan  # trailing comment\n"
    )
    assert cfg.experiment == "phase-scan"


def test_unknown_key_errors_with_line_number():
    bad = GOOD + "resolution = 8\n"
    with pytest.raises(ValueError, match=r"line 9: unknown key 'resolution'"):
        parse_config(bad)


def test_duplicate_key_errors_with_line_number():
    bad = GOOD + "seed = 9\n"
    with pytest.raises(ValueError, match=r"line 9: duplicate key 'seed'"):
        parse_config(bad)


def test_bad_value_cites_line_and_key():
    bad = GOOD.replace("n = 256", "n = many")
    with pytest.raises(ValueError, match=r"line 4: bad value for 'n'"):
        parse_config(bad)


def test_missing_schema_line_is_an_error():
    with pytest.raises(ValueError, match="schema"):
        parse_config("experiment = phase-scan\n")


def test_wrong_schema_version_is_an_error():
    bad = GOOD.replace(SCHEMA, "kglab-experiment-v0")
    with pytest.raises(ValueError, match="not supported"):
        parse_config(bad)


def test_missing_experiment_is_an_error():
    with pytest.raises(ValueError, match="experiment"):
        parse_config("schema = kglab-experiment-v1\nn = 64\n")


def test_key_without_equals_is_an_error():
    with pytest.raises(ValueError, match=r"line 2: expected 'key = value'"):
        parse_config("schema = kglab-experiment-v1\njust some words\n")


def test_pi_suffix_floats():
    cfg = parse_config("schema = kglab-experiment-v1\nexperiment = dispersive-decay\nbox = pi\n")
    assert cfg.box == pytest.approx(math.pi)
    cfg = parse_config("schema = kglab-experiment-v1\nexperiment = dispersive-decay\n"
                       "box = 2.5pi\n")
    assert cfg.box == pytest.approx(2.5 * math.pi)
    # a bare sign means +-1, as an explicit 1 does
    for raw, want in (("-pi", -math.pi), ("+pi", math.pi), ("- pi", -math.pi),
                      ("-1pi", -math.pi), ("+2pi", 2 * math.pi)):
        cfg = parse_config(f"schema = {SCHEMA}\nexperiment = paradiff-oracle\n"
                           f"coeff_alpha = {raw}\n")
        assert cfg.coeff_alpha == want


PINNED_DECAY_1D = ("experiment = dispersive-decay\ndim = 1\nn = 2048\nbox = 256pi\n"
                   "band_lo = -1\nband_hi = 1\nt0 = 4\nt1 = 48\ncheckpoints = 11")


def test_validation_runs_at_parse_time():
    cases = [
        ("experiment = warp-drive", "unknown experiment"),
        ("experiment = phase-scan\ndim = 4", "dim"),
        ("experiment = phase-scan\nn = 100", "power of two"),
        ("experiment = dispersive-decay\ndim = 3\nn = 4096",
         r"68719476736 points exceeds the limit of 16777216"),
        ("experiment = phase-scan\neps = 0.1, -0.2", "positive"),
        ("experiment = phase-scan\nt0 = 2.0\nt1 = 1.0", "t0"),
        ("experiment = phase-scan\nschedule = warp", "schedule"),
        ("experiment = phase-scan\nsigns = +T", "sign pair"),
        ("experiment = phase-scan\nalpha = 1.5", "alpha"),
        ("experiment = phase-scan\nblow_up_factor = 0.5", "blow_up_factor"),
        ("experiment = phase-scan\ncheckpoints = 1", "checkpoints"),
        # refused before a schedule is built: this one would need 7.28 TiB
        ("experiment = dispersive-decay\ncheckpoints = 1000000000000",
         "checkpoints = 1000000000000 exceeds the limit of 1000000"),
        ("experiment = weighted-bootstrap\neps = 0.05\ncheckpoints = 1000000000000",
         "exceeds the limit"),
        # dynamics.scattering_limit fits through ten or more checkpoints
        ("experiment = weighted-bootstrap\ndim = 2\nn = 32\nbox = 8pi\neps = 0.05\n"
         "checkpoints = 5", "at least ten checkpoints, got 5"),
        # a lattice no machine can allocate (466 TiB at radius 1e6 in 2-D),
        # and a radius / step ratio that overflows
        ("experiment = phase-scan\ndim = 2\nradius = 1e6",
         r"\(2m \+ 1\)\*\*2 points, m = 2 radius / step = 8e\+06: over the limit"),
        ("experiment = phase-scan\nstep = 5e-324", "m = 2 radius / step = inf"),
        ("experiment = phase-scan\ndim = 3\nradius = 1e6",
         r"\(2m \+ 1\)\(m \+ 1\) points, m = 2 radius / step = 8e\+06: over the limit"),
        ("experiment = phase-scan\ndim = 2\nstep = 5e-324", "m = 2 radius / step = inf"),
        ("experiment = phase-scan\ndim = 3\nstep = 5e-324", "m = 2 radius / step = inf"),
        ("experiment = phase-scan\nrule = gauss", "rule"),
        ("experiment = phase-scan\nsnapshot = true", "snapshot"),
        ("experiment = phase-scan\nbox = nan", "box must be finite"),
        ("experiment = phase-scan\nbox = 0", "box must be positive"),
        # a box whose grid has an inf frequency step, or squared lattices that overflow
        ("experiment = multiplier-bounds\nbox = 5e-324", "box half-length 4.94066e-324 is out"),
        ("experiment = dispersive-decay\ndim = 2\nbox = 1e-200",
         "out of range for a 2-D grid with n = 256"),
        ("experiment = lifespan-sweep\nbox = 1e155", "largest squared frequency or position"),
        ("experiment = phase-scan\nseed = -1", "seed must be nonnegative"),
        ("experiment = phase-scan\neps = ,", "eps list must be nonempty"),
        ("experiment = phase-scan\ndt = -0.1", "dt must be nonnegative"),
        ("experiment = phase-scan\nband_lo = 2\nband_hi = 1", "band_hi must be at least band_lo"),
        ("experiment = phase-scan\nnorm_order = -1", "norm_order must be nonnegative"),
        ("experiment = phase-scan\nladder = 0", "ladder must be at least 1"),
        ("experiment = phase-scan\nworkers = -1", "workers must be nonnegative"),
        ("experiment = phase-scan\ninclude_tail = maybe",
         "bad value for 'include_tail': not a boolean: 'maybe'"),
        ("experiment = phase-scan\nt1 = inf", "t1 must be finite"),
        ("experiment = phase-scan\neps = 0.1, nan", "eps must be finite"),
        ("experiment = reduced-residual\neps = 0.1, 0.1", "distinct"),
        ("experiment = lifespan-sweep\neps = 0.4, 0.3, 0.4", "distinct"),
        ("experiment = good-unknown-scaling\neps = 0.05", "at least two eps"),
        ("experiment = reduced-residual\neps = 0.1", "at least two eps"),
        ("experiment = scattering\neps = 0.1", "at least two eps"),
        ("experiment = scattering\neps = 0.1, 0.2\ncheckpoints = 8",
         "simpson needs an odd number of checkpoints, got 8"),
        ("experiment = weighted-bootstrap\neps = 0.05, 0.1", "runs one eps"),
        ("experiment = dispersive-decay\nfit_lo = 5\nfit_hi = 3",
         "fit_lo must be below fit_hi, got fit_lo = 5 and fit_hi = 3"),
        ("experiment = dispersive-decay\nfit_lo = 3\nfit_hi = 3", "fit_lo must be below fit_hi"),
        ("experiment = dispersive-decay\nfit_lo = -1", "fit_lo and fit_hi must be nonnegative"),
        ("experiment = dispersive-decay\nfit_hi = -2", "fit_lo and fit_hi must be nonnegative"),
        ("experiment = dispersive-decay\nband_lo = -2", "band_lo must be at least -1"),
        # the pinned 1-D dispersive-decay (checkpoints 4..48) with a fit
        # window past its last checkpoint, and one holding only t1 = 48
        (f"{PINNED_DECAY_1D}\nfit_lo = 100", r"fit window \[100, 48\] holds 0 usable"),
        (f"{PINNED_DECAY_1D}\nfit_lo = 47", r"fit window \[47, 48\] holds 1 usable"),
        ("experiment = strichartz-growth\ndim = 2\nfit_hi = 1.01", "holds 1 usable"),
        # a 1-D strichartz-growth fit cannot use t0, where its integral is 0
        ("experiment = strichartz-growth\ncheckpoints = 2\nschedule = linear",
         "holds 1 usable of the 2 linear checkpoint times from 1 to 2"),
        # a log schedule to the largest float overflows inside np.geomspace
        ("experiment = dispersive-decay\nschedule = log\nt1 = 1.7976931348623157e308",
         r"the log schedule of 17 checkpoint times from t0 = 1 to t1 = 1\.79769e\+308 is not finite"),
        ("experiment = lifespan-sweep\nschedule = log\nt1 = 1.7976931348623157e308",
         r"the log schedule of 17 checkpoint times from t0 = 1 to t1 = 1\.79769e\+308 is not finite"),
    ]
    for body, needle in cases:
        with pytest.raises(ValueError, match=needle):
            parse_config(f"schema = {SCHEMA}\n{body}\n")


@pytest.mark.parametrize("body, key, family", [
    ("experiment = weighted-bootstrap\nfit_lo = 3", "fit_lo", "weighted-bootstrap"),
    ("experiment = weighted-bootstrap\nschedule = linear", "schedule", "weighted-bootstrap"),
    ("experiment = weighted-bootstrap\nblow_up_factor = 5", "blow_up_factor",
     "weighted-bootstrap"),
    ("experiment = phase-scan\nn = 64", "n", "phase-scan"),
    ("experiment = phase-scan\neps = 0.1, 0.2", "eps", "phase-scan"),
    ("experiment = lifespan-sweep\nband_lo = 0", "band_lo", "lifespan-sweep"),
    ("experiment = lifespan-sweep\nband_hi = 2", "band_hi", "lifespan-sweep"),
    ("experiment = reduced-residual\neps = 0.1, 0.2\nband_lo = 0", "band_lo",
     "reduced-residual"),
    ("experiment = reduced-residual\neps = 0.1, 0.2\nband_hi = 2", "band_hi",
     "reduced-residual"),
    ("experiment = good-unknown-scaling\neps = 0.1, 0.2\nt1 = 5", "t1",
     "good-unknown-scaling"),
    ("experiment = scattering\neps = 0.1, 0.2\nalpha = 0.3", "alpha", "scattering"),
    ("experiment = dispersive-decay\ncoeff_beta = 2", "coeff_beta", "dispersive-decay"),
    # equal to the default 0 but rendered "-0": it would change the hash
    ("experiment = phase-scan\ndt = -0", "dt", "phase-scan"),
])
def test_a_key_the_family_never_reads_is_refused(body, key, family):
    with pytest.raises(ValueError, match=f"^{family} does not read {key}; it reads "):
        parse_config(f"schema = {SCHEMA}\n{body}\n")


def test_the_refusal_lists_what_the_family_reads():
    with pytest.raises(ValueError) as exc:
        parse_config(f"schema = {SCHEMA}\nexperiment = phase-scan\nbox = 8pi\n")
    assert str(exc.value) == ("phase-scan does not read box; it reads dim, experiment, out,"
                              " radius, seed, signs, step, workers")


def test_every_pinned_config_parses_back_from_its_canonical_text():
    # a canonical text names every key, those off the family's row at
    # their defaults
    for build in _PINNED.values():
        cfg = build()
        assert parse_config(cfg.canonical()) == cfg
    assert EXPERIMENT_IDS == tuple(FAMILY_KEYS)
    assert all(keys <= {f.name for f in fields(ExperimentConfig)}
               for keys in FAMILY_KEYS.values())


@pytest.mark.parametrize("n, box, k_max", [(2048, 4 * math.pi, 7), (8192, 4 * math.pi, 9),
                                          (8192, 8 * math.pi, 8)])
def test_multiplier_bounds_refuses_a_grid_without_both_commutator_bands(n, box, k_max):
    # the commutator growths are fitted through bands 9 and 10: with
    # neither the fit is empty, with band 9 alone it has one point
    assert make_grid(1, n, box).k_max == k_max
    with pytest.raises(ValueError, match=f"up to band 10, but n = {n}, .* has k_max = {k_max}$"):
        parse_config(f"schema = {SCHEMA}\nexperiment = multiplier-bounds\nn = {n}\n"
                     f"box = {box!r}\n")
    cfg = parse_config(f"schema = {SCHEMA}\nexperiment = multiplier-bounds\nn = 16384\n"
                       "box = 4pi\n")
    assert make_grid(1, cfg.n, cfg.box).k_max == 10


@pytest.mark.parametrize("body, pairs", [
    # lattices a machine could hold, in scans no machine finishes
    ("dim = 1\nradius = 1e6", "1.28e\\+14"),
    ("dim = 2\nradius = 64", "1.39e\\+11"),
    ("dim = 3\nradius = 375\nstep = 0.5", "6.76e\\+09"),
])
def test_a_phase_scan_is_bounded_by_the_pairs_it_evaluates(body, pairs):
    with pytest.raises(ValueError, match=f"evaluates up to {pairs} pairs, m = 2 radius / step"
                                         f" = .*: over the limit of 4294967296"):
        parse_config(f"schema = {SCHEMA}\nexperiment = phase-scan\n{body}\n")


def test_a_3d_phase_scan_is_sized_by_the_lattices_it_builds():
    # its largest lattice is the (2m + 1)(m + 1) half-disc of columns,
    # 33,153 points at m = 128, not a (2m + 1)**3 cube of 16,974,593
    cfg = parse_config(f"schema = {SCHEMA}\nexperiment = phase-scan\ndim = 3\n"
                       "radius = 16\nstep = 0.25\n")
    assert (cfg.dim, cfg.radius, cfg.step) == (3, 16.0, 0.25)


def test_scattering_takes_an_even_node_count_under_the_trapezoid_rule():
    cfg = parse_config(f"schema = {SCHEMA}\nexperiment = scattering\n"
                       "eps = 0.1, 0.2\ncheckpoints = 8\nrule = trapezoid\n")
    assert cfg.checkpoints == 8


def test_reduced_residual_with_the_tail_takes_one_eps():
    # with the truncation tail there is no floor, so no fit across eps
    cfg = parse_config(f"schema = {SCHEMA}\nexperiment = reduced-residual\n"
                       "eps = 0.1\ninclude_tail = true\n")
    assert cfg.eps == (0.1,)


def test_load_config_reads_files(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(GOOD)
    assert load_config(str(p)) == parse_config(GOOD)


def test_out_dir_env_fallback(monkeypatch):
    cfg = parse_config(GOOD)
    monkeypatch.delenv("KGLAB_OUT", raising=False)
    assert cfg.out_dir() == "out"
    monkeypatch.setenv("KGLAB_OUT", "/tmp/elsewhere")
    assert cfg.out_dir() == "/tmp/elsewhere"
    explicit = parse_config(GOOD + "out = results\n")
    assert explicit.out_dir() == "results"


def test_worker_count_env_fallback(monkeypatch):
    cfg = parse_config(GOOD)
    monkeypatch.delenv("KGLAB_WORKERS", raising=False)
    assert cfg.worker_count() == 1
    monkeypatch.setenv("KGLAB_WORKERS", "3")
    assert cfg.worker_count() == 3
    explicit = parse_config(GOOD + "workers = 2\n")
    assert explicit.worker_count() == 2


@pytest.mark.parametrize("raw", ["two", "1.5", "", "-1"])
def test_load_config_rejects_malformed_worker_env(tmp_path, monkeypatch, raw):
    p = tmp_path / "exp.cfg"
    p.write_text(GOOD)
    monkeypatch.setenv("KGLAB_WORKERS", raw)
    with pytest.raises(ValueError, match="KGLAB_WORKERS"):
        load_config(str(p))
    monkeypatch.setenv("KGLAB_WORKERS", "0")
    assert load_config(str(p)).worker_count() == 1


@pytest.mark.parametrize("out", ["runs#1", " runs", "runs\n", "a\rb", "a\x1cb"])
def test_out_the_file_format_cannot_carry_is_rejected(out):
    with pytest.raises(ValueError, match="out must be one line"):
        ExperimentConfig(experiment="phase-scan", out=out)


def test_direct_construction_validates_too():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="phase-scan", radius=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="phase-scan", signs=())
