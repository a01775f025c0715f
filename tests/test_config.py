"""The config file format: strict parsing, canonical re-rendering, and
the environment fallbacks."""

import math

import pytest

from kglab.config import SCHEMA, ExperimentConfig, load_config, parse_config

GOOD = """\
schema = kglab-experiment-v1
experiment = dispersive-decay
dim = 2
n = 256
box = 64pi          # quarter-kilometer box
seed = 7
eps = 0.1, 0.05
signs = ++, +-
"""


def test_parse_round_trip_through_canonical():
    cfg = parse_config(GOOD)
    assert cfg.experiment == "dispersive-decay"
    assert cfg.dim == 2 and cfg.n == 256 and cfg.seed == 7
    assert cfg.box == pytest.approx(64 * math.pi)
    assert cfg.eps == (0.1, 0.05)
    assert cfg.signs == ("++", "+-")
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
    cfg = parse_config("schema = kglab-experiment-v1\nexperiment = phase-scan\nbox = pi\n")
    assert cfg.box == pytest.approx(math.pi)
    cfg = parse_config("schema = kglab-experiment-v1\nexperiment = phase-scan\nbox = 2.5pi\n")
    assert cfg.box == pytest.approx(2.5 * math.pi)
    # a bare sign means +-1, as an explicit 1 does
    for raw, want in (("-pi", -math.pi), ("+pi", math.pi), ("- pi", -math.pi),
                      ("-1pi", -math.pi), ("+2pi", 2 * math.pi)):
        cfg = parse_config(f"schema = {SCHEMA}\nexperiment = phase-scan\ncoeff_alpha = {raw}\n")
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
        ("experiment = phase-scan\nrule = gauss", "rule"),
        ("experiment = phase-scan\nsnapshot = true", "snapshot"),
        ("experiment = phase-scan\nbox = nan", "box must be finite"),
        ("experiment = phase-scan\nbox = 0", "box must be positive"),
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
