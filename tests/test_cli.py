"""Batch CLI: exit codes, tagged errors, report schema, byte determinism,
config-file precedence."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from exdev import cli, tilt_to_mean, weibull
from exdev.cli import build_parser, main
from exdev.conditional import epsilon_schedule
from exdev.errors import ValidationError

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "exdev" / "schema" / "report-v1.json"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- validation and exit codes ------------------------------------------------

def test_missing_subcommand(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 2
    assert err.startswith("ERROR ")


def test_unknown_density_is_config_invalid(capsys):
    code, _, err = run_cli(["tilt", "--density", "pareto"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


def test_weibull_without_k_is_config_missing(capsys):
    code, _, err = run_cli(["tilt", "--density", "weibull"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_MISSING:")


def test_bad_seed_rejected(capsys):
    code, _, err = run_cli(["tilt", "--density", "weibull", "--k", "3",
                            "--seed", "-1"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


def test_unknown_flag_rejected(capsys):
    code, _, err = run_cli(["tilt", "--no-such-flag", "1"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


def test_unrelated_flag_rejected(capsys):
    # tilt reads none of these; they must not slip into the report config
    code, _, err = run_cli(["tilt", "--density", "weibull", "--k", "3",
                            "--chains", "5", "--n-list", "1,2",
                            "--is-samples", "9"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


def test_unrelated_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "tilt.cfg"
    cfg.write_text("density = weibull\nk = 3\nchains = 5\n")
    code, _, err = run_cli(["tilt", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


def test_flag_prefix_is_not_expanded(capsys):
    # dlp has --n-list but no --n
    code, _, err = run_cli(["dlp", "--k", "2.5", "--n", "16"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


COMMON_FLAGS = {"config", "out", "seed", "density", "k", "terms"}
READS = {
    "tilt": {"t-min", "t-max", "t-count"},
    "edgeworth": {"mean-target", "n-list"},
    "tail": {"n", "a", "is-samples", "threads"},
    "gibbs-tv": {"n-list", "alpha", "chains", "steps", "burn-in", "stride"},
    "dlp": {"alpha", "n-list", "count", "delta"},
    "levelset": {"f", "dim", "a", "count", "marginal"},
    "equiv": {"n", "a-n", "alpha", "count"},
}


@pytest.mark.parametrize("experiment", sorted(READS))
def test_each_experiment_takes_only_its_flags(experiment, tmp_path, capsys):
    parser = build_parser()
    for flag in COMMON_FLAGS | READS[experiment]:
        args = parser.parse_args([experiment, f"--{flag}", "1"])
        assert getattr(args, flag.replace("-", "_")) == "1"
    unread = set().union(*READS.values()) - READS[experiment]
    for flag in sorted(unread):
        with pytest.raises(ValidationError):
            parser.parse_args([experiment, f"--{flag}", "1"])
        cfg = tmp_path / f"{flag}.cfg"
        cfg.write_text(f"density = weibull\nk = 3\n{flag} = 1\n")
        code, _, err = run_cli([experiment, "--config", str(cfg)], capsys)
        assert code == 2, flag
        assert err.startswith("ERROR CONFIG_INVALID:"), err


@pytest.mark.parametrize("experiment", sorted(READS))
def test_class_is_refused(experiment, tmp_path, capsys):
    # the density class is read off the terms; no experiment takes one
    code, _, err = run_cli([experiment, "--density", "weibull", "--k", "3",
                            "--class", "infinity"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:"), err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("density = weibull\nk = 3\nclass = infinity\n")
    code, _, err = run_cli([experiment, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:"), err


@pytest.mark.parametrize("terms", [
    "power:1:1", "power:1:0.5", "log:-1", "power:-1:3,power:1:2"])
def test_custom_terms_that_are_not_light_tailed_rejected(terms, tmp_path,
                                                         capsys):
    # g must be superlinear: an exp term, or a leading power x^p with p > 1
    # and a positive coefficient
    code, _, err = run_cli(["tilt", "--density", "custom", "--terms", terms,
                            "--t-count", "3", "--out",
                            str(tmp_path / "r")], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag", [
    (["tilt", "--density", "double-exp", "--k", "3"], "k"),
    (["tilt", "--density", "weibull", "--k", "3", "--terms", "power:1:2"],
     "terms"),
    (["tail", "--density", "weibull", "--k", "2", "--class", "infinity"],
     "class"),
    (["edgeworth", "--density", "custom", "--terms", "power:1:2.5",
      "--k", "3"], "k"),
    (["dlp", "--k", "2.5", "--terms", "power:1:2"], "terms"),
], ids=["double-exp-k", "weibull-terms", "weibull-class", "custom-k",
        "dlp-weibull-terms"])
def test_density_flag_the_density_does_not_read_rejected(args, flag,
                                                          tmp_path, capsys):
    _assert_refused_as_flag_and_config_key(args, flag, tmp_path, capsys)


def _assert_refused_as_flag_and_config_key(args, flag, tmp_path, capsys):
    out = tmp_path / "r"
    code, _, err = run_cli(args + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:") and flag in err, err
    assert list(tmp_path.iterdir()) == []
    # the same option from a config file
    experiment, *rest = args
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k[2:]} = {v}\n"
                           for k, v in zip(rest[::2], rest[1::2])))
    code, _, err = run_cli([experiment, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:") and flag in err, err


def test_dlp_reads_k_whatever_the_density(tmp_path, capsys):
    # the epsilon schedule reads k, so dlp keeps it for double-exp too
    code, _, err = run_cli(["dlp", "--density", "double-exp", "--k", "3",
                            "--n-list", "16", "--count", "1000",
                            "--out", str(tmp_path / "r")], capsys)
    assert code == 0, err
    assert json.loads((tmp_path / "r.json").read_text())["config"]["k"] == "3"


@pytest.mark.parametrize("args, flag", [
    (["tail", "--density", "weibull", "--k", "2", "--n", "10", "--a", "3",
      "--threads", "4"], "threads"),
    (["equiv", "--density", "weibull", "--k", "2.5", "--n", "32", "--a-n",
      "3.0", "--alpha", "0.9", "--count", "8000"], "alpha"),
], ids=["tail-threads-without-is-samples", "equiv-alpha-with-a-n"])
def test_input_that_does_nothing_rejected(args, flag, tmp_path, capsys):
    # threads serve only the IS oracle, and a-n replaces n^alpha
    _assert_refused_as_flag_and_config_key(args, flag, tmp_path, capsys)


def test_threads_default_to_the_cpus_this_process_may_run_on(monkeypatch):
    # one CPU in the affinity set of an 8-CPU machine: one thread, not eight
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._threads({}) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # where the OS has no mask
    assert cli._threads({}) == 8


@pytest.mark.parametrize("density", [["double-exp"], ["weibull", "--k", "2"]],
                         ids=["double-exp", "weibull"])
def test_tilt_below_the_regular_region_is_out_of_range(density, capsys):
    # psi is defined on u >= h(X_MIN_REGULAR) for every density
    code, _, err = run_cli(["tilt", "--density", *density, "--t-min", "0.5",
                            "--t-max", "100", "--t-count", "5"], capsys)
    assert code == 2
    assert err.startswith("ERROR OUT_OF_RANGE:"), err


def test_missing_config_file(capsys):
    code, _, err = run_cli(["tilt", "--config", "/nonexistent/x.cfg"], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_MISSING:")


def test_config_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = dlp\ndensity = weibull\nk = 2.5\n")
    code, _, err = run_cli(["tilt", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


def test_duplicate_config_key(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("density = weibull\ndensity = weibull\nk = 3\n")
    code, _, err = run_cli(["tilt", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("ERROR CONFIG_INVALID:")


def test_domain_error_exits_two(capsys):
    # k = 1 is outside the admissible tail range
    code, _, err = run_cli(["tilt", "--density", "weibull", "--k", "1.0"], capsys)
    assert code == 2
    assert err.startswith("ERROR ")


# --- version -------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "exdev 0.1.0 (report schema 1)" in capsys.readouterr().out


def test_unreachable_level_is_out_of_range(capsys):
    # m(t) ~ 1 + log t for double-exp, so levels above m(1e10) = 24.03 need
    # a tilt beyond the cap
    code, _, err = run_cli(["tail", "--density", "double-exp", "--n", "10",
                            "--a", "30"], capsys)
    assert code == 2
    assert err.startswith("ERROR OUT_OF_RANGE:")
    assert "24.02" in err
    code, _, _ = run_cli(["tail", "--density", "double-exp", "--n", "10",
                          "--a", "20"], capsys)
    assert code == 0


@pytest.mark.parametrize("args", [
    ["tilt", "--density", "weibull", "--k", "1.5", "--t-max", "3.6e7",
     "--t-count", "3"],
    ["tail", "--density", "weibull", "--k", "1.5", "--n", "10", "--a", "1e15"],
], ids=["tilt", "tail"])
def test_tilt_peak_past_2_pow_49_is_solved(args, capsys):
    # the tilt peaks lie near 5.8e14 and 1e15, past 2^49: the peak bracket
    # grows to the largest double, not to 1e15
    code, _, err = run_cli(args, capsys)
    assert code == 0, err


@pytest.mark.parametrize("args", [
    ["--f", "linear", "--dim", "3", "--a", "8", "--seed", "0"],
    ["--f", "identity", "--marginal", "positive", "--a", "3"],
])
def test_levelset_on_positive_marginal_runs(args, capsys):
    # the exact draws stay on the positive support: no DOMAIN error
    code, out, err = run_cli(["levelset", "--density", "weibull", "--k", "3",
                              "--count", "4000", *args], capsys)
    assert code == 0, err
    assert json.loads(out)["results"]["acceptance"] > 0.0


@pytest.mark.parametrize("a", ["1e12", "1e13", "1e15", "1e16"])
def test_levelset_draws_are_right_at_high_levels(a, capsys):
    # the tilted law in centered form: the draws' mean and spread are those
    # of the law, where the uncentered form gave f_std 3.6 s at 1e12 and
    # exited 3 with TABLE_BUILD_FAIL at 1e13 and 1e16
    count = 20_000
    code, out, err = run_cli(["levelset", "--density", "weibull", "--k",
                              "1.5", "--f", "identity", "--marginal",
                              "positive", "--a", a, "--count", str(count),
                              "--seed", "0"], capsys)
    assert code == 0, err
    results = json.loads(out)["results"]
    s = tilt_to_mean(weibull(1.5), float(a)).s
    assert abs(results["f_mean"] - float(a)) < 4.0 * s / count ** 0.5
    assert abs(results["f_std"] / s - 1.0) < 0.02


def test_levelset_window_comes_from_the_terms(capsys):
    # the default window's k is the largest power exponent; an exp term
    # (class Infinity) leaves no window
    args = ["levelset", "--density", "custom", "--f", "identity", "--a", "5",
            "--count", "4000", "--seed", "2", "--terms"]
    code, out, err = run_cli(args + ["power:1:2.5,log:-1.5"], capsys)
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["epsilon_n"] == epsilon_schedule(2.5, 2, 5.0).epsilon_n
    assert 0.0 < results["hit_fraction"] <= 1.0
    code, out, err = run_cli(args + ["power:1:2.5,exp:0.1:0.5"], capsys)
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["epsilon_n"] is None
    assert results["hit_fraction"] == "nan"


def test_levelset_level_below_mean_is_not_solvable(capsys):
    # same exit and tag as `tail --a 0.5`
    code, _, err = run_cli(["levelset", "--density", "weibull", "--k", "3",
                            "--f", "linear", "--dim", "3", "--a", "1.5",
                            "--count", "4000"], capsys)
    assert code == 2
    assert err.startswith("ERROR NOT_SOLVABLE:")
    # names the requested level and the mean of f, 3 x 0.893
    assert "1.5" in err and "2.67" in err


@pytest.mark.parametrize("args", [
    ["equiv", "--density", "weibull", "--k", "2.5", "--count", "0"],
    ["dlp", "--k", "2.5", "--count", "0"],
    ["levelset", "--density", "weibull", "--k", "3", "--a", "5",
     "--count", "0"],
    ["tail", "--density", "weibull", "--k", "2", "--is-samples", "-5"],
], ids=["equiv", "dlp", "levelset", "tail"])
def test_empty_or_negative_count_rejected(args, tmp_path, capsys):
    # no empty-sample crash (exit 3), NaN report or silently skipped oracle
    code, _, err = run_cli([*args, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert err.startswith("ERROR ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_warning_is_one_tagged_line(tmp_path):
    # lambda_n = 0.347 is far below its floor: the report is written and
    # flagged, and stderr carries one greppable line, no source echo
    proc = subprocess.run(
        [sys.executable, "-m", "exdev", "tail", "--density", "weibull",
         "--k", "2", "--n", "2", "--a", "1", "--out", str(tmp_path / "r")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("WARNING ASYMPTOTIC_RANGE: lambda_n = 0.347 < 5: "
                           "prefactor outside its working range, estimate "
                           "flagged\n")
    assert json.loads((tmp_path / "r.json").read_text())["results"][
        "lambda_ok"] is False


def test_low_weight_ess_is_one_tagged_line(tmp_path):
    # 2000 rows at n = 64 leave a weight ESS of 35.5: the report is written
    # unchanged, and stderr says once that the estimate rests on few draws
    proc = subprocess.run(
        [sys.executable, "-m", "exdev", "dlp", "--k", "2.5", "--n-list", "64",
         "--count", "2000", "--seed", "17", "--out", str(tmp_path / "r")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("WARNING ESS_LOW: weight ESS 35.5 of 2000 rows at "
                           "n=64 is below 100: the estimate rests on few "
                           "effective draws\n")
    assert (tmp_path / "r.json").exists()


def test_gibbs_tv_refuses_non_convex_exponent(capsys):
    # g = x^3 - 1.5 x^2 has g'' < 0 on x < 1/2: no log-concave pair law
    code, _, err = run_cli(["gibbs-tv", "--density", "custom", "--terms",
                            "power:1:3,power:-1.5:2", "--n-list", "4",
                            "--chains", "8", "--steps", "16", "--burn-in",
                            "8"], capsys)
    assert code == 2
    assert err.startswith("ERROR DOMAIN:")


def test_import_does_not_load_scipy_stats():
    # nor any scipy module: src imports its one scipy use where it runs
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, exdev; "
         "print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "exdev", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "exdev 0.1.0" in proc.stdout


# --- report shape -----------------------------------------------------------------

@pytest.fixture(scope="module")
def tilt_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "tiltrun"
    code = main(["tilt", "--density", "weibull", "--k", "3",
                 "--t-min", "10", "--t-max", "1000", "--t-count", "5",
                 "--out", str(out)])
    assert code == 0
    return out


def test_report_validates_against_schema(tilt_report):
    report = json.loads((tilt_report.parent / "tiltrun.json").read_text())
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(report, schema)
    assert report["schema_version"] == "1"
    assert report["experiment"] == "tilt"
    assert all(isinstance(v, str) for v in report["config"].values())


def test_report_contents_sane(tilt_report):
    report = json.loads((tilt_report.parent / "tiltrun.json").read_text())
    res = report["results"]
    assert res["skew_monotone_decreasing"] is True
    assert abs(res["final_m_dev"]) < 1e-3
    assert res["self_neglect_decreasing"] is True


def test_csv_output_format(tilt_report):
    raw = (tilt_report.parent / "tiltrun.csv").read_bytes()
    assert b"\r\n" not in raw  # unix line endings regardless of platform
    with open(tilt_report.parent / "tiltrun.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert len(rows) == 6
    float(rows[1][0])  # numeric cells round-trip


def test_stdout_json_when_no_out(capsys):
    code, out, _ = run_cli(["equiv", "--density", "weibull", "--k", "2.5",
                            "--n", "16", "--a-n", "2.0", "--count", "5000"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["experiment"] == "equiv"
    jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))


# --- determinism --------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    args = ["dlp", "--density", "weibull", "--k", "2.5", "--n-list", "16,64",
            "--count", "4000", "--seed", "3"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (tmp_path / "r1.json").read_bytes()
    b2 = (tmp_path / "r2.json").read_bytes()
    # reports differ only in the self-referential out path
    assert b1.replace(b"r1", b"rX") == b2.replace(b"r2", b"rX")
    same = tmp_path / "same"
    assert main(args + ["--out", str(same)]) == 0
    first = (tmp_path / "same.json").read_bytes()
    assert main(args + ["--out", str(same)]) == 0
    assert (tmp_path / "same.json").read_bytes() == first


def test_seed_changes_results(tmp_path):
    base = ["equiv", "--density", "weibull", "--k", "2.5", "--n", "16",
            "--a-n", "2.0", "--count", "5000"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    ra = json.loads((tmp_path / "a.json").read_text())
    rb = json.loads((tmp_path / "b.json").read_text())
    assert ra["results"]["p_exceedance"] != rb["results"]["p_exceedance"]
    assert ra["seed"] == 1 and rb["seed"] == 2


# --- config precedence ------------------------------------------------------------------

def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("# tilt sweep\nexperiment = tilt\ndensity = weibull\n"
                   "k = 2\nt-count = 4\n")
    out = tmp_path / "sweep"
    code, _, _ = run_cli(["tilt", "--config", str(cfg), "--k", "3",
                          "--t-min", "10", "--t-max", "100",
                          "--out", str(out)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "sweep.json").read_text())
    assert report["config"]["k"] == "3"       # flag wins
    assert report["config"]["t-count"] == "4"  # config wins over default
    with open(tmp_path / "sweep.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 4


def test_underscore_keys_normalized(tmp_path, capsys):
    cfg = tmp_path / "u.cfg"
    cfg.write_text("density = weibull\nk = 3\nt_count = 3\nt_min = 10\nt_max = 50\n")
    out = tmp_path / "norm"
    code, _, _ = run_cli(["tilt", "--config", str(cfg), "--out", str(out)],
                         capsys)
    assert code == 0
    with open(tmp_path / "norm.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3
