"""Suite runner determinism, report serialization, and the CLI front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from virfock import circle, cli
from virfock.cli import main
from virfock.reports import (
    VerificationReport,
    boolean_check,
    check,
    emit,
    reports_to_csv,
)
from virfock.suites import SuiteConfig, run_suite, suite_names
from virfock.virasoro import VirasoroElement, convexity_check

ALL_SUITES = (
    "circle-calculus",
    "convex-cones",
    "fock-ccr",
    "fock-central",
    "fock-vacuum",
    "symplectic-cones",
    "virasoro-cocycle",
    "virasoro-orbits",
    "virasoro-verma",
)


# ---------------------------------------------------------------------------
# run_suite


def test_suite_names_sorted_and_complete():
    assert tuple(suite_names()) == ALL_SUITES


def test_a_nan_residual_after_the_first_trial_fails_its_check(monkeypatch):
    real = circle.schwarzian_cocycle_residual
    calls = []

    def nan_on_the_second_call(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == 2 else real(*args, **kwargs)

    monkeypatch.setattr(circle, "schwarzian_cocycle_residual",
                        nan_on_the_second_call)
    rep = run_suite(SuiteConfig("virasoro-cocycle"))
    result = {c.check_id: c for c in rep.checks}["05-schwarzian-cocycle"]
    assert math.isnan(result.residual)
    assert not result.passed and not rep.all_passed


def test_virasoro_cocycle_suite_passes_with_defaults():
    rep = run_suite(SuiteConfig(suite="virasoro-cocycle"))
    assert len(rep.checks) >= 6
    assert rep.all_passed
    assert rep.num_failed == 0


def test_unknown_suite_lists_valid_names():
    with pytest.raises(KeyError) as exc:
        run_suite(SuiteConfig(suite="no-such-suite"))
    message = str(exc.value)
    for name in ALL_SUITES:
        assert name in message


def test_fock_vacuum_residual_decreases_with_cutoff():
    # the squeeze-c residual against the closed form is pure truncation
    # error, so doubling the cutoff twice must shrink it strictly
    residuals = []
    for N in (8, 32):
        rep = run_suite(SuiteConfig(suite="fock-vacuum", params={"N": N}))
        by_id = {c.check_id: c.residual for c in rep.checks}
        residuals.append(by_id["02-squeeze-c-analytic"])
    assert residuals[1] < residuals[0]


@pytest.mark.parametrize("N", [9, 39, 41, 81])
def test_fock_vacuum_oracle_agrees_at_odd_and_even_cutoffs(N):
    # the oracle stacks only the equations below the cutoff, so it no
    # longer forces a*(T e_1) F_{N-1} = 0 at odd N; below N = 40 the
    # closed-form check 02 still fails on the truncation error itself
    rep = run_suite(SuiteConfig(suite="fock-vacuum", params={"N": N}))
    failed = [c.check_id for c in rep.checks if not c.passed]
    assert failed == ([] if N >= 40 else ["02-squeeze-c-analytic"])


def test_identical_config_gives_identical_json():
    cfg = SuiteConfig(suite="virasoro-verma", seed=2026)
    first = run_suite(cfg).to_json(include_timestamp=False)
    second = run_suite(cfg).to_json(include_timestamp=False)
    assert first == second


def test_suite_order_does_not_change_reports():
    def texts(order):
        return {name: run_suite(SuiteConfig(suite=name))
                .to_json(include_timestamp=False) for name in order}

    forward = texts(["convex-cones", "virasoro-verma", "fock-vacuum"])
    backward = texts(["fock-vacuum", "virasoro-verma", "convex-cones"])
    assert forward == backward


# ---------------------------------------------------------------------------
# SuiteConfig validation


def test_config_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        SuiteConfig(suite="convex-cones", params={"wavelength": 3})


def test_config_rejects_nonpositive_parameter():
    with pytest.raises(ValueError):
        SuiteConfig(suite="fock-vacuum", params={"N": 0})


@pytest.mark.parametrize("value", [1.5, 16.0, True])
def test_config_rejects_non_integer_parameter(value):
    with pytest.raises(ValueError, match="positive integer"):
        SuiteConfig(suite="fock-vacuum", params={"N": value})


@pytest.mark.parametrize("key", ["M", "d"])
def test_config_rejects_parameters_no_suite_reads(key):
    with pytest.raises(ValueError, match="unknown config parameter"):
        SuiteConfig(suite="fock-vacuum", params={key: 3})


def test_config_params_default_to_the_suite_declaration():
    assert SuiteConfig(suite="virasoro-orbits").get("degree") == 48
    assert SuiteConfig(suite="fock-vacuum").get("N") == 40
    assert SuiteConfig(suite="fock-ccr", params={"cutoff": 16}).get("cutoff") == 16


def test_cli_verify_checks_every_target_before_running(tmp_path, capsys):
    # N is read by fock-vacuum but not by circle-calculus, the first suite
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": "fock-vacuum", "N": 16}))
    assert main(["verify", "all", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad config")
    assert "circle-calculus" in captured.err


def test_config_from_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"suite": "fock-vacuum", "seed": 99, "N": 16}))
    cfg = SuiteConfig.from_file(str(path))
    assert cfg.suite == "fock-vacuum"
    assert cfg.seed == 99
    assert cfg.params == {"N": 16}


# ---------------------------------------------------------------------------
# report serialization


def _tiny_report():
    checks = (
        check("01-alpha", "first anchor", 1.5e-10, 1e-9),
        check("02-beta", "second anchor", 3.0, 1e-9),
        boolean_check("03-gamma", "third anchor", True),
    )
    return VerificationReport(suite="demo", seed=5, checks=checks)


def test_empty_report_emits_header_only_csv():
    rep = VerificationReport(suite="demo", seed=0, checks=())
    assert reports_to_csv([rep]) == "suite,id,anchor,residual,tolerance,pass\n"


def test_csv_has_one_row_per_check_plus_header():
    rep = _tiny_report()
    lines = reports_to_csv([rep]).splitlines()
    assert len(lines) == len(rep.checks) + 1
    assert lines[0] == "suite,id,anchor,residual,tolerance,pass"
    assert lines[1].startswith("demo,01-alpha,first anchor,")
    assert lines[2].endswith(",false")


def test_json_round_trip_preserves_values():
    rep = _tiny_report()
    data = json.loads(rep.to_json(include_timestamp=False))
    assert data["suite"] == "demo"
    assert data["seed"] == 5
    assert data["all_passed"] is False
    assert [c["id"] for c in data["checks"]] == ["01-alpha", "02-beta",
                                                 "03-gamma"]
    assert data["checks"][0]["residual"] == 1.5e-10
    assert data["checks"][0]["tolerance"] == 1e-9
    assert data["checks"][0]["pass"] is True
    assert data["checks"][1]["pass"] is False


def test_boolean_checks_use_the_uniform_residual_rule():
    holds = boolean_check("01", "anchor", True)
    fails = boolean_check("02", "anchor", False)
    assert (holds.residual, holds.tolerance, holds.passed) == (0.0, 0.5, True)
    assert (fails.residual, fails.tolerance, fails.passed) == (1.0, 0.5, False)


def test_check_reduces_a_batch_to_its_largest_value_floored_at_zero():
    assert check("01", "a", [], 1.0).residual == 0.0
    assert check("01", "a", [-1.0], 1.0).residual == 0.0
    assert repr(check("01", "a", [-0.0], 1.0).residual) == "0.0"
    scalar = check("01", "a", 2.5, 3.0)
    assert (scalar.residual, scalar.passed) == (2.5, True)
    rows = check("01", "a", [(1.0, 4.0), (2.0, -3.0)], 3.0)
    assert (rows.residual, rows.passed) == (4.0, False)


@pytest.mark.parametrize("residuals", [[0.0, math.nan], [math.nan, 0.0],
                                       [-1.0, math.nan], math.nan,
                                       [(1.0, 0.0), (0.0, math.nan)]])
def test_a_nan_anywhere_in_the_batch_fails(residuals):
    result = check("01", "a", residuals, 1.0)
    assert math.isnan(result.residual) and not result.passed


def test_checks_are_ordered_by_id():
    rep = VerificationReport(
        suite="demo", seed=0,
        checks=(check("02-b", "a", 0.0, 1.0), check("01-a", "a", 0.0, 1.0)))
    assert [c.check_id for c in rep.checks] == ["01-a", "02-b"]


def test_emit_writes_the_requested_file(tmp_path):
    rep = _tiny_report()
    path = tmp_path / "report.csv"
    text = emit([rep], "csv", path=str(path))
    assert path.read_text(encoding="utf-8") == text


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([_tiny_report()], "yaml")


# ---------------------------------------------------------------------------
# the command-line interface, in process


def test_cli_list_shows_every_suite(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_SUITES:
        assert name in out


def test_cli_verify_emits_a_json_report(capsys):
    rc = main(["verify", "virasoro-verma", "--no-timestamp"])
    captured = capsys.readouterr()
    assert rc == 0
    data = json.loads(captured.out)
    assert data["suite"] == "virasoro-verma"
    assert data["all_passed"] is True
    assert "timestamp" not in data
    assert "[PASS]" in captured.err


def test_cli_verify_unknown_suite_is_a_usage_error(capsys):
    rc = main(["verify", "no-such-suite"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "valid suites" in err
    assert "circle-calculus" in err


def test_cli_verify_without_suite_is_a_usage_error(capsys):
    assert main(["verify"]) == 2


def test_cli_verify_csv_report_to_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    rc = main(["verify", "convex-cones", "--format", "csv",
               "--out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert path.read_text(encoding="utf-8") == out
    lines = out.splitlines()
    assert lines[0] == "suite,id,anchor,residual,tolerance,pass"
    assert len(lines) >= 9
    assert all(line.endswith(",true") for line in lines[1:])


def test_cli_verify_reads_config_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": "virasoro-verma", "seed": 7}))
    rc = main(["verify", "--config", str(path), "--no-timestamp"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["seed"] == 7


def test_cli_verify_bad_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 7}))
    assert main(["verify", "--config", str(path)]) == 2
    assert "bad config" in capsys.readouterr().err


NOT_A_CONFIG = "a config must be a JSON object with a string 'suite' key"
SEED = "seed must be a non-negative integer"
UNKNOWN = "unknown config parameter 'tol_scale'"


@pytest.mark.parametrize("text,message",
                         [('[1, 2]', NOT_A_CONFIG),
                          ('{"suite": "fock-vacuum", "seed": [1]}', SEED),
                          ('{"suite": "fock-vacuum", "tol_scale": null}', UNKNOWN),
                          ('{"suite": ["fock-vacuum"]}', NOT_A_CONFIG),
                          ('{"suite": "virasoro-verma", "seed": 7.9}', SEED),
                          ('{"suite": "virasoro-verma", "seed": "7"}', SEED),
                          ('{"suite": "virasoro-verma", "seed": true}', SEED),
                          ('{"suite": "virasoro-verma", "seed": -1}', SEED),
                          ('{"suite": "virasoro-verma", "tol_scale": "1e300"}', UNKNOWN),
                          ('{"suite": "virasoro-verma", "tol_scale": NaN}', UNKNOWN),
                          ('{"suite": "virasoro-verma", "tol_scale": Infinity}', UNKNOWN),
                          ('{"suite": "virasoro-verma", "tol_scale": 1e400}', UNKNOWN),
                          ('{"suite": "virasoro-verma", "tol_scale": 1'
                           + '0' * 400 + '}', UNKNOWN),
                          ('{"suite": "virasoro-verma", "tol_scale": 1.0}', UNKNOWN),
                          ('{}', NOT_A_CONFIG),
                          ('null', NOT_A_CONFIG),
                          ('7', NOT_A_CONFIG),
                          ('{"suite": {"a": 1}}', NOT_A_CONFIG)],
                         ids=["list", "seed-list", "tol-scale-null", "suite-list",
                              "seed-float", "seed-string", "seed-bool",
                              "seed-negative", "tol-scale-string",
                              "tol-scale-nan", "tol-scale-inf",
                              "tol-scale-overflow", "tol-scale-huge-int",
                              "tol-scale-one", "empty-object", "null", "number",
                              "suite-object"])
def test_cli_verify_malformed_config_is_a_usage_error(tmp_path, capsys, text,
                                                      message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad config: ") and message in err


def _exit_code(argv):
    """Exit code of ``main(argv)``, also when argparse exits on its own."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_cli_verify_nonpositive_tol_scale_is_a_usage_error(capsys):
    # verify has no tolerance scale: argparse rejects the flag
    assert _exit_code(["verify", "fock-vacuum", "--tol-scale", "0"]) == 2
    assert "unrecognized arguments: --tol-scale 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,prefix",
                         [("--tol-scale", "nan", "usage:"),
                          ("--tol-scale", "inf", "usage:"),
                          ("--tol-scale", "-inf", "usage:"),
                          ("--seed", "-1", "bad config")],
                         ids=["--tol-scale-nan", "--tol-scale-inf",
                              "--tol-scale--inf", "--seed--1"])
def test_cli_verify_out_of_range_flag_is_a_usage_error(capsys, flag, value,
                                                        prefix):
    assert _exit_code(["verify", "virasoro-verma", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert flag.lstrip("-") in captured.err


def test_cli_verify_exit_one_on_failures(tmp_path, capsys):
    # a one-state Weyl truncation is too coarse for the vacuum coefficient
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": "fock-ccr", "N": 1}))
    rc = main(["verify", "--config", str(path), "--no-timestamp"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["all_passed"] is False
    failed = [c["id"] for c in data["checks"] if not c["pass"]]
    assert "07-weyl-coefficient" in failed


def test_cli_verify_exit_one_on_fock_vacuum_truncation_error(tmp_path, capsys):
    # at N = 16 c(g) misses 1/sqrt(cosh r) by 8e-4, past the 1e-6 tolerance
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"suite": "fock-vacuum", "N": 16}))
    rc = main(["verify", "--config", str(path), "--no-timestamp"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    failed = [c["id"] for c in data["checks"] if not c["pass"]]
    assert failed == ["02-squeeze-c-analytic"]


def test_cli_orbit_projection_curve(capsys):
    rc = main(["orbit", "--curve", "projection", "--steps", "4",
               "--degree", "32"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "s,beta,alpha"
    assert len(lines) == 5
    s_col = [float(line.split(",")[0]) for line in lines[1:]]
    assert s_col == pytest.approx([0.05, 0.1, 0.15, 0.2])
    for line in lines[1:]:
        _, beta, alpha = (float(v) for v in line.split(","))
        assert alpha > 1.0
        assert beta > 0.0


def test_cli_orbit_rejects_flows_past_invertibility(capsys):
    rc = main(["orbit", "--curve", "projection", "--n", "3",
               "--smax", "0.5"])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--smax", "inf"], ["--smax=-inf"],
                                   ["--steps", "0"], ["--steps", "-2"],
                                   ["--curve", "convexity", "--trials", "0"],
                                   ["--beta", "nan"], ["--alpha", "inf"],
                                   ["--degree", "100000"], ["--degree", "2"],
                                   ["--n", "0"], ["--smax", "1e300"],
                                   ["--steps", "1001"],
                                   ["--curve", "convexity", "--trials", "1001"],
                                   ["--curve", "convexity", "--alpha", "0"],
                                   ["--curve", "convexity", "--alpha", "-1"],
                                   # finite flags whose curve overflows
                                   ["--alpha", "1e306"], ["--alpha", "1e308"],
                                   ["--curve", "convexity", "--alpha", "1e308",
                                    "--trials", "2"]],
                         ids=" ".join)
@pytest.mark.filterwarnings("error")
def test_cli_orbit_out_of_range_flag_is_a_usage_error(capsys, flags):
    assert main(["orbit", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("orbit parameters out of range")


@pytest.mark.parametrize("args", [["verify", "virasoro-verma"],
                                  ["orbit", "--steps", "1"]],
                         ids=lambda args: args[0])
def test_cli_unwritable_out_path_is_a_usage_error(tmp_path, capsys, args):
    path = tmp_path / "missing" / "report.txt"
    assert main([*args, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"cannot write {path}: No such file or directory")
    assert not path.parent.exists()


def test_cli_verify_checks_the_out_path_before_running_any_suite(
        tmp_path, capsys, monkeypatch):
    def no_suite_may_run(cfg):
        raise AssertionError(f"suite {cfg.suite} ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", no_suite_may_run)
    path = tmp_path / "missing" / "report.json"
    assert main(["verify", "all", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {path}: No such file or directory\n"


def test_cli_orbit_rejects_a_huge_smax_by_name(capsys):
    assert main(["orbit", "--smax", "1e300"]) == 2
    assert "--smax must be in [-10, 10]" in capsys.readouterr().err


def test_cli_orbit_rejects_mode_zero_by_name(capsys):
    # the direction d_0 - d_0 is the zero field; the message names the flag
    assert main(["orbit", "--n", "0"]) == 2
    assert "--n must be nonzero" in capsys.readouterr().err


def test_cli_orbit_convexity_margins(capsys):
    rc = main(["orbit", "--curve", "convexity", "--trials", "5",
               "--degree", "32", "--beta", "0.0", "--alpha", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "trial,beta_margin,alpha_margin"
    assert len(lines) == 6
    for line in lines[1:]:
        _, beta_margin, _ = line.split(",")
        assert float(beta_margin) >= -1e-8


def test_cli_orbit_convexity_prints_the_margins_of_convexity_check(capsys):
    # the curve draws what virasoro-orbits/04 checks, trial by trial
    assert main(["orbit", "--curve", "convexity", "--trials", "5",
                 "--degree", "32"]) == 0
    rep = convexity_check(VirasoroElement.cartan(0.0, 1.0, 32), 5,
                          np.random.default_rng(12345), 32)
    want = ["trial,beta_margin,alpha_margin"] + [
        f"{t},{float(b)!r},{float(a)!r}" for t, (b, a) in
        enumerate(zip(rep["beta_margins"], rep["alpha_margins"]))]
    assert capsys.readouterr().out.splitlines() == want


def test_cli_gram_prints_exact_fractions(capsys):
    rc = main(["gram", "--level", "2", "--c", "1/2", "--h", "1/16"])
    out = capsys.readouterr().out
    assert rc == 0
    for entry in ("1/2", "3/8", "9/32"):
        assert entry in out


def test_cli_gram_bad_rational_is_a_usage_error(capsys):
    assert main(["gram", "--c", "one-half"]) == 2


def test_cli_gram_rejects_out_of_range_level(capsys):
    assert main(["gram", "--level", "9"]) == 2


# ---------------------------------------------------------------------------
# module entry point wiring


def _run_python(*args):
    """`python ...` in a child that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def _run_module(*args):
    """`python -m virfock ...` in a child that imports this checkout."""
    return _run_python("-m", "virfock", *args)


def test_importing_the_package_loads_every_module():
    # the benchmark times `import virfock` as setup; a lazy package would
    # move the module imports into the first timed pass.  scipy.optimize
    # would add about a third to that import, and no module needs it.
    proc = _run_python("-c", "import sys, virfock; print(' '.join(sorted("
                       "m for m in sys.modules if m.startswith('virfock.')))); "
                       "print('scipy.optimize' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    modules, optimize_loaded = proc.stdout.splitlines()
    assert modules.split() == [
        f"virfock.{m}" for m in ("circle", "convexcore", "fock", "realmaps",
                                 "reports", "suites", "symplectic", "virasoro")]
    assert optimize_loaded == "False"


def test_module_entry_point_runs_a_suite():
    proc = _run_module("verify", "virasoro-verma", "--no-timestamp")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["all_passed"] is True


def test_module_entry_point_usage_error_code():
    proc = _run_module("verify", "no-such-suite")
    assert proc.returncode == 2


@pytest.mark.parametrize("config", [{"suite": "fock-vacuum", "N": 1.5},
                                    {"suite": "fock-vacuum", "M": 3},
                                    {"suite": "fock-ccr", "trials": 3},
                                    {"suite": "fock-ccr", "cutoff": 1},
                                    {"suite": "virasoro-verma", "max_level": 7},
                                    {"suite": "fock-vacuum", "N": 1},
                                    {"suite": "virasoro-orbits", "degree": 1},
                                    # sample counts are literals, not params
                                    {"suite": "convex-cones", "trials": 50},
                                    {"suite": "virasoro-cocycle", "trials": 50},
                                    {"suite": "virasoro-orbits", "trials": 30},
                                    {"suite": "symplectic-cones", "trials": 100}])
def test_module_entry_point_bad_parameter_is_a_usage_error(tmp_path, capsys,
                                                          config):
    # `python -m virfock` only calls `cli.main`, whose wiring the two tests
    # above cover in a child interpreter; the bad values run in process
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err
    assert "Traceback" not in err
