"""Command-line interface: verbs, exit codes, output routing."""

import argparse
import os

import pytest

import mvflow.solver
from mvflow import cli
from mvflow.configio import format_kv, read_spec
from mvflow.errors import CannotBoundError, MvflowError, SolverFailure, StepRejected
from mvflow.experiments import presets


def write_preset(tmp_path, name, **over):
    cfg = dict(presets()[name], **over)
    p = tmp_path / f"{name}.spec"
    p.write_text(format_kv(cfg))
    return str(p)


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_presets_lists_names(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out.split()
    assert "constant-state" in out
    assert "weak-strong-bump" in out


def test_presets_write_emits_parseable_specs(tmp_path, capsys):
    assert cli.main(["presets", "--write", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"{n}.spec" for n in presets())
    for p in tmp_path.iterdir():
        cfg = read_spec(str(p))
        assert cfg["schema"] == "1"


def _options(command):
    """The option strings a subcommand accepts, --help aside."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions
            for s in a.option_strings} - {"-h", "--help"}


def test_each_subcommand_takes_its_own_options():
    shared = {"--spec", "--out", "--seed", "--jobs"}
    assert _options("run") == shared
    assert _options("convergence") == shared | {"--levels"}
    assert _options("certify") == {"--spec", "--out"}
    assert _options("presets") == {"--write"}


@pytest.mark.parametrize("argv", [["certify", "--spec", "s.spec", "--seed", "1"],
                                  ["run", "--spec", "s.spec", "--levels", "8,16"]])
def test_an_option_of_another_subcommand_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "convergence"])
def test_jobs_is_accepted_and_ignored(monkeypatch, capsys, command):
    # the command gets the same call with and without --jobs
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise CannotBoundError("recorded")

    monkeypatch.setattr(cli, f"cmd_{command}", record)
    for jobs in ([], ["--jobs", "7"]):
        assert cli.main([command, "--spec", "s.spec", "--seed", "3", *jobs]) == 4
    assert calls[0] == calls[1]
    assert "jobs" not in calls[0][1]


def test_run_constant_state_exits_zero(tmp_path, capsys):
    spec = write_preset(tmp_path, "constant-state")
    rc = cli.main(["run", "--spec", spec, "--out", str(tmp_path / "out"),
                   "--jobs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "check energy: pass" in out
    assert "manifest_hash:" in out
    assert (tmp_path / "out" / "manifest.txt").exists()


def test_run_tabulated_preset_exits_zero(tmp_path, capsys):
    # a tabulated law runs through every stability check
    spec = write_preset(tmp_path, "weak-strong-tabulated")
    rc = cli.main(["run", "--spec", spec, "--out", str(tmp_path / "out"), "--jobs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for check in ("energy", "lemmas", "relative-energy", "gronwall"):
        assert f"check {check}: pass" in out


def test_run_failed_check_exits_four(tmp_path, capsys):
    spec = write_preset(tmp_path, "constant-state",
                        **{"tol.residual": "1e-30"})
    rc = cli.main(["run", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


def test_run_unknown_check_exits_two(tmp_path, capsys):
    spec = write_preset(tmp_path, "constant-state", checks="energy,enery")
    rc = cli.main(["run", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown check" in capsys.readouterr().err


def test_run_missing_spec_exits_two(tmp_path, capsys):
    rc = cli.main(["run", "--spec", str(tmp_path / "nope.spec")])
    assert rc == 2


def test_run_bad_schema_exits_two(tmp_path, capsys):
    p = tmp_path / "s.spec"
    p.write_text("schema = 9\nname = x\n")
    rc = cli.main(["run", "--spec", str(p)])
    assert rc == 2
    assert "unsupported" in capsys.readouterr().err


def test_env_var_routes_output(tmp_path, monkeypatch, capsys):
    spec = write_preset(tmp_path, "constant-state")
    dest = tmp_path / "env-out"
    monkeypatch.setenv("MVFLOW_OUT", str(dest))
    assert cli.main(["run", "--spec", spec]) == 0
    assert (dest / "manifest.txt").exists()


def test_flag_beats_env_var(tmp_path, monkeypatch, capsys):
    spec = write_preset(tmp_path, "constant-state")
    monkeypatch.setenv("MVFLOW_OUT", str(tmp_path / "env-out"))
    assert cli.main(["run", "--spec", spec, "--out",
                     str(tmp_path / "flag-out")]) == 0
    assert (tmp_path / "flag-out" / "manifest.txt").exists()
    assert not (tmp_path / "env-out").exists()


def test_seed_flag_changes_manifest(tmp_path, capsys):
    spec = write_preset(tmp_path, "constant-state")
    cli.main(["run", "--spec", spec, "--out", str(tmp_path / "a"),
              "--seed", "11"])
    h1 = [l for l in capsys.readouterr().out.splitlines()
          if l.startswith("manifest_hash")][0]
    cli.main(["run", "--spec", spec, "--out", str(tmp_path / "b"),
              "--seed", "12"])
    h2 = [l for l in capsys.readouterr().out.splitlines()
          if l.startswith("manifest_hash")][0]
    assert h1 != h2


def test_convergence_too_few_levels_exits_two(tmp_path, capsys):
    spec = write_preset(tmp_path, "convergence-pulse",
                        **{"solver.n_samples": "5", "solver.T": "0.02"})
    rc = cli.main(["convergence", "--spec", spec, "--levels", "16,32",
                   "--out", str(tmp_path / "out")])
    assert rc == 2


def test_convergence_writes_table(tmp_path, capsys):
    spec = write_preset(tmp_path, "convergence-pulse",
                        **{"solver.n_samples": "5", "solver.T": "0.02"})
    rc = cli.main(["convergence", "--spec", spec, "--levels", "8,16,32",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "continuity" in out
    assert (tmp_path / "out" / "convergence.csv").exists()


def test_certify_exits_zero_and_writes_csv(tmp_path, capsys):
    p = tmp_path / "c.spec"
    p.write_text(format_kv({"schema": "1", "name": "c", "law.kind": "power",
                            "law.a": "1.0", "law.gamma": "2.0",
                            "certify.r_min": "0.5", "certify.r_max": "2.0"}))
    rc = cli.main(["certify", "--spec", str(p), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    assert (tmp_path / "out" / "certificates.csv").exists()


def test_certify_env_var_routes_output(tmp_path, monkeypatch, capsys):
    # with no --out, MVFLOW_OUT beats the spec's out, as for run
    p = tmp_path / "c.spec"
    p.write_text(format_kv({"schema": "1", "name": "c", "law.kind": "power",
                            "law.a": "1.0", "law.gamma": "2.0",
                            "certify.r_min": "0.5", "certify.r_max": "2.0",
                            "out": str(tmp_path / "spec-out")}))
    monkeypatch.setenv("MVFLOW_OUT", str(tmp_path / "env-out"))
    assert cli.main(["certify", "--spec", str(p)]) == 0
    assert (tmp_path / "env-out" / "certificates.csv").exists()
    assert not (tmp_path / "spec-out").exists()


def test_certify_nonpositive_r_min_exits_two(tmp_path, capsys):
    p = tmp_path / "c.spec"
    p.write_text(format_kv({"schema": "1", "name": "c", "law.kind": "power",
                            "law.a": "1.0", "law.gamma": "2.0",
                            "certify.r_min": "-0.5", "certify.r_max": "2.0"}))
    rc = cli.main(["certify", "--spec", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("case", ["certify", "convergence"])
def test_failed_command_leaves_no_output_directory(tmp_path, capsys, case):
    if case == "certify":
        p = tmp_path / "c.spec"
        p.write_text(format_kv({"schema": "1", "name": "c", "law.kind": "power",
                                "law.a": "1.0", "law.gamma": "2.0",
                                "certify.r_min": "-0.5", "certify.r_max": "2.0"}))
        argv = ["certify", "--spec", str(p)]
    else:
        spec = write_preset(tmp_path, "convergence-pulse")
        argv = ["convergence", "--spec", spec, "--levels", "64,128"]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("case", ["solver", "reference"])
def test_failing_stacked_convergence_exits_three(tmp_path, monkeypatch, capsys, case):
    # every level and fine size run as one stack: a row's solver failure,
    # or a fine run at the vacuum floor, still ends the command with exit 3
    over = {"solver.n_samples": "5", "solver.T": "0.02"}
    if case == "solver":
        real_step = mvflow.solver.step

        def failing_step(rho, m, start, dts, cfg, cells, delta, rows=None):
            if len(rows) < 4:  # once the first row is done
                raise SolverFailure(f"rows {rows} stopped")
            return real_step(rho, m, start, dts, cfg, cells, delta, rows)

        monkeypatch.setattr(mvflow.solver, "step", failing_step)
    else:
        over["init.base"] = "1e-10"  # the fine run's density is below 10 * rho_floor
    spec = write_preset(tmp_path, "convergence-pulse", **over)
    out = tmp_path / "out"
    assert cli.main(["convergence", "--spec", spec, "--levels", "8,16,32",
                     "--out", str(out)]) == 3
    assert ("stopped" if case == "solver" else "near-vacuum") in capsys.readouterr().err
    assert not out.exists()


def test_solver_failure_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise SolverFailure("time step collapsed")
    monkeypatch.setattr(cli, "cmd_run", boom)
    rc = cli.main(["run", "--spec", "whatever.spec"])
    assert rc == 3
    assert "collapsed" in capsys.readouterr().err


def test_step_rejected_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise StepRejected(2.0e-3, 1.0e-3)
    monkeypatch.setattr(cli, "cmd_run", boom)
    rc = cli.main(["run", "--spec", "whatever.spec"])
    assert rc == 3
    assert "exceeds admissible dt_max" in capsys.readouterr().err


# README's exit-code table, one entry per MvflowError class
_EXIT_CODES = {
    "MvflowError": 2, "InvalidLawError": 2, "DomainError": 2,
    "InsufficientGridError": 2, "IncompatibleEnsembleError": 2,
    "ObservableDomainError": 2, "InvalidTestFunctionError": 2,
    "UnsupportedDimensionError": 2, "InvalidBandError": 2, "SpecParseError": 2,
    "SolverFailure": 3, "StepRejected": 3, "ReferenceInvalidError": 3,
    "CannotBoundError": 4, "CannotEstimateError": 4,
}


def _error_classes(cls=MvflowError):
    return [cls, *(sub for c in cls.__subclasses__() for sub in _error_classes(c))]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda c: c.__name__)
def test_every_error_exits_with_its_table_code(monkeypatch, capsys, error):
    assert error.__name__ in _EXIT_CODES, f"{error.__name__} is missing from the table"
    def boom(*a, **k):
        raise error(2.0e-3, 1.0e-3) if error is StepRejected else error("boom")
    monkeypatch.setattr(cli, "cmd_run", boom)
    assert cli.main(["run", "--spec", "whatever.spec"]) == _EXIT_CODES[error.__name__]


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_BUMP_NUMERIC_KEYS = sorted(k for k, v in presets()["weak-strong-bump"].items()
                            if k != "schema" and _is_number(v))


@pytest.mark.parametrize("key", _BUMP_NUMERIC_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_spec_value_exits_two(tmp_path, capsys, recwarn, key, value):
    spec = write_preset(tmp_path, "weak-strong-bump", **{key: value})
    rc = cli.main(["run", "--spec", spec, "--out", str(tmp_path / "out")])
    assert rc == 2
    # a law parameter is named through the law's own message
    err = capsys.readouterr().err
    assert f"'{key}'" in err or (key.startswith("law.") and "'law.*'" in err)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_unbounded_estimate_maps_to_exit_four(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise CannotBoundError("no certificate covers the data range")
    monkeypatch.setattr(cli, "cmd_run", boom)
    rc = cli.main(["run", "--spec", "whatever.spec"])
    assert rc == 4
