"""End-to-end tests of the command-line interface, run in process."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import proxdyn.cli as cli
from proxdyn import IntegrationAborted

ZERO_QUAD = {"name": "zero_quad", "Q": [[1.0]], "b": [0.0]}
LASSO = {"name": "lasso", "M": [[1.0]], "y": [1.0], "mu": 0.5}


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _run_config(tmp_path, **overrides):
    # gamma = 1, lambda = 0.01 is feasible; v0 sits on the fast eigenvector
    # of x'' + x' + 0.01 x = 0, so x(t) = 2 exp(-0.98995 t) and the t = 15
    # residual is under 1e-6
    cfg = {
        "problem": ZERO_QUAD,
        "gamma": 1.0,
        "lambda": 0.01,
        "u0": [2.0],
        "v0": [-1.9797958971132712],
        "t_end": 15.0,
        "h": 0.001,
    }
    cfg.update(overrides)
    return _write_json(tmp_path / "config.json", cfg)


# -- check-params -------------------------------------------------------


def test_check_params_json_values(capsys):
    rc = cli.main(["check-params", "--gamma", "2", "--lambda", "0.05",
                   "--beta", "2", "--json"])
    assert rc == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert abs(report["L1"] - 3.0) <= 1e-12
    assert abs(report["L2"] - math.sqrt(9.2)) <= 1e-12
    assert report["rho_feasible"] is False
    assert report["m"] is None
    assert "warning" in err


def test_check_params_feasible_point_is_quiet(capsys):
    rc = cli.main(["check-params", "--gamma", "1", "--lambda", "0.005",
                   "--beta", "3", "--json"])
    assert rc == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["rho_feasible"] is True
    assert report["corollary_feasible"] is True
    assert report["m"] < 0.0
    assert err == ""


def test_check_params_text_output(capsys):
    rc = cli.main(["check-params", "--gamma", "1", "--lambda", "0.005",
                   "--beta", "3"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert "gamma = 1.0" in out
    assert "rho_feasible = True" in out


def test_check_params_missing_flag(capsys):
    rc = cli.main(["check-params", "--gamma", "2"])
    assert rc == 1
    _, err = capsys.readouterr()
    assert "missing required argument --lambda" in err


def test_check_params_invalid_value(capsys):
    rc = cli.main(["check-params", "--gamma", "0", "--lambda", "0.1",
                   "--beta", "1"])
    assert rc == 1
    _, err = capsys.readouterr()
    assert "error:" in err


def test_check_params_config_merge_and_override(tmp_path, capsys):
    cfg = _write_json(tmp_path / "p.json",
                      {"gamma": 2.0, "lambda": 0.05, "beta": 2.0})
    rc = cli.main(["check-params", "--config", cfg, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gamma"] == 2.0 and report["beta"] == 2.0
    rc = cli.main(["check-params", "--config", cfg, "--beta", "0", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beta"] == 0.0
    assert report["rho_feasible"] is True


# -- run ----------------------------------------------------------------


def test_run_writes_all_outputs(tmp_path, capsys):
    cfg = _run_config(tmp_path)
    out_dir = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(out_dir), "--json"])
    assert rc == 0
    for name in ("trajectory.csv", "energy.csv", "rates.json", "summary.json"):
        assert (out_dir / name).is_file(), name
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary) == {"params", "final_residual", "final_velocity_norm",
                            "energy_monotone", "rate_report", "warnings"}
    assert summary["energy_monotone"] is True
    assert summary["final_residual"] < 1e-3
    assert summary["warnings"] == []
    stdout_summary = json.loads(capsys.readouterr().out)
    assert stdout_summary == summary


def test_run_respects_output_subset(tmp_path):
    cfg = _run_config(tmp_path, outputs=["summary"], t_end=1.0)
    out_dir = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "summary.json").is_file()
    assert not (out_dir / "trajectory.csv").exists()
    assert not (out_dir / "energy.csv").exists()
    assert not (out_dir / "rates.json").exists()


def test_run_is_deterministic_with_seeded_initial_state(tmp_path):
    cfg = {
        "problem": ZERO_QUAD,
        "gamma": 1.0,
        "lambda": 0.01,
        "seed": 7,
        "t_end": 2.0,
        "h": 0.001,
    }
    path = _write_json(tmp_path / "seeded.json", cfg)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert cli.main(["run", "--config", path, "--out-dir", str(d)]) == 0
    for name in ("trajectory.csv", "energy.csv", "rates.json", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_rates_round_trip_matches_run(tmp_path, capsys):
    cfg = _run_config(tmp_path)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    rc = cli.main(["rates", "--traj", str(out_dir / "trajectory.csv"), "--json"])
    assert rc == 0
    from_csv = json.loads(capsys.readouterr().out)
    stored = json.loads((out_dir / "rates.json").read_text())
    assert from_csv == stored


def test_run_requires_config(capsys):
    rc = cli.main(["run"])
    assert rc == 1
    assert "requires --config" in capsys.readouterr().err


def test_run_missing_config_key(tmp_path, capsys):
    cfg = _write_json(tmp_path / "c.json", {"problem": ZERO_QUAD})
    rc = cli.main(["run", "--config", cfg])
    assert rc == 1
    assert "missing config key" in capsys.readouterr().err


@pytest.mark.parametrize("outputs, message", [
    (["trajectory", "bogus"],
     "unknown outputs ['bogus']; choose from ['trajectory', 'energy', 'rates', 'summary']"),
    # an object was taken as its keys, a string as its letters
    ({"trajectory": 1}, "outputs must be a list of names, got {'trajectory': 1}"),
    ("trajectory", "outputs must be a list of names, got 'trajectory'"),
    (5, "outputs must be a list of names, got 5"),
    (["trajectory", 1], "outputs must be a list of names, got ['trajectory', 1]"),
], ids=["unknown", "object", "string", "number", "number_in_list"])
def test_run_rejects_unknown_outputs(tmp_path, capsys, outputs, message):
    cfg = _run_config(tmp_path, outputs=outputs)
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "o").exists()


def test_run_rejects_step_beyond_guard(tmp_path, capsys):
    cfg = _run_config(tmp_path, h=2.0)
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "stability guard" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("t_end", math.inf), ("t_end", math.nan), ("h", math.nan)])
def test_run_rejects_non_finite_t_end_or_h(tmp_path, capsys, key, value):
    cfg = _run_config(tmp_path, **{key: value})  # json writes Infinity and NaN, and reads them back
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: %s must be finite, got %r\n" % (key, value)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value, shown", [(2.5, "2.5"), (True, "True"), (0, "0")])
def test_run_rejects_a_sample_every_that_is_not_a_count(tmp_path, capsys, value, shown):
    cfg = _run_config(tmp_path, t_end=0.1, sample_every=value)
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: sample_every must be a positive integer, got %s\n" % shown


def test_run_rejects_a_sample_every_beyond_the_step_count(tmp_path, capsys):
    # it used to run 1000 steps for the 100 of t_end / h
    cfg = _run_config(tmp_path, t_end=0.1, sample_every=1000)
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: sample_every=1000 exceeds the run's 100 steps\n"


def _integer_key_argv(tmp_path, key, value):
    """A command whose config sets ``key`` to ``value``, and which runs when that is 2."""
    out = ["--out-dir", str(tmp_path / "o")]
    if key == "seed":
        return ["run", "--config", _run_config(tmp_path, t_end=0.1, seed=value)] + out
    if key == "dim":
        cfg = {"problem": {"name": "cos_quad", "dim": value}, "gamma": 1.0, "lambda": 0.01,
               "t_end": 0.1, "h": 0.001}
        return ["run", "--config", _write_json(tmp_path / "config.json", cfg)] + out
    if key == "max_iter":
        cfg = {"problem": LASSO, "lambda": 0.5, "gamma": 2.0, "x0": [0.0], "max_iter": value}
        return ["discrete", "--config", _write_json(tmp_path / "config.json", cfg)] + out
    cfg = {"beta": 1.0, key: value}  # gamma_count or lambda_count
    return ["sweep", "--config", _write_json(tmp_path / "config.json", cfg)] + out


_INTEGER_KEYS = {"seed": "a nonnegative integer", "dim": "a positive integer",
                 "max_iter": "a positive integer", "gamma_count": "a positive integer",
                 "lambda_count": "a positive integer"}


@pytest.mark.parametrize("key", sorted(_INTEGER_KEYS))
@pytest.mark.parametrize("value", [2.5, True, "2", math.nan])
def test_integer_keys_are_not_coerced(tmp_path, capsys, key, value):
    rc = cli.main(_integer_key_argv(tmp_path, key, value))
    assert rc == 1
    assert capsys.readouterr().err == "error: %s must be %s, got %r\n" % (key, _INTEGER_KEYS[key], value)


@pytest.mark.parametrize("key", sorted(_INTEGER_KEYS))
def test_integer_keys_take_an_integral_float(tmp_path, capsys, key):
    assert cli.main(_integer_key_argv(tmp_path, key, 2.0)) == 0
    assert "error" not in capsys.readouterr().err


# the real keys of each config route, each with what its error says a value must be
_REAL_KINDS = {"positive": "a positive finite real", "nonnegative": "a nonnegative finite real",
               "finite": "a finite real"}
_RUN_REAL_KEYS = {"gamma": "positive", "lambda": "positive", "t_end": "finite", "h": "finite",
                  "u0": "vector", "v0": "vector", "x_limit": "vector", "t0": "finite",
                  "converged_tol": "nonnegative"}
_REAL_KEYS = {
    "check-params": {"gamma": "positive", "lambda": "positive", "beta": "nonnegative"},
    "discrete": {"lambda": "positive", "gamma": "positive", "tol": "nonnegative", "x0": "vector",
                 "x1": "vector"},
    "rates": {"x_limit": "vector", "t0": "finite", "converged_tol": "nonnegative"},
    "sweep": {"beta": "nonnegative", "gamma_min": "finite", "gamma_max": "finite",
              "lambda_min": "finite", "lambda_max": "finite"},
    "run": _RUN_REAL_KEYS,
    "sweep template": _RUN_REAL_KEYS,
}


def _real_key_argv(tmp_path, route, key, value):
    """A command whose ``route`` config sets ``key`` to ``value`` and is valid otherwise."""
    out = ["--out-dir", str(tmp_path / "o")]
    run_cfg = {"problem": ZERO_QUAD, "gamma": 1.0, "lambda": 0.01, "u0": [1.0], "v0": [0.0],
               "t_end": 0.1, "h": 0.01, key: value}
    if route == "run":
        return ["run", "--config", _write_json(tmp_path / "config.json", run_cfg)] + out
    if route == "sweep template":
        template = _write_json(tmp_path / "template.json", run_cfg)
        return ["sweep", "--beta", "0", "--gamma-count", "1", "--lambda-count", "1",
                "--run-config", template] + out
    cfg = {
        "check-params": {"gamma": 1.0, "lambda": 0.02, "beta": 1.0},
        "discrete": {"problem": LASSO, "lambda": 0.5, "gamma": 2.0, "x0": [0.0]},
        "rates": {"traj": "trajectory.csv"},
        "sweep": {"beta": 1.0, "gamma_count": 2, "lambda_count": 2},
    }[route]
    return [route, "--config", _write_json(tmp_path / "config.json", dict(cfg, **{key: value}))] + out


@pytest.mark.parametrize("route, key", [(route, key) for route, keys in _REAL_KEYS.items() for key in keys])
@pytest.mark.parametrize("value", [True, "0.5"])
def test_real_keys_are_not_coerced(tmp_path, capsys, route, key, value):
    kind = _REAL_KEYS[route][key]
    if kind == "vector":  # a list holding the value, as in "u0": ["1.5"]
        argv = _real_key_argv(tmp_path, route, key, [value])
        message = "each entry of %s must be a finite real, got %r" % (key, value)
    else:
        argv = _real_key_argv(tmp_path, route, key, value)
        message = "%s must be %s, got %r" % (key, _REAL_KINDS[kind], value)
    rc = cli.main(argv)
    assert rc == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("route", list(_REAL_KEYS))
def test_real_key_configs_run_with_a_valid_value(tmp_path, capsys, route):
    key, value = {"check-params": ("beta", 1), "discrete": ("x1", [0.0]), "rates": ("t0", "auto"),
                  "sweep": ("gamma_min", 1), "run": ("x_limit", 0.0), "sweep template": ("t0", 0.05)}[route]
    if route == "rates":  # the config's traj, relative to the config file
        assert cli.main(["run", "--config", _run_config(tmp_path, t_end=2.0), "--out-dir", str(tmp_path)]) == 0
    assert cli.main(_real_key_argv(tmp_path, route, key, value)) == 0, capsys.readouterr().err


@pytest.mark.parametrize("route", ["flag", "rates config", "run config"])
def test_a_nan_converged_tol_is_rejected(tmp_path, capsys, route):
    cfg = _run_config(tmp_path, t_end=2.0)
    assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    traj = str(tmp_path / "trajectory.csv")
    argv = {
        "flag": ["rates", "--traj", traj, "--converged-tol", "nan"],
        "rates config": ["rates", "--config", _write_json(tmp_path / "r.json", {"traj": traj,
                                                                               "converged_tol": math.nan})],
        "run config": ["run", "--config", _run_config(tmp_path, t_end=2.0, converged_tol=math.nan),
                       "--out-dir", str(tmp_path / "o")],
    }[route]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: converged_tol must be a nonnegative finite real, got nan\n")


def test_run_infeasible_parameters_warn_but_succeed(tmp_path, capsys):
    cfg = _run_config(tmp_path, gamma=2.0, **{"lambda": 0.5}, t_end=2.0, h=0.01,
                      u0=[1.0])
    out_dir = tmp_path / "o"
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    assert "feasibility" in capsys.readouterr().err
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["params"]["rho_feasible"] is False
    assert any("feasibility" in w for w in summary["warnings"])


def test_run_numerical_abort_exits_two(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise IntegrationAborted(t=0.4, step_index=1)

    monkeypatch.setattr(cli.dynamics, "integrate", explode)
    cfg = _run_config(tmp_path, t_end=1.0)
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "numerical abort" in capsys.readouterr().err


# -- discrete -----------------------------------------------------------


def test_discrete_end_to_end(tmp_path, capsys):
    rc = cli.main([
        "discrete", "--problem", json.dumps(LASSO), "--lambda", "0.5",
        "--gamma", "2", "--x0", "0", "--out-dir", str(tmp_path), "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["iterations"] < 100
    assert payload["final_residual"] <= 1e-8
    data = np.loadtxt(tmp_path / "history.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == payload["iterations"] + 1
    assert abs(data[-1, 1] - 0.5) <= 1e-7


def test_discrete_problem_file_and_config_defaults(tmp_path, capsys):
    prob = _write_json(tmp_path / "prob.json", LASSO)
    cfg = _write_json(tmp_path / "cfg.json", {
        "problem": os.path.basename(prob), "lambda": 0.5, "gamma": 2.0,
        "x0": [0.0], "tol": 1e-6, "out": "iters.csv",
    })
    rc = cli.main(["discrete", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "iters.csv").is_file()
    assert "converged" in capsys.readouterr().out


def test_discrete_divergence_exits_two(tmp_path, capsys):
    rc = cli.main([
        "discrete", "--problem",
        json.dumps({"name": "zero_quad", "Q": [[10.0]], "b": [0.0]}),
        "--lambda", "1.0", "--gamma", "1.0", "--x0", "1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "numerical abort" in capsys.readouterr().err


def test_discrete_missing_problem(capsys):
    rc = cli.main(["discrete", "--lambda", "0.5", "--gamma", "1", "--x0", "0"])
    assert rc == 1
    assert "missing required argument --problem" in capsys.readouterr().err


def test_discrete_zero_max_iter_is_rejected(tmp_path, capsys):
    rc = cli.main(["discrete", "--problem", json.dumps(LASSO), "--lambda", "0.5",
                   "--gamma", "2", "--x0", "0", "--max-iter", "0",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "max_iter must be a positive integer, got 0" in capsys.readouterr().err


def test_discrete_zero_tol_is_honoured(tmp_path, capsys):
    base = ["discrete", "--problem", json.dumps(LASSO), "--lambda", "0.5",
            "--gamma", "2", "--x0", "0", "--max-iter", "300",
            "--out-dir", str(tmp_path), "--json"]
    assert cli.main(base) == 0
    default = json.loads(capsys.readouterr().out)
    assert cli.main(base + ["--tol", "0"]) == 0
    exact = json.loads(capsys.readouterr().out)
    # the default tolerance 1e-8 stops early; tol 0 runs on to an exact
    # fixed point or to the iteration cap
    assert 0.0 < default["final_residual"] <= 1e-8
    assert exact["iterations"] > default["iterations"]
    assert exact["final_residual"] == 0.0 or exact["iterations"] == 300


@pytest.mark.parametrize("flags, message", [
    (["--lambda", "nan"], "lambda must be a positive finite real, got nan"),
    (["--lambda", "inf"], "lambda must be a positive finite real, got inf"),
    (["--gamma", "nan"], "gamma must be a positive finite real, got nan"),
    (["--tol", "inf"], "tol must be a nonnegative finite real, got inf"),
    (["--problem", '{"name": "lasso", "M": [[1.0]], "y": [1.0], "mu": NaN}'],
     "mu must be a nonnegative finite real, got nan"),
])
def test_discrete_rejects_non_finite_reals(tmp_path, capsys, flags, message):
    argv = ["discrete", "--problem", json.dumps(LASSO), "--lambda", "0.5", "--gamma", "2",
            "--x0", "0", "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc = cli.main(argv + flags)  # argparse keeps the last of a repeated flag
    assert rc == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not (tmp_path / "history.csv").exists()


def test_discrete_problem_flag_is_relative_to_the_working_directory(tmp_path, capsys, monkeypatch):
    # only a problem named inside the config file is relative to that file
    _write_json(tmp_path / "p.json", LASSO)
    (tmp_path / "cfgdir").mkdir()
    cfg = _write_json(tmp_path / "cfgdir" / "d.json", {"lambda": 0.5, "gamma": 2.0, "x0": [0.0]})
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["discrete", "--config", cfg, "--problem", "p.json", "--out-dir", "o"])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "o" / "history.csv").is_file()


def test_an_absolute_out_name_makes_no_out_dir(tmp_path, capsys):
    rc = cli.main(["discrete", "--problem", json.dumps(LASSO), "--lambda", "0.5", "--gamma", "2",
                   "--x0", "0", "--out", str(tmp_path / "h.csv"), "--out-dir", str(tmp_path / "sub")])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "h.csv").is_file()
    assert not (tmp_path / "sub").exists()


def test_a_nested_out_name_gets_its_directory_before_the_run(tmp_path, capsys, monkeypatch):
    argv = ["discrete", "--problem", json.dumps(LASSO), "--lambda", "0.5", "--gamma", "2", "--x0", "0",
            "--out", os.path.join("sub2", "h.csv"), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert (tmp_path / "o" / "sub2" / "h.csv").is_file()
    # a run that fails on a wrong x0 shape, or diverges, leaves no directory that was made for it,
    # under a new --out-dir or for a new absolute --out name
    written = sorted(tmp_path.rglob("*"))
    diverges = ["discrete", "--problem", json.dumps({"name": "zero_quad", "Q": [[10.0]], "b": [0.0]}),
                "--lambda", "1.0", "--gamma", "1.0", "--x0", "1"]
    for command, code in ((argv[:9] + ["0"], 1), (diverges, 2)):
        for out in (["--out", os.path.join("a", "h.csv"), "--out-dir", str(tmp_path / "o2")],
                    ["--out", str(tmp_path / "c" / "h.csv")]):
            capsys.readouterr()
            assert cli.main(command + out) == code
            assert capsys.readouterr().err.count("error: " if code == 1 else "numerical abort: ") == 1
            assert sorted(tmp_path.rglob("*")) == written
    # a directory that cannot be made fails the command before the iteration runs
    (tmp_path / "file").write_text("")
    runs = []
    monkeypatch.setattr(cli.discrete_mod, "run_inertial", lambda *args: runs.append(args))
    capsys.readouterr()
    assert cli.main(argv[:-1] + [str(tmp_path / "file")]) == 1
    assert capsys.readouterr().err.count("error: ") == 1
    assert runs == []


def test_paths_in_a_config_file_are_relative_to_it(tmp_path, capsys, monkeypatch):
    # sweep's run_config and rates' traj, named inside a config file in another directory
    (tmp_path / "sub").mkdir()
    _write_json(tmp_path / "sub" / "tmpl.json", {"problem": ZERO_QUAD, "u0": [1.0], "v0": [0.0],
                                                 "t_end": 2.0, "h": 0.01})
    sweep_cfg = _write_json(tmp_path / "sub" / "sw.json", {"beta": 0, "gamma_count": 1, "lambda_count": 1,
                                                           "gamma_min": 1.0, "lambda_min": 0.01,
                                                           "run_config": "tmpl.json"})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--config", sweep_cfg, "--out-dir", "sub"]) == 0, capsys.readouterr().err
    (tmp_path / "sub" / "run_g1_l0.01" / "trajectory.csv").rename(tmp_path / "sub" / "trajectory.csv")
    rates_cfg = _write_json(tmp_path / "sub" / "r.json", {"traj": "trajectory.csv"})
    capsys.readouterr()
    assert cli.main(["rates", "--config", rates_cfg, "--json"]) == 0, capsys.readouterr().err
    assert "regime" in json.loads(capsys.readouterr().out)
    # on the command line the same names are relative to the working directory
    assert cli.main(["rates", "--config", rates_cfg, "--traj", "sub/trajectory.csv"]) == 0
    assert cli.main(["rates", "--config", rates_cfg, "--traj", "trajectory.csv"]) == 1
    assert cli.main(["sweep", "--config", sweep_cfg, "--run-config", "tmpl.json", "--out-dir", "o"]) == 1
    assert "No such file or directory: 'tmpl.json'" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    ("check-params", {"gamma": [1], "lambda": 0.02, "beta": 1}, "gamma must be a number, got [1]"),
    ("check-params", [1, 2], "check-params config must be a JSON object: {config}"),
    ("rates", {"traj": 3}, "traj must be a file name, got 3"),
    ("rates", {"traj": "wide.csv"}, "trajectory CSV has inconsistent column count"),
    ("rates", {"traj": "t_only.csv"}, "not a trajectory CSV: header 't'"),
    ("rates", {"traj": "abc.csv"}, "not a trajectory CSV: header 't,a,b,c'"),
])
def test_malformed_inputs_exit_one_with_one_error_line(tmp_path, capsys, command, config, message):
    # every row of wide.csv has one column more than its header names; a t-only file
    # would read as a trajectory with no coordinates, and t,a,b,c as one of dim 1
    (tmp_path / "wide.csv").write_text("t,x_0,v_0,a_0\n0,1,0,0,9\n0.1,1,0,0,9\n")
    (tmp_path / "t_only.csv").write_text("t\n0\n0.1\n")
    (tmp_path / "abc.csv").write_text("t,a,b,c\n0,1,0,0\n0.1,1,0,0\n")
    path = _write_json(tmp_path / "config.json", config)
    assert cli.main([command, "--config", path]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message.format(config=path))


def test_invalid_problem_data_exits_one_not_two(tmp_path, capsys):
    problem = {"name": "zero_quad", "Q": [[1.0]], "b": [math.nan]}
    rc = cli.main(["run", "--config", _run_config(tmp_path, problem=problem), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: each entry of b must be finite, got nan\n"


# -- rates flags --------------------------------------------------------


@pytest.fixture()
def traj_csv(tmp_path):
    cfg = _run_config(tmp_path)
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out_dir),
                     "--json"]) == 0
    return str(out_dir / "trajectory.csv")


def test_rates_explicit_limit_and_window(traj_csv, capsys):
    capsys.readouterr()
    rc = cli.main(["rates", "--traj", traj_csv, "--x-limit", "0.0",
                   "--t0", "1.0", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["x_limit"] == [0.0]
    assert report["t0"] == 1.0
    assert report["regime"] in {"exponential", "polynomial", "finite_time",
                                "undetermined"}


def test_rates_auto_tokens(traj_csv, capsys):
    capsys.readouterr()
    rc = cli.main(["rates", "--traj", traj_csv, "--x-limit", "auto",
                   "--t0", "auto"])
    assert rc == 0
    assert "regime" in capsys.readouterr().out


@pytest.mark.parametrize("x_limit, tokens", [(0.5, ["0.5"]), ([0.5], ["0.5"]), ("auto", ["auto"])])
def test_rates_config_takes_x_limit_in_every_form(traj_csv, tmp_path, capsys, x_limit, tokens):
    cfg = _write_json(tmp_path / "rates.json", {"traj": traj_csv, "x_limit": x_limit})
    capsys.readouterr()
    assert cli.main(["rates", "--config", cfg, "--json"]) == 0
    from_config = json.loads(capsys.readouterr().out)
    assert cli.main(["rates", "--traj", traj_csv, "--x-limit", *tokens, "--json"]) == 0
    assert from_config == json.loads(capsys.readouterr().out)
    if x_limit != "auto":
        assert from_config["x_limit"] == [0.5]


def test_run_config_takes_auto_as_t0(tmp_path):
    for name, extra in (("auto", {"t0": "auto"}), ("omitted", {})):
        cfg = _run_config(tmp_path, t_end=2.0, **extra)
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "auto" / "rates.json").read_bytes() == (tmp_path / "omitted" / "rates.json").read_bytes()


def test_run_config_takes_a_number_as_x_limit(tmp_path):
    for x_limit in (0.5, [0.5]):
        cfg = _run_config(tmp_path, t_end=2.0, x_limit=x_limit)
        assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / str(x_limit))]) == 0
    rates = [json.loads((tmp_path / name / "rates.json").read_text()) for name in ("0.5", "[0.5]")]
    assert rates[0] == rates[1] and rates[0]["x_limit"] == [0.5]


def test_rates_convergence_rejection(tmp_path, capsys):
    # a short window leaves the tail fast, so a tiny tolerance must reject
    cfg = _run_config(tmp_path, t_end=1.0)
    out_dir = tmp_path / "short"
    assert cli.main(["run", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    rc = cli.main(["rates", "--traj", str(out_dir / "trajectory.csv"),
                   "--converged-tol", "1e-300"])
    assert rc == 1
    assert "convergence tolerance" in capsys.readouterr().err


def test_rates_missing_trajectory(capsys):
    rc = cli.main(["rates"])
    assert rc == 1
    assert "missing required argument --traj" in capsys.readouterr().err


# -- sweep --------------------------------------------------------------


def test_sweep_beta_zero_all_feasible(tmp_path, capsys):
    rc = cli.main(["sweep", "--beta", "0", "--gamma-count", "5",
                   "--lambda-count", "4", "--out-dir", str(tmp_path),
                   "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == 20
    assert payload["feasible"] == 20
    assert payload["runs"] == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 21
    assert lines[0].startswith("gamma,lambda,beta,L1,L2,L,A,B,C,")
    data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, -2] == 1.0)  # rho_feasible column


def test_sweep_marks_infeasible_points_with_nan_envelope(tmp_path, capsys):
    rc = cli.main(["sweep", "--beta", "3", "--gamma-count", "4",
                   "--lambda-count", "4", "--log-lambda",
                   "--out-dir", str(tmp_path), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < payload["feasible"] < payload["points"]
    data = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0].split(",")
    m_col = header.index("m")
    flag_col = header.index("rho_feasible")
    infeasible = data[:, flag_col] == 0.0
    assert np.all(np.isnan(data[infeasible, m_col]))
    assert np.all(np.isfinite(data[~infeasible, m_col]))
    # --log-lambda spaces the lambda grid geometrically
    lam_block = data[:4, header.index("lambda")]
    np.testing.assert_allclose(lam_block, np.geomspace(1e-3, 1.0, 4), rtol=1e-12)


def test_sweep_runs_template_at_each_feasible_point(tmp_path, capsys):
    template = _write_json(tmp_path / "template.json", {
        "problem": ZERO_QUAD, "u0": [1.0], "v0": [0.0],
        "t_end": 1.0, "h": 0.01,
    })
    rc = cli.main(["sweep", "--beta", "0", "--gamma-min", "0.5",
                   "--gamma-max", "1.0", "--gamma-count", "2",
                   "--lambda-min", "0.01", "--lambda-max", "0.02",
                   "--lambda-count", "2", "--run-config", template,
                   "--out-dir", str(tmp_path), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 4
    assert payload["aborted"] == []
    for gamma in ("0.5", "1"):
        for lam in ("0.01", "0.02"):
            sub = tmp_path / ("run_g%s_l%s" % (gamma, lam))
            assert (sub / "summary.json").is_file()
            point = json.loads((sub / "summary.json").read_text())
            assert point["params"]["gamma"] == float(gamma)
            assert point["params"]["lambda"] == float(lam)


def test_sweep_runs_all_points_as_one_ensemble(tmp_path, capsys, monkeypatch):
    calls = {"integrate": 0, "integrate_ensemble": 0}

    def counted(name):
        original = getattr(cli.dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.dynamics, name, wrapper)

    counted("integrate")
    counted("integrate_ensemble")
    template_cfg = {"problem": ZERO_QUAD, "u0": [1.0], "v0": [0.0], "t_end": 1.0, "h": 0.01}
    template = _write_json(tmp_path / "template.json", template_cfg)
    rc = cli.main(["sweep", "--beta", "0", "--gamma-min", "0.5",
                   "--gamma-max", "1.0", "--gamma-count", "2",
                   "--lambda-min", "0.01", "--lambda-max", "0.02",
                   "--lambda-count", "2", "--run-config", template,
                   "--out-dir", str(tmp_path / "sweep")])
    assert rc == 0
    assert calls == {"integrate": 0, "integrate_ensemble": 1}
    # each point's files are those of a separate run at that point
    monkeypatch.undo()
    for gamma in (0.5, 1.0):
        for lam in (0.01, 0.02):
            sub = "run_g%.6g_l%.6g" % (gamma, lam)
            cfg = _write_json(tmp_path / "point.json", dict(template_cfg, gamma=gamma, **{"lambda": lam}))
            assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "alone" / sub)]) == 0
            names = sorted(os.listdir(tmp_path / "alone" / sub))
            assert sorted(os.listdir(tmp_path / "sweep" / sub)) == names
            assert names == ["energy.csv", "rates.json", "summary.json", "trajectory.csv"]
            for name in names:
                assert ((tmp_path / "sweep" / sub / name).read_bytes()
                        == (tmp_path / "alone" / sub / name).read_bytes()), (sub, name)


def test_sweep_guard_failure_writes_no_run(tmp_path, capsys):
    # 1/L1 is about 0.45 at gamma 0.5 and 0.37 at gamma 1.6, so the guard
    # passes the first points and rejects the last ones
    template = _write_json(tmp_path / "template.json", {
        "problem": LASSO, "u0": [1.5], "v0": [0.0], "t_end": 1.0, "h": 0.4,
    })
    rc = cli.main(["sweep", "--beta", "0", "--gamma-min", "0.5", "--gamma-max", "1.6",
                   "--gamma-count", "4", "--lambda-min", "0.001", "--lambda-max", "0.002",
                   "--lambda-count", "2", "--run-config", template,
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "exceeds the stability guard" in capsys.readouterr().err
    assert os.listdir(tmp_path / "o") == ["sweep.csv"]


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = _run_config(tmp_path, sample_evry=10)
    rc = cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key 'sample_evry' in run config" in err
    assert "valid keys: converged_tol, gamma, h, lambda, outputs, problem, sample_every" in err
    assert not (tmp_path / "o").exists()


def test_sweep_rejects_unknown_template_key(tmp_path, capsys):
    template = _write_json(tmp_path / "template.json", {
        "problem": ZERO_QUAD, "u0": [1.0], "v0": [0.0], "t_end": 1.0, "h": 0.01, "gama": 2.0,
    })
    rc = cli.main(["sweep", "--beta", "0", "--gamma-count", "2", "--lambda-count", "2",
                   "--run-config", template, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown key 'gama' in run config template; valid keys:" in capsys.readouterr().err
    assert os.listdir(tmp_path / "o") == ["sweep.csv"]


def test_problem_spec_with_unknown_key_exits_one(tmp_path, capsys):
    spec = json.dumps({"name": "cos_quad", "dim": 2, "muu": 0.5})
    rc = cli.main(["discrete", "--problem", spec, "--lambda", "0.5", "--gamma", "2",
                   "--x0", "0", "0", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "unknown key 'muu' in problem spec 'cos_quad'; valid keys: dim, mu, name" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command, cfg", [
    ("check-params", {"gamma": 1, "lambda": 0.02, "beta": 1}),
    ("discrete", {"problem": LASSO, "lambda": 0.5, "gamma": 2, "x0": [0.0]}),
    ("rates", {"traj": "trajectory.csv", "x_limit": [0.5]}),
    ("sweep", {"beta": 1, "lambda_count": 2}),
])
def test_config_file_with_unknown_key_exits_one(tmp_path, capsys, command, cfg):
    cfg = _write_json(tmp_path / "config.json", dict(cfg, gamma_cout=3))
    rc = cli.main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown key 'gamma_cout' in %s config; valid keys:" % command in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_zero_lambda_min_is_rejected(tmp_path, capsys):
    rc = cli.main(["sweep", "--beta", "1", "--lambda-min", "0",
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: lambda must be a positive finite real, got 0.0\n"


@pytest.mark.parametrize("flag", ["--gamma-count", "--lambda-count"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_sweep_counts_must_be_positive(tmp_path, capsys, flag, value):
    rc = cli.main(["sweep", "--beta", "1", flag, value, "--out-dir", str(tmp_path)])
    assert rc == 1
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == "error: %s must be a positive integer, got %s\n" % (key, value)
    assert not (tmp_path / "sweep.csv").exists()


# -- parser edges -------------------------------------------------------


# the flags of each subcommand, beside --config, --out-dir, --json and --help
FLAGS = {
    "run": [],
    "check-params": ["--gamma", "--lambda", "--beta"],
    "discrete": ["--problem", "--lambda", "--gamma", "--x0", "--x1", "--max-iter", "--tol", "--out"],
    "rates": ["--traj", "--x-limit", "--t0", "--converged-tol"],
    "sweep": ["--beta", "--gamma-min", "--gamma-max", "--gamma-count", "--lambda-min", "--lambda-max",
              "--lambda-count", "--log-lambda", "--run-config"],
}


def test_each_subcommand_keeps_its_flags():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAGS)
    for command, flags in FLAGS.items():
        actions = sub.choices[command]._actions
        assert {s for a in actions for s in a.option_strings} == {
            "-h", "--help", "--config", "--out-dir", "--json", *flags}
        nargs = {a.option_strings[0]: a.nargs for a in actions if a.nargs == "+"}
        assert nargs == {flag: "+" for flag in flags if flag in ("--x0", "--x1", "--x-limit")}
        # a --config key is its flag's name with "_" for "-", and --log-lambda is a flag only
        keys = [row[0] for row in cli._INPUTS[command]] if command != "run" else []
        assert ["--" + key.replace("_", "-") for key in keys] == [f for f in flags if f != "--log-lambda"]


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "Subcommands" not in capsys.readouterr().err


def test_no_arguments_is_an_error(capsys):
    assert cli.main([]) == 1


def test_unknown_command_is_an_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def _python_m_proxdyn(*argv):
    """Run ``python -m proxdyn`` in a new interpreter, so stderr is what a user sees."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "proxdyn", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_python_m_proxdyn_runs_the_cli():
    done = _python_m_proxdyn("check-params", "--gamma", "1", "--lambda", "0.02", "--beta", "1",
                             "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["rho_feasible"] is True


# SHA-256 of four outputs of ``python -m proxdyn``, recorded when every
# value was formatted by Python's %.  Each config is IEEE-exact on any
# platform: 1x1 products and sqrt, no libm transcendental, no geomspace.
GOLDEN_SHA256 = {
    "trajectory.csv": "3c989d5921501be0a54e2473742dc152d81d5d0c225277083bbeabeebaf0f8d6",
    "energy.csv": "f9885e3284b01945f42d786de8e939c9c3d934e33d078759aa9d751552d58063",
    "history.csv": "01372c22c586e3cb24264a91ff16e35cb6df43f59cce94121e23364a0e89e3df",
    "sweep.csv": "20b6abd50ef063cadc35b2d1627cd7a2b0b0aa5675ad743d9cf9961a8a84c4c0",
}


def test_outputs_keep_their_golden_bytes(tmp_path):
    readme = {"problem": LASSO, "gamma": 1.0, "lambda": 0.02, "u0": [1.5], "v0": [0.0],
              "t_end": 100.0, "h": 0.01, "outputs": ["trajectory", "energy"]}
    out = ["--out-dir", str(tmp_path)]
    for argv in (
        ["run", "--config", _write_json(tmp_path / "readme.json", readme)],
        ["discrete", "--problem", json.dumps(LASSO), "--lambda", "0.5", "--gamma", "2", "--x0", "0",
         "--max-iter", "50", "--tol", "0"],
        ["sweep", "--beta", "1", "--gamma-count", "5", "--lambda-count", "4"],
    ):
        done = _python_m_proxdyn(*argv, *out)
        assert done.returncode == 0, done.stderr
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# -- overflow -----------------------------------------------------------

# x' starts near the largest float: at gamma 1.2 the first step overflows,
# at gamma 0.8 and 1.0 the state stays finite but the energy does not
OVERFLOW_RUN = {"problem": ZERO_QUAD, "u0": [0.0], "v0": [2.9962e307], "t_end": 1.0, "h": 0.01,
                "lambda": 0.01}

# every entry of this run is finite, but its norms overflow: ||x'(0)|| is
# sqrt(300) * 2.9962e307 and ||x'(t_end)|| about sqrt(300) * 1.09e307, both above
# the largest double
NORM_OVERFLOW_RUN = dict(OVERFLOW_RUN, gamma=1.0, u0=[0.0] * 300, v0=[2.9962e307] * 300,
                         problem={"name": "zero_quad", "Q": np.eye(300).tolist(), "b": [0.0] * 300})
_OVERFLOW_RATE_ERROR = ("trajectory is not finite at t=0: a sample or its distance to the limit "
                        "overflows, so no rate can be classified")


def test_overflowing_sweep_warns_once_per_abort(tmp_path):
    template = _write_json(tmp_path / "template.json", OVERFLOW_RUN)
    done = _python_m_proxdyn("sweep", "--beta", "1", "--gamma-min", "0.8", "--gamma-max", "1.2",
                             "--gamma-count", "3", "--lambda-min", "0.01", "--lambda-max", "0.01",
                             "--lambda-count", "1", "--run-config", template,
                             "--out-dir", str(tmp_path / "o"))
    assert done.returncode == 2
    assert done.stderr == (
        "warning: run at gamma=1.2, lambda=0.01 aborted: non-finite state at t=0.01 (step 1); "
        "the flow diverged numerically\n")


def test_overflowing_run_reports_only_the_abort(tmp_path):
    cfg = _write_json(tmp_path / "config.json", dict(OVERFLOW_RUN, gamma=1.2))
    done = _python_m_proxdyn("run", "--config", cfg, "--out-dir", str(tmp_path / "o"))
    assert done.returncode == 2
    assert done.stderr == (
        "numerical abort: non-finite state at t=0.01 (step 1); the flow diverged numerically\n")


def test_run_with_non_finite_summary_values_succeeds(tmp_path):
    cfg = _write_json(tmp_path / "config.json", NORM_OVERFLOW_RUN)
    done = _python_m_proxdyn("run", "--config", cfg, "--out-dir", str(tmp_path / "o"))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "final residual non-finite; final velocity non-finite;" in done.stdout
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["final_residual"] is None
    assert summary["warnings"] == [
        "energy is not finite at 101 of 101 samples",
        "rate classification failed: " + _OVERFLOW_RATE_ERROR,
        "2 non-finite values serialized as null",
    ]


def test_run_whose_squares_overflow_has_a_finite_summary(tmp_path, capsys):
    # at dim 1 the final x and x' are finite, though their squares are not
    cfg = _write_json(tmp_path / "config.json", dict(OVERFLOW_RUN, gamma=1.0))
    assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_velocity_norm"] == 1.0943301791842143e+307
    assert summary["final_residual"] == pytest.approx(1.891e307, rel=1e-3)
    assert not any("serialized as null" in warning for warning in summary["warnings"])
    energy = np.loadtxt(tmp_path / "o" / "energy.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(energy[:, 5]))  # the residual column


def test_run_whose_polynomial_fit_overflows_succeeds(tmp_path):
    # x moves about 5e-3 towards x_limit in 0.1 time units, so the fitted
    # power q is tiny and a3 = exp(-intercept / q) overflows
    cfg = _run_config(tmp_path, u0=[1.0], v0=[0.0], t_end=0.1, h=0.01, x_limit=0.5)
    done = _python_m_proxdyn("run", "--config", cfg, "--out-dir", str(tmp_path / "o"))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    rates = json.loads((tmp_path / "o" / "rates.json").read_text())
    assert rates["fit_quality"]["polynomial"] is None


def test_run_with_non_finite_energy_is_not_monotone(tmp_path, capsys):
    cfg = _write_json(tmp_path / "config.json", NORM_OVERFLOW_RUN)
    assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["energy_monotone"] is False
    assert summary["rate_report"] == {"regime": "undetermined", "error": _OVERFLOW_RATE_ERROR}
    energy = np.loadtxt(tmp_path / "o" / "energy.csv", delimiter=",", skiprows=1)
    assert np.all(np.isinf(energy[:, 1]))
    rates = json.loads((tmp_path / "o" / "rates.json").read_text())
    assert rates == summary["rate_report"]


def test_rates_of_a_trajectory_whose_squares_overflow_exits_zero(tmp_path, capsys):
    # at dim 1 the squared speed overflows but the speed itself does not, so there is a rate
    cfg = _write_json(tmp_path / "config.json", dict(OVERFLOW_RUN, gamma=1.0))
    assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert cli.main(["rates", "--traj", str(tmp_path / "o" / "trajectory.csv"), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["regime"] == "exponential"


def test_rates_of_an_overflowing_trajectory_exits_one(tmp_path, capsys):
    cfg = _write_json(tmp_path / "config.json", NORM_OVERFLOW_RUN)
    assert cli.main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    rc = cli.main(["rates", "--traj", str(tmp_path / "o" / "trajectory.csv"), "--json"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % _OVERFLOW_RATE_ERROR
    assert captured.out == ""
