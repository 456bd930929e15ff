"""Command-line front end for the flow and the discrete algorithm.

Subcommands
-----------
run
    Integrate the flow from a JSON experiment config, monitor the energy,
    classify the decay rate, and write trajectory.csv / energy.csv /
    rates.json / summary.json into the output directory.
check-params
    Derive every constant for (gamma, lambda, beta) and report the two
    feasibility verdicts.
discrete
    Run the inertial proximal-gradient iteration at unit step on a problem
    file and write the iterate history CSV.
rates
    Classify the decay rate of a trajectory CSV written by ``run``.
sweep
    Evaluate the feasibility conditions on a (gamma, lambda) grid, write
    sweep.csv, and optionally launch one run per feasible point from a
    config template.

Global flags: ``--config FILE`` (JSON, supplies defaults for any missing
argument of the subcommand and may hold no other key; for ``run`` it is the
experiment config itself), ``--out-dir DIR``, ``--json``.  Exit codes: 0
success (infeasible parameters only warn), 1 invalid input, 2 numerical
abort.

Each subcommand's inputs are declared once, in the ``_INPUTS`` table: key,
reader, default.  Its flags, its valid config keys and the reading of every
flag and config value are made from that table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys

import numpy as np

from . import discrete as discrete_mod
from . import dynamics, lyapunov
from . import params as params_mod
from . import rates as rates_mod
from .problems import _as_int, _check_keys, _check_real, _rownorm, problem_from_json

__all__ = ["main"]

_OUTPUT_KINDS = ("trajectory", "energy", "rates", "summary")


def _json_safe(value):
    """Recursively convert a payload to strict JSON: non-finite floats become null.

    Returns (converted, number_of_nonfinite_floats).
    """
    if isinstance(value, dict):
        count = 0
        out = {}
        for key, item in value.items():
            out[key], sub = _json_safe(item)
            count += sub
        return out, count
    if isinstance(value, (list, tuple)):
        count = 0
        out = []
        for item in value:
            safe, sub = _json_safe(item)
            out.append(safe)
            count += sub
        return out, count
    if isinstance(value, float) and not math.isfinite(value):
        return None, 1
    return value, 0


def _dump_json(safe, path=None):
    """Print ``safe``, a payload made strict by :func:`_json_safe`, or write it to ``path``."""
    text = json.dumps(safe, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# inputs
#
# A reader is (read, flag).  read(value, key, base_dir) checks a value and
# returns what the command uses; a relative path in a JSON file starts at
# base_dir, and one in a flag at "", the working directory.  ``flag`` holds
# the argparse keywords that turn the flag's tokens into the Python types
# JSON gives, so a value meets the same check on every route.


def _real(kind):
    def read(value, key, base_dir):
        if np.ndim(value):
            raise ValueError("%s must be a number, got %r" % (key, value))
        return float(_check_real(value, key, kind))

    return read, {"type": float}


def _integer(least):
    return (lambda value, key, base_dir: _as_int(value, key, least)), {"type": int}


def _vector(value, key, base_dir):
    return _check_real(value, "each entry of " + key, "finite")


def _auto_or_float(token):
    return token if token == "auto" else float(token)


def _auto(reader):
    """``reader``, or None for "auto" (as a flag, the token list ["auto"])."""
    read, flag = reader
    return (lambda value, key, base_dir: None if value in ("auto", ["auto"]) else read(value, key, base_dir),
            dict(flag, type=_auto_or_float))


def _path(value, key, base_dir):
    if not isinstance(value, str):
        raise ValueError("%s must be a file name, got %r" % (key, value))
    return os.path.join(base_dir, value)


def _problem(value, key, base_dir):
    """A problem given inline (a JSON object or its text), or as a path."""
    inline = not isinstance(value, str) or value.lstrip().startswith("{")
    return problem_from_json(value if inline else _path(value, key, base_dir))


def _outputs(value, key, base_dir):
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError("%s must be a list of names, got %r" % (key, value))
    unknown = set(value) - set(_OUTPUT_KINDS)
    if unknown:
        raise ValueError("unknown outputs %s; choose from %s" % (sorted(unknown), list(_OUTPUT_KINDS)))
    return set(value)


_POSITIVE, _NONNEGATIVE, _FINITE = _real("positive"), _real("nonnegative"), _real("finite")
_VECTOR = _vector, {"type": float, "nargs": "+"}
_FILE = _path, {"metavar": "FILE"}
_REQUIRED = object()

# The inputs of each command, one row each: (key, reader, default or
# _REQUIRED, help).  The flag is "--" + key with "-" for "_"; a --config
# file holds keys of its command's rows and no other.  run has no flags: its
# config holds the run keys, and so does a sweep's run template.
_GAMMA = ("gamma", _POSITIVE, _REQUIRED, "damping value")
_LAMBDA = ("lambda", _POSITIVE, _REQUIRED, "proximal step")
_BETA = ("beta", _NONNEGATIVE, _REQUIRED, "Lipschitz constant of grad g")
_RATE_INPUTS = (
    ("x_limit", _auto(_VECTOR), None, "'auto' or the limit coordinates"),
    ("t0", _auto(_FINITE), None, "'auto' or the fit-window start time"),
    ("converged_tol", _NONNEGATIVE, None, "reject trajectories whose final speed exceeds this"),
)
_INPUTS = {
    "run": (
        ("problem", (_problem, {}), _REQUIRED, None), _GAMMA, _LAMBDA,
        ("seed", _integer(0), 0, None),
        ("u0", _VECTOR, None, None),
        ("v0", _VECTOR, None, None),
        ("sample_every", _integer(1), None, None),
        ("outputs", (_outputs, {}), _OUTPUT_KINDS, None),
        ("t_end", _FINITE, _REQUIRED, None),
        ("h", _FINITE, _REQUIRED, None),
    ) + _RATE_INPUTS,
    "check-params": (_GAMMA, _LAMBDA, _BETA),
    "discrete": (
        ("problem", (_problem, {}), _REQUIRED, "problem JSON file (or inline JSON object text)"),
        _LAMBDA, _GAMMA,
        ("x0", _VECTOR, _REQUIRED, None),
        ("x1", _VECTOR, None, "second iterate (default: x0)"),
        ("max_iter", _integer(1), 10_000, None),
        ("tol", _NONNEGATIVE, 1e-8, None),
        # a name in the output directory, not a path from the config file
        ("out", ((lambda value, key, base_dir: _path(value, key, "")), {}), "history.csv",
         "history CSV name (default history.csv)"),
    ),
    "rates": (("traj", _FILE, _REQUIRED, "trajectory CSV written by run"),) + _RATE_INPUTS,
    "sweep": (
        _BETA,
        ("gamma_min", _FINITE, 0.1, None),
        ("gamma_max", _FINITE, 1.7, None),
        ("gamma_count", _integer(1), 25, None),
        ("lambda_min", _FINITE, 1e-3, None),
        ("lambda_max", _FINITE, 1.0, None),
        ("lambda_count", _integer(1), 25, None),
        ("run_config", _FILE, None, "experiment template to run at every feasible point"),
    ),
}


def _read_inputs(table, path, what, args=None, supplied=()):
    """The inputs of ``table`` by key: each one's flag in ``args``, else its key in
    the JSON file ``path``, else its default, through its reader.

    A required input may be absent only when its key is in ``supplied``;
    else the error names its flag, or its key when it has no flag.
    """
    given, base_dir = {}, ""
    if path is not None:
        with open(path) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError("%s must be a JSON object: %s" % (what, path))
        _check_keys(given, [row[0] for row in table], what)
        base_dir = os.path.dirname(os.path.abspath(path))
    inputs = {}
    for key, (read, _), default, _ in table:
        value, where = getattr(args, key, None), ""
        if value is None:
            value, where = given.get(key), base_dir
        if value is not None:
            inputs[key] = read(value, key, where)
        elif default is not _REQUIRED or key in supplied:
            inputs[key] = None if default is _REQUIRED else default
        elif hasattr(args, key):
            raise ValueError("missing required argument --%s" % key.replace("_", "-"))
        else:
            raise ValueError("missing config key %r" % key)
    return inputs


def _command_inputs(args):
    return _read_inputs(_INPUTS[args.command], args.config, "%s config" % args.command, args)


def _out_path(out_dir, name):
    """``name`` in ``out_dir``, or an absolute ``name`` as it is; its directory is made if missing."""
    path = os.path.join(out_dir or ".", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


@contextlib.contextmanager
def _out_path_for(out_dir, name):
    """:func:`_out_path`, made before a run; the directories it made go again if the run fails."""
    made, parent = None, os.path.dirname(os.path.join(out_dir or ".", name))
    while parent and not os.path.exists(parent):
        made, parent = parent, os.path.dirname(parent)
    try:
        yield _out_path(out_dir, name)
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# run


def _feasibility_warnings(params):
    """Warn on stderr when a run's parameters fail the feasibility conditions."""
    if params.rho_feasible:
        return []
    message = (
        "parameters gamma=%g, lambda=%g with beta=%g fail the feasibility "
        "conditions; integrating anyway" % (params.gamma, params.lam, params.beta)
    )
    print("warning: " + message, file=sys.stderr)
    return [message]


def _initial_state(inputs, obj):
    """u0, drawn from the seeded generator when not given, and v0, zero when not given."""
    u0, v0 = inputs["u0"], inputs["v0"]
    if u0 is None:
        u0 = np.random.default_rng(inputs["seed"]).standard_normal(obj.dim)
    return u0, np.zeros(obj.dim) if v0 is None else v0


def _classify(traj, inputs):
    return rates_mod.classify_rate(traj, **{row[0]: inputs[row[0]] for row in _RATE_INPUTS})


@np.errstate(over="ignore", invalid="ignore")  # an overflowing run warns once, not per numpy call
def _finish_run(inputs, obj, params, traj, warning_list, out_dir):
    """Monitor and classify an integrated run, then write its outputs into ``out_dir``."""
    trace = lyapunov.monitor(obj, params, traj)
    energy_tol = 1e-6 * (1.0 + abs(float(trace.energy[0])))
    violations = lyapunov.check_monotone(trace, energy_tol)
    non_finite = sum(rec.kind == "non_finite" for rec in violations)
    rises = sum(rec.kind in ("adjacent", "integrated") for rec in violations)
    if non_finite:
        warning_list.append("energy is not finite at %d of %d samples" % (non_finite, len(trace.energy)))
    if rises:
        warning_list.append("energy increased beyond tolerance %g at %d sample pairs" % (energy_tol, rises))

    try:
        rate_dict = _classify(traj, inputs).to_dict()
    except ValueError as exc:
        rate_dict = {"regime": "undetermined", "error": str(exc)}
        warning_list.append("rate classification failed: %s" % exc)

    outputs = inputs["outputs"]
    written = []
    if "trajectory" in outputs:
        path = _out_path(out_dir, "trajectory.csv")
        dynamics.write_trajectory_csv(traj, path)
        written.append(path)
    if "energy" in outputs:
        path = _out_path(out_dir, "energy.csv")
        lyapunov.write_energy_csv(trace, path)
        written.append(path)
    if "rates" in outputs:
        path = _out_path(out_dir, "rates.json")
        _dump_json(_json_safe(rate_dict)[0], path)
        written.append(path)

    summary, dropped = _json_safe({
        "params": params_mod.params_report(params),
        "final_residual": float(trace.residual[-1]),
        "final_velocity_norm": float(_rownorm(traj.vs[-1])),
        "energy_monotone": not violations,
        "rate_report": rate_dict,
        "warnings": warning_list,
    })
    if dropped:
        summary["warnings"].append("%d non-finite values serialized as null" % dropped)
    path = _out_path(out_dir, "summary.json")
    _dump_json(summary, path)
    written.append(path)
    return summary, written


def cmd_run(args):
    if args.config is None:
        raise ValueError("run requires --config FILE with the experiment description")
    inputs = _command_inputs(args)
    obj = inputs["problem"]
    params = params_mod.derive_params(inputs["gamma"], inputs["lambda"], obj.g.beta)
    warning_list = _feasibility_warnings(params)
    u0, v0 = _initial_state(inputs, obj)
    traj = dynamics.integrate(obj, params, u0, v0, inputs["t_end"], inputs["h"],
                              sample_every=inputs["sample_every"])
    summary, written = _finish_run(inputs, obj, params, traj, warning_list, args.out_dir)
    if args.json:
        _dump_json(summary)
    else:
        for path in written:
            print("wrote %s" % path)
        print(
            "final residual %s; final velocity %s; energy monotone: %s; regime: %s"
            % (
                _text_number(summary["final_residual"]),
                _text_number(summary["final_velocity_norm"]),
                summary["energy_monotone"],
                summary["rate_report"]["regime"],
            )
        )
    return 0


def _text_number(value):
    """A summary number as %.6g; the summary holds None where it was not finite."""
    return "non-finite" if value is None else "%.6g" % value


# ---------------------------------------------------------------------------
# check-params


def cmd_check_params(args):
    inputs = _command_inputs(args)
    gamma, lam, beta = inputs["gamma"], inputs["lambda"], inputs["beta"]
    params = params_mod.derive_params(gamma, lam, beta)
    if not params.rho_feasible:
        print(
            "warning: gamma=%g, lambda=%g, beta=%g fail the feasibility conditions"
            % (gamma, lam, beta),
            file=sys.stderr,
        )
    report = params_mod.params_report(params)
    if args.json:
        _dump_json(_json_safe(report)[0])
    else:
        for key, value in report.items():
            print("%s = %r" % (key, value))
    return 0


# ---------------------------------------------------------------------------
# discrete


def cmd_discrete(args):
    inputs = _command_inputs(args)
    x0 = inputs["x0"]
    x1 = x0 if inputs["x1"] is None else inputs["x1"]
    # a path that cannot be made fails before the run, and a failed run leaves no directory behind
    with _out_path_for(args.out_dir, inputs["out"]) as path:
        history = discrete_mod.run_inertial(inputs["problem"], inputs["lambda"], inputs["gamma"], x0, x1,
                                            inputs["max_iter"], inputs["tol"])
        discrete_mod.write_history_csv(history, path)
    if args.json:
        _dump_json(_json_safe({
            "converged": history.converged,
            "iterations": history.iterations,
            "final_residual": float(history.residuals[-1]),
            "final_objective": float(history.objective_values[-1]),
            "history": path,
        })[0])
    else:
        print("wrote %s" % path)
        status = "converged" if history.converged else "stopped"
        print(
            "%s after %d iterations; final residual %.6g"
            % (status, history.iterations, history.residuals[-1])
        )
    return 0


# ---------------------------------------------------------------------------
# rates


def cmd_rates(args):
    inputs = _command_inputs(args)
    report = _classify(dynamics.read_trajectory_csv(inputs["traj"]), inputs)
    if args.json:
        _dump_json(_json_safe(report.to_dict())[0])
    else:
        for key, value in report.to_dict().items():
            print("%s = %r" % (key, value))
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args):
    inputs = _command_inputs(args)
    gammas = np.linspace(inputs["gamma_min"], inputs["gamma_max"], inputs["gamma_count"])
    spacing = np.geomspace if args.log_lambda else np.linspace
    lambdas = spacing(inputs["lambda_min"], inputs["lambda_max"], inputs["lambda_count"])

    grid_gamma, grid_lam = np.meshgrid(gammas, lambdas, indexing="ij")
    params = params_mod.derive_params(grid_gamma.ravel(), grid_lam.ravel(), inputs["beta"])
    report = params_mod.params_report(params)
    csv_path = _out_path(args.out_dir, "sweep.csv")
    table = np.column_stack(list(report.values()))  # the two flags become 1.0 and 0.0, written 1 and 0
    dynamics._write_csv(csv_path, list(report), table)

    feasible = params.rho_feasible
    points = feasible.size
    n_feasible = int(np.count_nonzero(feasible))
    aborted = []
    run_config = inputs["run_config"]
    if run_config is not None:
        aborted = _sweep_runs(run_config, params.gamma[feasible], params.lam[feasible], args.out_dir or ".")

    if args.json:
        _dump_json(_json_safe({
            "points": points,
            "feasible": n_feasible,
            "sweep": csv_path,
            "runs": n_feasible if run_config is not None else 0,
            "aborted": aborted,
        })[0])
    else:
        print("wrote %s" % csv_path)
        print("%d of %d grid points feasible" % (n_feasible, points))
        if run_config is not None:
            print("ran %d feasible points, %d aborted" % (n_feasible, len(aborted)))
    return 2 if aborted else 0


def _sweep_runs(run_config, gammas, lambdas, parent_out):
    """Run the template at every (gamma, lambda) point as one ensemble; return the aborted runs.

    Each point's run directory gets what ``run`` writes for the template at
    that point's gamma and lambda, in grid order.
    """
    inputs = _read_inputs(_INPUTS["run"], run_config, "run config template", supplied=("gamma", "lambda"))
    obj = inputs["problem"]
    u0, v0 = _initial_state(inputs, obj)
    derived = params_mod.derive_params(gammas, lambdas, obj.g.beta)
    params_seq = [derived.at(i) for i in range(len(gammas))]
    outcomes = dynamics.integrate_ensemble(
        obj, params_seq, u0, v0, inputs["t_end"], inputs["h"], sample_every=inputs["sample_every"]
    )
    aborted = []
    for params, outcome in zip(params_seq, outcomes):
        warning_list = _feasibility_warnings(params)
        if isinstance(outcome, dynamics.IntegrationAborted):
            aborted.append({"gamma": params.gamma, "lambda": params.lam, "error": str(outcome)})
            print(
                "warning: run at gamma=%.6g, lambda=%.6g aborted: %s"
                % (params.gamma, params.lam, outcome),
                file=sys.stderr,
            )
            continue
        out_dir = os.path.join(parent_out, "run_g%.6g_l%.6g" % (params.gamma, params.lam))
        _finish_run(inputs, obj, params, outcome, warning_list, out_dir)
    return aborted


# ---------------------------------------------------------------------------
# parser


_COMMANDS = {
    "run": (cmd_run, "integrate a flow experiment from a JSON config"),
    "check-params": (cmd_check_params, "derive constants and feasibility verdicts"),
    "discrete": (cmd_discrete, "run the inertial iteration at unit step"),
    "rates": (cmd_rates, "classify the decay rate of a trajectory CSV"),
    "sweep": (cmd_sweep, "feasibility grid, optionally a run per feasible point"),
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON file supplying defaults for missing arguments")
    common.add_argument("--out-dir", metavar="DIR", help="directory for output files (default: current)")
    common.add_argument("--json", action="store_true", help="machine-readable stdout")

    parser = argparse.ArgumentParser(
        prog="proxdyn",
        description="Simulate the second-order proximal-gradient flow and its discrete algorithm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (func, help_text) in _COMMANDS.items():
        p_command = sub.add_parser(command, parents=[common], help=help_text)
        p_command.set_defaults(func=func)
        if command == "run":
            continue  # run's inputs are its experiment config, not flags
        for key, (_, flag), _, flag_help in _INPUTS[command]:
            p_command.add_argument("--" + key.replace("_", "-"), dest=key, help=flag_help, **flag)
        if command == "sweep":
            p_command.add_argument("--log-lambda", dest="log_lambda", action="store_true",
                                   help="space the lambda grid geometrically")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (dynamics.IntegrationAborted, discrete_mod.DivergenceError) as exc:
        print("numerical abort: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
