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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import discrete as discrete_mod
from . import dynamics, lyapunov
from . import params as params_mod
from . import rates as rates_mod
from .problems import _as_int, _check_keys, problem_from_json

__all__ = ["main"]

_OUTPUT_KINDS = ("trajectory", "energy", "rates", "summary")
# the keys a run config (or a sweep's run template) may hold
_RUN_KEYS = (
    "problem", "gamma", "lambda", "seed", "u0", "v0", "sample_every", "outputs",
    "t_end", "h", "x_limit", "t0", "converged_tol",
)


def _json_safe(value):
    """Recursively convert a payload to strict-JSON types.

    numpy scalars and arrays become Python numbers and lists; non-finite
    floats become null.  Returns (converted, number_of_nonfinite_floats).
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
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value), 0
    if isinstance(value, (int, np.integer)):
        return int(value), 0
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            return None, 1
        return value, 0
    return value, 0


def _dump_json(payload, path=None):
    safe, dropped = _json_safe(payload)
    text = json.dumps(safe, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return dropped


def _load_json_object(path, what):
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("%s must be a JSON object: %s" % (what, path))
    return payload


def _config_dict(args, keys):
    """The --config file of a subcommand whose arguments are ``keys``, or {}."""
    if args.config is None:
        return {}
    cfg = _load_json_object(args.config, "config")
    _check_keys(cfg, keys, "%s config" % args.command)
    return cfg


def _merged(args, cfg, attr, key=None, required=False, default=None):
    """CLI flag wins, then the --config file, then ``default`` (never in place of a 0)."""
    value = getattr(args, attr)
    if value is None:
        value = cfg.get(key or attr)
    if value is None and required:
        raise ValueError("missing required argument --%s" % (key or attr).replace("_", "-"))
    return default if value is None else value


def _resolve_problem(spec, base_dir):
    """Load a problem given inline, or as a file name relative to base_dir."""
    if isinstance(spec, str) and not spec.lstrip().startswith("{"):
        spec = os.path.join(base_dir, spec)
    return problem_from_json(spec)


def _out_path(out_dir, name):
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    if os.path.isabs(name):
        return name
    return os.path.join(out_dir, name)


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


def _run_setup(cfg, obj):
    """The parts of a run config that do not depend on gamma and lambda.

    Returns (u0, v0, sample_every, outputs).
    """
    seed = _as_int(cfg.get("seed", 0), "seed", least=0)
    if "u0" in cfg:
        u0 = np.asarray(cfg["u0"], dtype=float)
    else:
        u0 = np.random.default_rng(seed).standard_normal(obj.dim)
    if "v0" in cfg:
        v0 = np.asarray(cfg["v0"], dtype=float)
    else:
        v0 = np.zeros(obj.dim)

    sample_every = cfg.get("sample_every")  # checked by the integrator, which rejects 2.5 or true
    outputs = cfg.get("outputs")
    outputs = set(_OUTPUT_KINDS) if outputs is None else set(outputs)
    unknown = outputs - set(_OUTPUT_KINDS)
    if unknown:
        raise ValueError("unknown outputs %s; choose from %s" % (sorted(unknown), list(_OUTPUT_KINDS)))
    return u0, v0, sample_every, outputs


def _execute_run(cfg, base_dir, out_dir):
    obj = _resolve_problem(cfg["problem"], base_dir)
    params = params_mod.derive_params(float(cfg["gamma"]), float(cfg["lambda"]), obj.g.beta)
    warning_list = _feasibility_warnings(params)
    u0, v0, sample_every, outputs = _run_setup(cfg, obj)
    traj = dynamics.integrate(
        obj, params, u0, v0, float(cfg["t_end"]), float(cfg["h"]), sample_every=sample_every
    )
    return _finish_run(cfg, obj, params, traj, outputs, warning_list, out_dir)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing run warns once, not per numpy call
def _finish_run(cfg, obj, params, traj, outputs, warning_list, out_dir):
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

    rate_kwargs = {"x_limit": _parse_x_limit(cfg.get("x_limit"))}
    if "t0" in cfg:
        rate_kwargs["t0"] = float(cfg["t0"])
    if "converged_tol" in cfg:
        rate_kwargs["converged_tol"] = float(cfg["converged_tol"])
    try:
        rate_dict = rates_mod.classify_rate(traj, **rate_kwargs).to_dict()
    except ValueError as exc:
        rate_dict = {"regime": "undetermined", "error": str(exc)}
        warning_list.append("rate classification failed: %s" % exc)

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
        _dump_json(rate_dict, path)
        written.append(path)

    summary = {
        "params": params_mod.params_report(params),
        "final_residual": float(trace.residual[-1]),
        "final_velocity_norm": float(np.linalg.norm(traj.vs[-1])),
        "energy_monotone": not violations,
        "rate_report": rate_dict,
        "warnings": warning_list,
    }
    safe_summary, dropped = _json_safe(summary)
    if dropped:
        safe_summary["warnings"] = list(safe_summary["warnings"]) + [
            "%d non-finite values serialized as null" % dropped
        ]
    path = _out_path(out_dir, "summary.json")
    _dump_json(safe_summary, path)
    written.append(path)
    return safe_summary, written


def cmd_run(args):
    if args.config is None:
        raise ValueError("run requires --config FILE with the experiment description")
    cfg = _load_json_object(args.config, "config")
    _check_keys(cfg, _RUN_KEYS, "run config")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    summary, written = _execute_run(cfg, base_dir, args.out_dir)
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
    cfg = _config_dict(args, ("gamma", "lambda", "beta"))
    gamma = float(_merged(args, cfg, "gamma", required=True))
    lam = float(_merged(args, cfg, "lam", key="lambda", required=True))
    beta = float(_merged(args, cfg, "beta", required=True))
    params = params_mod.derive_params(gamma, lam, beta)
    if not params.rho_feasible:
        print(
            "warning: gamma=%g, lambda=%g, beta=%g fail the feasibility conditions"
            % (gamma, lam, beta),
            file=sys.stderr,
        )
    report = params_mod.params_report(params)
    if args.json:
        _dump_json(report)
    else:
        for key, value in report.items():
            print("%s = %r" % (key, value))
    return 0


# ---------------------------------------------------------------------------
# discrete


def cmd_discrete(args):
    cfg = _config_dict(args, ("problem", "lambda", "gamma", "x0", "x1", "max_iter", "tol", "out"))
    spec = _merged(args, cfg, "problem", required=True)
    # a problem file named in the config file is relative to that file, one
    # named by --problem to the working directory
    base_dir = os.getcwd() if args.problem is not None else os.path.dirname(os.path.abspath(args.config))
    obj = _resolve_problem(spec, base_dir)
    lam = float(_merged(args, cfg, "lam", key="lambda", required=True))
    gamma = float(_merged(args, cfg, "gamma", required=True))
    x0 = np.asarray(_merged(args, cfg, "x0", required=True), dtype=float)
    x1_raw = _merged(args, cfg, "x1")
    x1 = x0 if x1_raw is None else np.asarray(x1_raw, dtype=float)
    max_iter = _merged(args, cfg, "max_iter", default=10_000)
    tol = float(_merged(args, cfg, "tol", default=1e-8))
    out_name = _merged(args, cfg, "out", default="history.csv")

    history = discrete_mod.run_inertial(obj, lam, gamma, x0, x1, max_iter, tol)
    path = _out_path(args.out_dir, out_name)
    discrete_mod.write_history_csv(history, path)
    if args.json:
        _dump_json(
            {
                "converged": history.converged,
                "iterations": history.iterations,
                "final_residual": float(history.residuals[-1]),
                "final_objective": float(history.objective_values[-1]),
                "history": path,
            }
        )
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


def _parse_x_limit(value):
    """The limit point given as "auto" (None), a number or a list of numbers.

    The list may hold the tokens of ``--x-limit``, which are strings.
    """
    if value is None or value == "auto" or value == ["auto"]:
        return None
    return np.atleast_1d(np.asarray(value, dtype=float))


def cmd_rates(args):
    cfg = _config_dict(args, ("traj", "x_limit", "t0", "converged_tol"))
    traj_path = _merged(args, cfg, "traj", required=True)
    traj = dynamics.read_trajectory_csv(traj_path)
    x_limit = _parse_x_limit(_merged(args, cfg, "x_limit"))
    t0_raw = _merged(args, cfg, "t0")
    t0 = None if t0_raw in (None, "auto") else float(t0_raw)
    tol_raw = _merged(args, cfg, "converged_tol")
    converged_tol = None if tol_raw is None else float(tol_raw)
    report = rates_mod.classify_rate(traj, x_limit=x_limit, t0=t0, converged_tol=converged_tol)
    if args.json:
        _dump_json(report.to_dict())
    else:
        for key, value in report.to_dict().items():
            print("%s = %r" % (key, value))
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args):
    cfg = _config_dict(args, ("beta", "gamma_min", "gamma_max", "gamma_count", "lambda_min",
                              "lambda_max", "lambda_count", "run_config"))
    beta = float(_merged(args, cfg, "beta", required=True))
    gammas = np.linspace(
        float(_merged(args, cfg, "gamma_min", default=0.1)),
        float(_merged(args, cfg, "gamma_max", default=1.7)),
        _as_int(_merged(args, cfg, "gamma_count", default=25), "gamma_count"),
    )
    lam_lo = float(_merged(args, cfg, "lambda_min", default=1e-3))
    lam_hi = float(_merged(args, cfg, "lambda_max", default=1.0))
    lam_count = _as_int(_merged(args, cfg, "lambda_count", default=25), "lambda_count")
    if args.log_lambda:
        lambdas = np.geomspace(lam_lo, lam_hi, lam_count)
    else:
        lambdas = np.linspace(lam_lo, lam_hi, lam_count)

    grid_gamma, grid_lam = np.meshgrid(gammas, lambdas, indexing="ij")
    params = params_mod.derive_params(grid_gamma.ravel(), grid_lam.ravel(), beta)
    report = params_mod.params_report(params)
    csv_path = _out_path(args.out_dir, "sweep.csv")
    table = np.column_stack(list(report.values()))  # the two flags become 1.0 and 0.0, written 1 and 0
    dynamics._write_csv(csv_path, list(report), table)

    feasible = params.rho_feasible
    points = feasible.size
    n_feasible = int(np.count_nonzero(feasible))
    aborted = []
    run_config = _merged(args, cfg, "run_config")
    if run_config is not None:
        template = _load_json_object(run_config, "run config template")
        _check_keys(template, _RUN_KEYS, "run config template")
        base_dir = os.path.dirname(os.path.abspath(run_config))
        aborted = _sweep_runs(template, base_dir, params.gamma[feasible], params.lam[feasible],
                              args.out_dir or ".")

    if args.json:
        _dump_json(
            {
                "points": points,
                "feasible": n_feasible,
                "sweep": csv_path,
                "runs": n_feasible if run_config is not None else 0,
                "aborted": aborted,
            }
        )
    else:
        print("wrote %s" % csv_path)
        print("%d of %d grid points feasible" % (n_feasible, points))
        if run_config is not None:
            print("ran %d feasible points, %d aborted" % (n_feasible, len(aborted)))
    return 2 if aborted else 0


def _sweep_runs(template, base_dir, gammas, lambdas, parent_out):
    """Run the template at every (gamma, lambda) point as one ensemble; return the aborted runs.

    Each point's run directory gets what ``run`` writes for the template at
    that point's gamma and lambda, in grid order.
    """
    obj = _resolve_problem(template["problem"], base_dir)
    u0, v0, sample_every, outputs = _run_setup(template, obj)
    derived = params_mod.derive_params(gammas, lambdas, obj.g.beta)
    params_seq = [derived.at(i) for i in range(len(gammas))]
    outcomes = dynamics.integrate_ensemble(
        obj, params_seq, u0, v0, float(template["t_end"]), float(template["h"]),
        sample_every=sample_every,
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
        _finish_run(template, obj, params, outcome, outputs, warning_list, out_dir)
    return aborted


# ---------------------------------------------------------------------------
# parser


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

    p_run = sub.add_parser("run", parents=[common], help="integrate a flow experiment from a JSON config")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check-params", parents=[common], help="derive constants and feasibility verdicts")
    p_check.add_argument("--gamma", type=float)
    p_check.add_argument("--lambda", dest="lam", type=float)
    p_check.add_argument("--beta", type=float)
    p_check.set_defaults(func=cmd_check_params)

    p_disc = sub.add_parser("discrete", parents=[common], help="run the inertial iteration at unit step")
    p_disc.add_argument("--problem", help="problem JSON file (or inline JSON object text)")
    p_disc.add_argument("--lambda", dest="lam", type=float)
    p_disc.add_argument("--gamma", type=float, help="constant damping value")
    p_disc.add_argument("--x0", type=float, nargs="+")
    p_disc.add_argument("--x1", type=float, nargs="+", help="second iterate (default: x0)")
    p_disc.add_argument("--max-iter", dest="max_iter", type=int)
    p_disc.add_argument("--tol", type=float)
    p_disc.add_argument("--out", help="history CSV name (default history.csv)")
    p_disc.set_defaults(func=cmd_discrete)

    p_rates = sub.add_parser("rates", parents=[common], help="classify the decay rate of a trajectory CSV")
    p_rates.add_argument("--traj", help="trajectory CSV written by run")
    p_rates.add_argument("--x-limit", dest="x_limit", nargs="+", help="'auto' or the limit coordinates")
    p_rates.add_argument("--t0", help="'auto' or the fit-window start time")
    p_rates.add_argument("--converged-tol", dest="converged_tol", type=float,
                         help="reject trajectories whose final speed exceeds this")
    p_rates.set_defaults(func=cmd_rates)

    p_sweep = sub.add_parser("sweep", parents=[common], help="feasibility grid, optionally a run per feasible point")
    p_sweep.add_argument("--beta", type=float)
    p_sweep.add_argument("--gamma-min", dest="gamma_min", type=float)
    p_sweep.add_argument("--gamma-max", dest="gamma_max", type=float)
    p_sweep.add_argument("--gamma-count", dest="gamma_count", type=int)
    p_sweep.add_argument("--lambda-min", dest="lambda_min", type=float)
    p_sweep.add_argument("--lambda-max", dest="lambda_max", type=float)
    p_sweep.add_argument("--lambda-count", dest="lambda_count", type=int)
    p_sweep.add_argument("--log-lambda", dest="log_lambda", action="store_true",
                         help="space the lambda grid geometrically")
    p_sweep.add_argument("--run-config", dest="run_config", metavar="FILE",
                         help="experiment template to run at every feasible point")
    p_sweep.set_defaults(func=cmd_sweep)
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
    except (ValueError, KeyError, TypeError, OSError) as exc:
        if isinstance(exc, KeyError):
            print("error: missing config key %s" % exc, file=sys.stderr)
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
