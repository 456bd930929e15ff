"""Benchmark of the proxdyn command line tool, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each was chosen):

readme_run   ``run`` on the README experiment at h = 0.01, then ``rates --x-limit 0.5``
sweep_runs   a 100x100 ``sweep`` map, then an 8x8 ``sweep --run-config``
wide_lasso   ``run`` on a seeded dim-400 lasso, then ``discrete`` on it

The inputs are generated from the seed into ``.bench_cache/inputs``.  A fresh
worker process (worker.py) imports proxdyn from ``src/`` and calls
``proxdyn.cli.main`` on the workload's commands, round after round, for S
seconds.  This process then checks the outputs of the first round against
its own computations (checks.py) and every later round byte for byte
against the first, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``scaled_wall_s`` (median over the rounds
of a round's command time, each command rescaled by the machine's speed
measured just before and after it), ``setup_s`` (median time from launching
an interpreter until ``proxdyn.cli`` is imported, one launch after each
round, rescaled the same way) and ``peak_rss_mb`` (peak RSS of the worker).  With ``--trace 1`` the
worker alternates untraced and traced rounds and the metrics are the
per-layer numbers of tracer.py.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

# BLAS threads of every process the benchmark starts: one, so that a run
# stays on the one core whose speed the worker's reference loop measures.
BLAS_THREADS = "1"
# Every run must end within this many seconds.
RUN_LIMIT_S = 170

README_CONFIG = {
    "problem": {"name": "lasso", "M": [[1.0]], "y": [1.0], "mu": 0.5},
    "gamma": 1.0,
    "lambda": 0.02,
    "u0": [1.5],
    "v0": [0.0],
    "t_end": 100.0,
    "h": 0.001,
    "outputs": ["trajectory", "energy", "rates", "summary"],
    "seed": 0,
}
# readme_run: the README experiment's horizon at a tenth of its steps, so a
# round takes about a second.
README_RUN = dict(README_CONFIG, h=0.01)
# The sweep's runs: the README experiment cut to 500 steps.
SWEEP_TEMPLATE = dict(README_CONFIG, t_end=0.5)
SWEEP_BETA = 1.0
SWEEP_MAP = (0.1, 1.7, 100, 1e-3, 1.0, 100)
SWEEP_COARSE = (0.4, 1.6, 8, 1e-3, 1.0, 8)

WIDE_DIM = 400
WIDE_NONZEROS = 20
WIDE_NOISE = 0.01
WIDE_MU = 0.05
WIDE_RUN = {"gamma": 1.0, "lambda": 0.01, "t_end": 0.5, "h": 0.001}
WIDE_DISCRETE = {"lambda": 0.5, "gamma": 2.0, "tol": 1e-8}


def _write_json(path, payload):
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _read_stdout(round_dir, index):
    with open(os.path.join(round_dir, "cmd%d.stdout" % index)) as fh:
        return json.loads(fh.read())


def _sweep_argv(grid, out, *extra):
    names = ("--gamma-min", "--gamma-max", "--gamma-count", "--lambda-min", "--lambda-max", "--lambda-count")
    argv = ["sweep", "--beta", repr(SWEEP_BETA), "--log-lambda", "--out-dir", out, "--json", *extra]
    for name, value in zip(names, grid):
        argv += [name, repr(value)]
    return argv


# ---------------------------------------------------------------------------
# workloads: prepare(seed) -> (commands, context); check(round_dir, context)


def prepare_readme_run(seed):
    inputs = CACHE / "inputs" / "readme_run"
    inputs.mkdir(parents=True, exist_ok=True)
    _write_json(inputs / "readme.json", README_RUN)
    commands = [
        ["run", "--config", str(inputs / "readme.json"), "--out-dir", "{out}/run", "--json"],
        ["rates", "--traj", "{out}/run/trajectory.csv", "--x-limit", "0.5", "--json"],
    ]
    return commands, None


def check_readme_run(round_dir, context):
    checks.check_lasso1_run(os.path.join(round_dir, "run"), README_RUN)
    checks.check_rates_report(_read_stdout(round_dir, 1), README_RUN["gamma"], README_RUN["lambda"])


def prepare_sweep_runs(seed):
    inputs = CACHE / "inputs" / "sweep_runs"
    inputs.mkdir(parents=True, exist_ok=True)
    _write_json(inputs / "template.json", SWEEP_TEMPLATE)
    commands = [
        _sweep_argv(SWEEP_MAP, "{out}/map"),
        _sweep_argv(SWEEP_COARSE, "{out}/runs", "--run-config", str(inputs / "template.json")),
    ]
    return commands, None


def check_sweep_runs(round_dir, context):
    rows, _ = checks.check_sweep_csv(
        os.path.join(round_dir, "map", "sweep.csv"), SWEEP_BETA, checks.sweep_grid(*SWEEP_MAP))
    report = _read_stdout(round_dir, 0)
    checks.require(report["points"] == SWEEP_MAP[2] * SWEEP_MAP[5] and report["feasible"] == len(rows),
                   "sweep map reports %r points, %r feasible" % (report["points"], report["feasible"]))
    checks.check_sweep_runs(os.path.join(round_dir, "runs"), _read_stdout(round_dir, 1),
                            SWEEP_TEMPLATE, SWEEP_BETA, checks.sweep_grid(*SWEEP_COARSE))


def generate_wide_lasso(seed, inputs):
    """Gaussian M scaled to |M|_2 = 1, a sparse ground truth and small noise."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((WIDE_DIM, WIDE_DIM))
    M /= np.linalg.norm(M, 2)
    truth = np.zeros(WIDE_DIM)
    truth[rng.choice(WIDE_DIM, WIDE_NONZEROS, replace=False)] = rng.standard_normal(WIDE_NONZEROS)
    y = M @ truth + WIDE_NOISE * rng.standard_normal(WIDE_DIM)
    u0 = 0.1 * rng.standard_normal(WIDE_DIM)
    np.savez(inputs / "problem.npz", M=M, y=y)
    _write_json(inputs / "problem.json", {"name": "lasso", "M": M.tolist(), "y": y.tolist(), "mu": WIDE_MU})
    zeros = [0.0] * WIDE_DIM
    _write_json(inputs / "run.json", dict(WIDE_RUN, problem="problem.json", u0=u0.tolist(), v0=zeros))
    _write_json(inputs / "discrete.json", dict(WIDE_DISCRETE, problem="problem.json", x0=zeros))
    (inputs / "complete").touch()


def prepare_wide_lasso(seed):
    inputs = CACHE / "inputs" / ("wide_lasso-dim%d-seed%d" % (WIDE_DIM, seed))
    if not (inputs / "complete").exists():
        inputs.mkdir(parents=True, exist_ok=True)
        generate_wide_lasso(seed, inputs)
    commands = [
        ["run", "--config", str(inputs / "run.json"), "--out-dir", "{out}/run", "--json"],
        ["discrete", "--config", str(inputs / "discrete.json"), "--out-dir", "{out}/disc", "--json"],
    ]
    return commands, inputs


def check_wide_lasso(round_dir, inputs):
    with np.load(inputs / "problem.npz") as data:
        M, y = data["M"], data["y"]
    with open(inputs / "run.json") as fh:
        run_cfg = json.load(fh)
    with open(inputs / "discrete.json") as fh:
        disc_cfg = json.load(fh)
    checks.check_wide_run(os.path.join(round_dir, "run"), M, y, run_cfg, WIDE_MU)
    checks.check_discrete(os.path.join(round_dir, "disc", "history.csv"), _read_stdout(round_dir, 1),
                          M, y, WIDE_MU, disc_cfg)


WORKLOADS = {
    "readme_run": (prepare_readme_run, check_readme_run),
    "sweep_runs": (prepare_sweep_runs, check_sweep_runs),
    "wide_lasso": (prepare_wide_lasso, check_wide_lasso),
}


# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _files(root):
    return sorted(os.path.relpath(os.path.join(dirpath, name), root)
                  for dirpath, _, names in os.walk(root) for name in names)


def compare_rounds(first, other):
    """A later round must write the same files as the first, byte for byte."""
    files = _files(first)
    checks.require(files == _files(other), "%s wrote other files than the first round" % other)
    for path in files:
        checks.require(filecmp.cmp(os.path.join(first, path), os.path.join(other, path), shallow=False),
                       "%s of %s differs from the first round's" % (path, other))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # On SIGTERM, raise instead of dying: subprocess.run then kills the
    # worker and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit("terminated"))
    if not (SRC / "proxdyn" / "cli.py").is_file():
        sys.exit("no proxdyn sources under %s" % SRC)

    prepare, check = WORKLOADS[args.workload]
    commands, context = prepare(args.seed)
    env = child_env()

    run_dir = CACHE / "runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        spec = {"src": str(SRC), "run_dir": str(run_dir), "commands": commands,
                "seconds": args.seconds, "trace": bool(args.trace)}
        _write_json(run_dir / "spec.json", spec)
        try:
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(run_dir / "spec.json")],
                           env=env, stdout=sys.stderr, check=True,
                           timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            sys.exit("worker failed: %s" % exc)
        with open(run_dir / "result.json") as fh:
            result = json.load(fh)
        rounds = result["rounds"]
        attempted = len(rounds) * len(commands)
        failed = sum(code != 0 for r in rounds for code in r["codes"])
        whole = [r for r in rounds if all(code == 0 for code in r["codes"])]
        correct = True
        try:
            checks.require(whole, "no round ran without a failed command")
            check(whole[0]["dir"], context)
            for r in whole[1:]:
                compare_rounds(whole[0]["dir"], r["dir"])
        except checks.CheckFailed as exc:
            correct = False
            print("check failed: %s" % exc, file=sys.stderr)

        if args.trace:
            with open(run_dir / "spans.json") as fh:
                dump = json.load(fh)
            spans_dir = CACHE / "spans"
            spans_dir.mkdir(exist_ok=True)
            shutil.copy(run_dir / "spans.json", spans_dir / ("%s-%d.json" % (args.workload, args.seed)))
            try:
                metrics = tracer.layer_metrics(dump, [r["wall_s"] for r in rounds if not r["traced"]])
            except ValueError as exc:
                correct = False
                print("check failed: %s" % exc, file=sys.stderr)
                metrics = {}
        else:
            metrics = {
                "scaled_wall_s": {"value": statistics.median(r["scaled_wall_s"] for r in rounds), "unit": "s"},
                "setup_s": {"value": statistics.median(la["scaled_s"] for la in result["launches"]), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for r in rounds:
        print("%s seed %d round%s: %.3f s = %s s; scaled %.3f s; references %s s" % (
            args.workload, args.seed, " (traced)" if r["traced"] else "", r["wall_s"],
            " + ".join("%.3f" % t for t in r["command_s"]), r["scaled_wall_s"],
            " ".join("%.4f" % t for t in r["refs"])), file=sys.stderr)
    if not args.trace:
        print("%s seed %d launches: %s" % (args.workload, args.seed, " ".join(
            "%.4f" % la["s"] for la in result["launches"])), file=sys.stderr)
        print("%s seed %d scaled launches: %s" % (args.workload, args.seed, " ".join(
            "%.4f" % la["scaled_s"] for la in result["launches"])), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
