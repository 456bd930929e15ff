"""Each correctness check of the benchmark rejects a perturbed real output.

The outputs come from the program itself, on smaller inputs than the
workloads use.  Run with ``python3 -m pytest bench`` from the root of the
repository; the Tier-1 suite does not collect this file.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import proxdyn.cli as cli  # noqa: E402

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402

SHORT_README = dict(bench_run.README_CONFIG, t_end=5.0)
SWEEP_TEMPLATE = dict(bench_run.README_CONFIG, t_end=0.2)
SWEEP_GRID = (0.4, 1.6, 3, 1e-3, 1.0, 4)
WIDE_DIM = 30


def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    assert code == 0
    return json.loads(out.getvalue())


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def perturb_csv(path, change):
    """Apply ``change(data)`` in place to the rows of a CSV and write it back."""
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    change(data)
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def perturb_json(path, change):
    with open(path) as fh:
        payload = json.load(fh)
    change(payload)
    write_json(path, payload)


def copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def rejects(fn, *args, match=None):
    with pytest.raises(checks.CheckFailed, match=match):
        fn(*args)


# ---------------------------------------------------------------------------
# the dim-1 lasso run and the rates report


@pytest.fixture(scope="module")
def lasso1_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("lasso1")
    call("run", "--config", write_json(root / "cfg.json", SHORT_README), "--out-dir", root / "run", "--json")
    return root / "run"


def test_lasso1_run_accepts_the_program_output(lasso1_run):
    checks.check_lasso1_run(str(lasso1_run), SHORT_README)


def test_lasso1_run_rejects_a_trajectory_shifted_by_1e8_of_its_scale(lasso1_run, tmp_path):
    run = copy(lasso1_run, tmp_path)

    def shift(data):
        data[:, 1] += 1e-8

    perturb_csv(run / "trajectory.csv", shift)
    rejects(checks.check_lasso1_run, str(run), SHORT_README, match="^x differs")


def test_lasso1_run_rejects_a_wrong_energy_column(lasso1_run, tmp_path):
    run = copy(lasso1_run, tmp_path)

    def bump(data):
        data[7, 1] += 1e-6

    perturb_csv(run / "energy.csv", bump)
    rejects(checks.check_lasso1_run, str(run), SHORT_README, match="energy.csv")


def test_lasso1_run_rejects_a_summary_without_monotone_energy(lasso1_run, tmp_path):
    run = copy(lasso1_run, tmp_path)
    perturb_json(run / "summary.json", lambda summary: summary.update(energy_monotone=False))
    rejects(checks.check_lasso1_run, str(run), SHORT_README)


def test_energy_check_rejects_one_rising_sample(lasso1_run):
    t, x, v, a = checks.read_trajectory(str(lasso1_run / "trajectory.csv"))
    M, y = np.array([[1.0]]), np.array([1.0])
    value = lambda z: checks.lasso_value(M, y, 0.5, z)  # noqa: E731
    e = checks.energy(value, 1.0, 0.02, 1.0, x, v, a)
    checks.check_energy_never_rises(e, "program output")
    e[100] = e[99] + 1e-9 * (1.0 + np.max(np.abs(e)))
    rejects(checks.check_energy_never_rises, e, "perturbed")


def test_rates_check_accepts_the_slow_rate_and_rejects_others(tmp_path):
    # A long enough run for the slow mode to dominate the fit window.
    cfg = dict(bench_run.README_CONFIG, t_end=60.0)
    call("run", "--config", write_json(tmp_path / "cfg.json", cfg), "--out-dir", tmp_path, "--json")
    report = call("rates", "--traj", tmp_path / "trajectory.csv", "--x-limit", "0.5", "--json")
    checks.check_rates_report(report, 1.0, 0.02)
    rejects(checks.check_rates_report, dict(report, a2=report["a2"] * 1.02), 1.0, 0.02)
    rejects(checks.check_rates_report, dict(report, regime="polynomial"), 1.0, 0.02)


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    template = write_json(root / "template.json", SWEEP_TEMPLATE)
    report = call(*bench_run._sweep_argv(SWEEP_GRID, root / "out", "--run-config", template))
    return root / "out", report


def test_sweep_checks_accept_the_program_output(sweep):
    out, report = sweep
    assert checks.check_sweep_runs(str(out), report, SWEEP_TEMPLATE, 1.0, checks.sweep_grid(*SWEEP_GRID)) > 0


def test_sweep_csv_check_rejects_one_flipped_feasibility_cell(sweep, tmp_path):
    out = copy(sweep[0], tmp_path)
    header = (out / "sweep.csv").read_text().splitlines()[0].split(",")
    col = header.index("rho_feasible")

    def flip(data):
        data[5, col] = 1 - data[5, col]

    perturb_csv(out / "sweep.csv", flip)
    rejects(checks.check_sweep_csv, str(out / "sweep.csv"), 1.0, checks.sweep_grid(*SWEEP_GRID),
            match="row 6: rho_feasible")


def test_sweep_runs_check_rejects_a_missing_run(sweep, tmp_path):
    out = copy(sweep[0], tmp_path)
    shutil.rmtree(sorted(out.glob("run_g*"))[0])
    rejects(checks.check_sweep_runs, str(out), sweep[1], SWEEP_TEMPLATE, 1.0, checks.sweep_grid(*SWEEP_GRID))


def test_sweep_runs_check_rejects_an_aborted_run(sweep):
    out, report = sweep
    aborted = dict(report, aborted=[{"gamma": 1.0, "lambda": 0.01, "error": "diverged"}])
    rejects(checks.check_sweep_runs, str(out), aborted, SWEEP_TEMPLATE, 1.0, checks.sweep_grid(*SWEEP_GRID))


def test_sweep_runs_check_rejects_one_wrong_run(sweep, tmp_path):
    out = copy(sweep[0], tmp_path)

    def shift(data):
        data[-1, 1] += 1e-8

    perturb_csv(sorted(out.glob("run_g*"))[-1] / "trajectory.csv", shift)
    rejects(checks.check_sweep_runs, str(out), sweep[1], SWEEP_TEMPLATE, 1.0, checks.sweep_grid(*SWEEP_GRID))


# ---------------------------------------------------------------------------
# wide lasso and discrete, at a small dimension


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(7)
    M = rng.standard_normal((WIDE_DIM, WIDE_DIM))
    M /= np.linalg.norm(M, 2)
    y = M @ np.where(rng.random(WIDE_DIM) < 0.2, 1.0, 0.0) + 0.01 * rng.standard_normal(WIDE_DIM)
    write_json(root / "problem.json", {"name": "lasso", "M": M.tolist(), "y": y.tolist(), "mu": 0.05})
    run_cfg = dict(bench_run.WIDE_RUN, t_end=0.05, problem="problem.json",
                   u0=(0.1 * rng.standard_normal(WIDE_DIM)).tolist(), v0=[0.0] * WIDE_DIM)
    disc_cfg = dict(bench_run.WIDE_DISCRETE, problem="problem.json", x0=[0.0] * WIDE_DIM)
    call("run", "--config", write_json(root / "run.json", run_cfg), "--out-dir", root / "run", "--json")
    report = call("discrete", "--config", write_json(root / "disc.json", disc_cfg), "--out-dir", root / "disc",
                  "--json")
    return root, M, y, run_cfg, disc_cfg, report


def test_wide_checks_accept_the_program_output(wide):
    root, M, y, run_cfg, disc_cfg, report = wide
    checks.check_wide_run(str(root / "run"), M, y, run_cfg, 0.05)
    assert checks.check_discrete(str(root / "disc" / "history.csv"), report, M, y, 0.05, disc_cfg) > 2


def test_wide_run_check_rejects_one_wrong_acceleration(wide, tmp_path):
    root, M, y, run_cfg, _, _ = wide
    run = copy(root / "run", tmp_path)

    def bump(data):
        data[20, 1 + 2 * WIDE_DIM + 3] += 1e-8

    perturb_csv(run / "trajectory.csv", bump)
    rejects(checks.check_wide_run, str(run), M, y, run_cfg, 0.05, match="x''")


def test_wide_run_check_rejects_a_step_that_is_not_rk4(wide, tmp_path):
    # Moving every later sample keeps x'' = F(x, x') consistent only if x''
    # moves too, so shift x, x' and x'' of the last samples together.
    root, M, y, run_cfg, _, _ = wide
    run = copy(root / "run", tmp_path)

    def shift(data):
        xs = data[-1, 1:1 + WIDE_DIM] + 1e-8
        vs = data[-1, 1 + WIDE_DIM:1 + 2 * WIDE_DIM]
        data[-1, 1:1 + WIDE_DIM] = xs
        field = checks.lasso_step_target(M, y, 0.05, run_cfg["lambda"], xs) - run_cfg["gamma"] * vs - xs
        data[-1, 1 + 2 * WIDE_DIM:] = field

    perturb_csv(run / "trajectory.csv", shift)
    rejects(checks.check_wide_run, str(run), M, y, run_cfg, 0.05, match="RK4 step")


def test_discrete_check_rejects_one_broken_row(wide, tmp_path):
    root, M, y, _, disc_cfg, report = wide
    history = copy(root / "disc", tmp_path) / "history.csv"

    def bump(data):
        data[10, 4] += 1e-8

    perturb_csv(history, bump)
    rejects(checks.check_discrete, str(history), report, M, y, 0.05, disc_cfg, match="iterate")


def test_discrete_check_rejects_wrong_residual_or_objective_columns(wide, tmp_path):
    root, M, y, _, disc_cfg, report = wide
    for column in (-2, -1):
        history = copy(root / "disc", tmp_path / str(column)) / "history.csv"

        def bump(data):
            data[10, column] *= 1 + 1e-8

        perturb_csv(history, bump)
        rejects(checks.check_discrete, str(history), report, M, y, 0.05, disc_cfg)


def test_discrete_check_rejects_a_report_that_disagrees_with_the_history(wide):
    root, M, y, _, disc_cfg, report = wide
    history = str(root / "disc" / "history.csv")
    rejects(checks.check_discrete, history, dict(report, iterations=report["iterations"] + 1), M, y, 0.05, disc_cfg)
    rejects(checks.check_discrete, history, dict(report, converged=False), M, y, 0.05, disc_cfg)


# ---------------------------------------------------------------------------
# rounds and traces


def test_round_comparison_rejects_one_changed_byte(lasso1_run, tmp_path):
    first, other = tmp_path / "a", tmp_path / "b"
    shutil.copytree(lasso1_run, first)
    shutil.copytree(lasso1_run, other)
    bench_run.compare_rounds(str(first), str(other))
    text = (other / "summary.json").read_text()
    (other / "summary.json").write_text(text.replace("1", "2", 1))
    rejects(bench_run.compare_rounds, str(first), str(other))


def test_layer_metrics_reject_counts_that_differ_between_rounds(tmp_path):
    trace = tracer.Tracer()
    cfg = write_json(tmp_path / "cfg.json", dict(bench_run.README_CONFIG, t_end=0.01))
    for t_end in (0.01, 0.02):
        perturb_json(cfg, lambda c: c.update(t_end=t_end))
        with trace.installed(cli), trace.round():
            call("run", "--config", cfg, "--out-dir", tmp_path / "out", "--json")
    with pytest.raises(ValueError, match="dynamics.steps"):
        tracer.layer_metrics(trace.dump(), [1.0])
