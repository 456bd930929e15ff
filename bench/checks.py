"""Correctness checks for the outputs of the benchmark's workloads.

Every check recomputes what it verifies with its own numpy code: the closed
form of the dim-1 lasso flow, the paper's constants A, B, C, c, the energy
functional, soft thresholding, one RK4 step and the relaxed inertial
recursion.  Nothing here imports proxdyn, so a defect in the program cannot
also hide in the check.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Agreement allowed between the program and a recomputation of the same
# quantity, relative to the quantity's scale.  Both sides run float64; they
# differ by summation order only (gemv against gemm, or one closed form
# against RK4 at h = 1e-3, which agrees to about 1e-14 here), so 1e-10 leaves
# a wide margin while still catching a shift of 1e-8 of the scale.
REL_TOL = 1e-10
# One RK4 step is compared by its increment: STEP_TOL of the row's largest
# increment plus a few ulps of its largest coordinate, the rounding of the
# stored row.  A change of 1e-6 in one stage's weight moves the increment by
# about 1.7e-7 of itself.
STEP_TOL = 1e-8
STEP_ULPS = 8 * np.finfo(float).eps
# A rise of the recomputed energy between samples larger than this share of
# the energy's scale counts as a rise; rounding of the recomputation is about
# 1e-15 of that scale.
ENERGY_RISE_TOL = 1e-12


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path):
    """Header names and a 2-D float array of the rows of a numeric CSV file."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape[1] == len(header), "%s: %d columns under a %d-name header"
            % (path, data.shape[1], len(header)))
    return header, data


def read_trajectory(path):
    """(t, x, v, a) from a `t,x_*,v_*,a_*` trajectory CSV."""
    header, data = read_csv(path)
    n = (len(header) - 1) // 3
    require(header[0] == "t" and len(header) == 1 + 3 * n, "%s: not a trajectory header" % path)
    return data[:, 0], data[:, 1:1 + n], data[:, 1 + n:1 + 2 * n], data[:, 1 + 2 * n:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_uniform_times(t, interval):
    steps = t / interval
    require(np.array_equal(np.round(steps), np.arange(len(t)))
            and np.max(np.abs(steps - np.arange(len(t)))) < 1e-6,
            "sample times are not multiples of the sample interval %g" % interval)


# ---------------------------------------------------------------------------
# the paper's constants and energy


def flow_constants(gamma, lam, beta):
    """A, B, C and c of the energy analysis; broadcasts over numpy arrays.

    Also returns the magnitude of the largest term of each of A, B and C, the
    scale against which rounding of the three is judged.
    """
    gamma, lam, beta = (np.asarray(val, dtype=float) for val in (gamma, lam, beta))
    lb = lam * beta
    l1_sq = np.maximum((gamma + 1) ** 2, (gamma + 2) * ((1 + lb) ** 2 + 1))
    l2_sq = np.maximum((gamma + 1) ** 2 + gamma * lb, (2 + lb) ** 2 + gamma * (2 + lb))
    lsq = np.minimum(np.sqrt(l1_sq), np.sqrt(l2_sq)) ** 2
    a_terms = (gamma / (2 * lam), beta / 2 * (lsq + 2 * gamma ** 2 + 1))
    b_terms = (gamma / (2 * lam * lsq), beta / 2 * (lsq + gamma ** 2 + 1))
    c_terms = ((2 * lsq + 1) / (lsq + 1) ** 2 * gamma ** 2, 3 * beta * gamma * lam, np.ones_like(lsq))
    return {
        "A": a_terms[1] - a_terms[0],
        "B": b_terms[1] - b_terms[0],
        "C": c_terms[1] - c_terms[0] - c_terms[2],
        "c": lsq / (lsq + 1),
        "scale_A": np.maximum(*a_terms),
        "scale_B": np.maximum(*b_terms),
        "scale_C": np.maximum(np.maximum(*c_terms[:2]), 1.0),
    }


def soft(x, thresh):
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def lasso_value(M, y, mu, x):
    r = x @ M.T - y
    return mu * np.sum(np.abs(x), axis=-1) + 0.5 * np.sum(r * r, axis=-1)


def lasso_step_target(M, y, mu, lam, x):
    """prox_{lam f}(x - lam grad g(x)) for the lasso, on a point or a stack."""
    return soft(x - lam * ((x @ M.T - y) @ M), lam * mu)


def energy(value, gamma, lam, beta, x, v, a):
    """E = (f+g)(a + gamma v + x) + |a + c gamma v|^2/(2 lam) - C |v|^2/(2 lam)."""
    k = flow_constants(gamma, lam, beta)
    w = a + k["c"] * gamma * v
    return (value(a + gamma * v + x) + np.sum(w * w, axis=-1) / (2 * lam)
            - k["C"] * np.sum(v * v, axis=-1) / (2 * lam))


def check_energy_never_rises(e, what):
    tol = ENERGY_RISE_TOL * (1.0 + np.max(np.abs(e)))
    rise = np.diff(e)
    require(np.all(rise <= tol), "%s: recomputed energy rises by %.3g (> %.3g) at sample %d"
            % (what, rise.max(), tol, int(np.argmax(rise)) + 1))


def check_close(actual, expected, scale, what):
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    require(err <= REL_TOL * scale, "%s differs from its recomputation by %.3g (scale %.3g)"
            % (what, err, scale))


def check_step(start, end, ours, what):
    """The stored step ``end - start`` against a recomputed increment ``ours``."""
    step = end - start
    tol = STEP_TOL * np.max(np.abs(step)) + STEP_ULPS * np.max(np.abs(end))
    err = float(np.max(np.abs(step - ours)))
    require(err <= tol, "%s differs from its recomputation by %.3g (tolerance %.3g)" % (what, err, tol))


# ---------------------------------------------------------------------------
# the dim-1 lasso of the README experiment: M = [[1]], y = [1]


def lasso1_closed_form(gamma, lam, mu, x0, v0, t):
    """x, x', x'' of x'' + gamma x' + lam x = lam (1 - mu) from (x0, v0).

    On the branch (1 - lam) x + lam > lam mu, the soft threshold of the
    dim-1 lasso flow with M = [[1]], y = [1] is the affine map
    (1 - lam) x + lam (1 - mu), so the flow is this linear equation.  The
    roots of r^2 + gamma r + lam may be complex; the result is real.
    """
    disc = complex(gamma * gamma - 4 * lam)
    require(abs(disc) > 1e-9, "closed form is ill-conditioned at critical damping")
    r1 = (-gamma + np.sqrt(disc)) / 2
    r2 = (-gamma - np.sqrt(disc)) / 2
    d0 = x0 - (1 - mu)
    c1 = (v0 - r2 * d0) / (r1 - r2)
    c2 = d0 - c1
    e1 = c1 * np.exp(r1 * t)
    e2 = c2 * np.exp(r2 * t)
    return (1 - mu) + (e1 + e2).real, (r1 * e1 + r2 * e2).real, (r1 * r1 * e1 + r2 * r2 * e2).real


def check_lasso1_run(run_dir, cfg):
    """A `run` of the dim-1 lasso config ``cfg`` against the closed form.

    Checks trajectory.csv sample by sample, the energy recomputed from it,
    energy.csv against that recomputation, and the summary's verdict.
    """
    spec = cfg["problem"]
    require(spec["M"] == [[1.0]] and spec["y"] == [1.0], "not the dim-1 lasso with M = [[1]], y = [1]")
    gamma, lam, mu, h = cfg["gamma"], cfg["lambda"], spec["mu"], cfg["h"]
    t, x, v, a = read_trajectory(os.path.join(run_dir, "trajectory.csv"))
    require(x.shape[1] == 1, "trajectory is not one-dimensional")
    require(abs(t[-1] - cfg["t_end"]) < h, "trajectory ends at t=%g, not %g" % (t[-1], cfg["t_end"]))
    check_uniform_times(t, t[1] - t[0])
    require(np.all((1 - lam) * x[:, 0] + lam > lam * mu), "trajectory leaves the affine branch of the prox")
    xc, vc, ac = lasso1_closed_form(gamma, lam, mu, cfg["u0"][0], cfg["v0"][0], t)
    scale = abs(cfg["u0"][0] - (1 - mu)) + abs(cfg["v0"][0])
    check_close(x[:, 0], xc, scale, "x")
    check_close(v[:, 0], vc, scale, "x'")
    check_close(a[:, 0], ac, scale, "x''")

    M, y = np.array([[1.0]]), np.array([1.0])
    e = energy(lambda z: lasso_value(M, y, mu, z), gamma, lam, 1.0, x, v, a)
    check_energy_never_rises(e, run_dir)
    header, trace = read_csv(os.path.join(run_dir, "energy.csv"))
    require(header[:2] == ["t", "energy"] and len(trace) == len(t), "energy.csv does not match the trajectory")
    check_close(trace[:, 1], e, 1.0 + np.max(np.abs(e)), "energy.csv")
    summary = read_json(os.path.join(run_dir, "summary.json"))
    require(summary["energy_monotone"] is True, "summary.json does not report monotone energy")


def slow_rate(gamma, lam):
    """Decay rate of the slow mode, the smaller root of r^2 - gamma r + lam."""
    return (gamma - np.sqrt(gamma * gamma - 4 * lam)) / 2


def check_rates_report(report, gamma, lam):
    require(report["regime"] == "exponential", "rates reports regime %r, not exponential" % report["regime"])
    expected = slow_rate(gamma, lam)
    require(abs(report["a2"] - expected) <= 0.01 * expected,
            "rates reports a2 = %r, more than 1%% from the slow rate %r" % (report["a2"], expected))


# ---------------------------------------------------------------------------
# sweep


def sweep_grid(gamma_min, gamma_max, gamma_count, lambda_min, lambda_max, lambda_count):
    """The (gamma, lambda) points of a log-lambda sweep, gamma outer."""
    g, lam = np.meshgrid(np.linspace(gamma_min, gamma_max, gamma_count),
                         np.geomspace(lambda_min, lambda_max, lambda_count), indexing="ij")
    return g.ravel(), lam.ravel()


def check_sweep_csv(path, beta, grid):
    """sweep.csv's feasibility flags against A, B, C recomputed on ``grid``.

    Points within rounding of the boundary (a constant within 1e-12 of its
    largest term) are not compared.  Returns the rows of the feasible points
    and the column index of each header name.
    """
    header, data = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    gammas, lambdas = grid
    require(len(data) == len(gammas), "sweep.csv has %d rows for %d grid points" % (len(data), len(gammas)))
    check_close(data[:, col["gamma"]], gammas, 1.0, "gamma column")
    check_close(data[:, col["lambda"]], lambdas, 1.0, "lambda column")
    require(np.all(data[:, col["beta"]] == beta), "beta column is not %g" % beta)
    k = flow_constants(gammas, lambdas, beta)
    feasible = (k["A"] < 0) & (k["B"] < 0) & (k["C"] < 0)
    near = np.zeros(len(gammas), dtype=bool)
    for name in "ABC":
        near |= np.abs(k[name]) <= 1e-12 * k["scale_" + name]
    flags = data[:, col["rho_feasible"]]
    require(np.all((flags == 0) | (flags == 1)), "rho_feasible column is not 0/1")
    wrong = np.nonzero(((flags == 1) != feasible) & ~near)[0]
    if wrong.size:
        raise CheckFailed("sweep.csv row %d: rho_feasible is %d, but A, B, C say %d"
                          % (wrong[0] + 1, flags[wrong[0]], feasible[wrong[0]]))
    return data[flags == 1], col


def run_dir_name(gamma, lam):
    return "run_g%.6g_l%.6g" % (gamma, lam)


def check_sweep_runs(out_dir, report, template, beta, grid):
    """A `sweep --run-config` call: its map, one run per feasible point, each run.

    ``report`` is the command's JSON stdout; ``template`` the dim-1 lasso run
    config.  Returns the number of runs checked.
    """
    rows, col = check_sweep_csv(os.path.join(out_dir, "sweep.csv"), beta, grid)
    require(report["aborted"] == [], "sweep reports aborted runs: %r" % (report["aborted"],))
    require(report["feasible"] == report["runs"] == len(rows) > 0,
            "sweep reports %r feasible points and %r runs; sweep.csv has %d"
            % (report["feasible"], report["runs"], len(rows)))
    expected = {run_dir_name(r[col["gamma"]], r[col["lambda"]]): r for r in rows}
    found = {name for name in os.listdir(out_dir) if name.startswith("run_g")}
    require(found == set(expected), "run directories %s do not match the feasible points %s"
            % (sorted(found ^ set(expected))[:3], len(expected)))
    for name, r in expected.items():
        cfg = dict(template, gamma=float(r[col["gamma"]]), **{"lambda": float(r[col["lambda"]])})
        check_lasso1_run(os.path.join(out_dir, name), cfg)
    return len(expected)


# ---------------------------------------------------------------------------
# the wide lasso


def check_wide_run(run_dir, M, y, cfg, mu):
    """A `run` of the generated lasso: accelerations, RK4 steps, energy.

    Every stored acceleration must equal soft(x - lam M^T(Mx - y), lam mu) -
    gamma v - x.  Eight evenly spaced samples, the last but one among them,
    are advanced by one RK4 step of the benchmark's own and must land on the
    next sample, which needs one step per sample.
    """
    gamma, lam, h = cfg["gamma"], cfg["lambda"], cfg["h"]
    t, x, v, a = read_trajectory(os.path.join(run_dir, "trajectory.csv"))
    require(x.shape[1] == M.shape[1], "trajectory has dim %d, not %d" % (x.shape[1], M.shape[1]))
    require(abs(t[-1] - cfg["t_end"]) < h, "trajectory ends at t=%g, not %g" % (t[-1], cfg["t_end"]))
    require(abs((t[1] - t[0]) - h) < 1e-12, "samples are not one step apart")
    check_uniform_times(t, h)
    check_close(x[0], np.asarray(cfg["u0"]), 1.0, "initial x")
    check_close(v[0], np.asarray(cfg["v0"]), 1.0, "initial x'")
    scale = 1.0 + max(np.max(np.abs(x)), np.max(np.abs(v)), np.max(np.abs(a)))

    def field(xs, vs):
        return lasso_step_target(M, y, mu, lam, xs) - gamma * vs - xs

    check_close(a, field(x, v), scale, "x''")
    for i in np.linspace(0, len(t) - 2, 8).astype(int):
        u, w = x[i], v[i]
        k1 = field(u, w)
        u2, w2 = u + h / 2 * w, w + h / 2 * k1
        k2 = field(u2, w2)
        u3, w3 = u + h / 2 * w2, w + h / 2 * k2
        k3 = field(u3, w3)
        u4, w4 = u + h * w3, w + h * k3
        k4 = field(u4, w4)
        check_step(u, x[i + 1], h / 6 * (w + 2 * w2 + 2 * w3 + w4), "x after an RK4 step from row %d" % i)
        check_step(w, v[i + 1], h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), "x' after an RK4 step from row %d" % i)

    summary = read_json(os.path.join(run_dir, "summary.json"))
    beta = summary["params"]["beta"]
    require(abs(beta - 1.0) < 1e-6, "estimated beta %r is not |M|_2^2 = 1" % beta)
    e = energy(lambda z: lasso_value(M, y, mu, z), gamma, lam, beta, x, v, a)
    check_energy_never_rises(e, run_dir)
    header, trace = read_csv(os.path.join(run_dir, "energy.csv"))
    require(header[:2] == ["t", "energy"] and len(trace) == len(t), "energy.csv does not match the trajectory")
    check_close(trace[:, 1], e, 1.0 + np.max(np.abs(e)), "energy.csv")
    require(summary["energy_monotone"] is True, "summary.json does not report monotone energy")


def check_discrete(history_path, report, M, y, mu, cfg):
    """A `discrete` history: the relaxed recursion row by row, its columns, its stop.

    x_{k+1} = (1-w) x_k + w prox(x_k - lam grad g(x_k)) + w (x_k - x_{k-1}),
    w = 1/(1+gamma); residual_k = |x_k - prox(...)|/lam; objective_k = (f+g)(x_k).
    Returns the number of iterations.
    """
    lam, gamma, tol = cfg["lambda"], cfg["gamma"], cfg["tol"]
    header, data = read_csv(history_path)
    n = M.shape[1]
    require(header[0] == "k" and header[-2:] == ["residual", "objective"] and len(header) == n + 3,
            "not a history header")
    k, xs, res, obj = data[:, 0], data[:, 1:1 + n], data[:, 1 + n], data[:, 2 + n]
    require(np.array_equal(k, np.arange(len(k))), "k column is not 0, 1, 2, ...")
    require(len(k) >= 3, "history has fewer than 3 rows")
    check_close(xs[0], np.asarray(cfg["x0"]), 1.0, "x_0")
    check_close(xs[1], np.asarray(cfg["x0"]), 1.0, "x_1")
    scale = 1.0 + np.max(np.abs(xs))
    z = lasso_step_target(M, y, mu, lam, xs)
    w = 1.0 / (1.0 + gamma)
    nxt = (1 - w) * xs[1:-1] + w * z[1:-1] + w * (xs[1:-1] - xs[:-2])
    check_close(xs[2:], nxt, scale, "iterate")
    require(np.isnan(res[0]), "row 0 has a residual")
    d = xs[1:] - z[1:]
    check_close(res[1:], np.sqrt(np.sum(d * d, axis=-1)) / lam, scale / lam, "residual column")
    value = lasso_value(M, y, mu, xs)
    check_close(obj, value, 1.0 + np.max(np.abs(value)), "objective column")
    require(res[-1] <= tol and np.all(res[1:-1] > tol), "iteration did not stop at the first residual below %g" % tol)
    require(report["converged"] is True and report["iterations"] == len(k) - 1,
            "discrete reports %r iterations, converged %r; history has %d rows"
            % (report["iterations"], report["converged"], len(k)))
    return len(k) - 1
