"""Acceptance gate: one test per numbered criterion, at the stated
tolerances, each ending in a single PASS line.

The canonical catalog runs come from conftest (t_end = 100 at h = 1e-3,
plus one long coarse cosine run); oracles are closed forms, rational
arithmetic, bisection and brute-force grids that share no code with the
implementation under test.
"""

import math
import time
import warnings

import numpy as np

from proxdyn import (
    check_sigma_dominance,
    classify_rate,
    check_monotone,
    derive_params,
    fit_exponential,
    inertial_step_unit,
    integrate,
    make_problem,
    monitor,
    prox_grad_residual,
    run_inertial,
    subgradient_witness,
    third_derivative_check,
    w_bound,
)
from oracles import inertial_step_general

COS_ROOT = 1.8954942670339809


def test_criterion_01_lipschitz_reference_values():
    # at lam = 1 the product lam*beta is beta exactly
    assert abs(derive_params(2.0, 1.0, 0.1).L1 - 3.0) <= 1e-12
    assert abs(derive_params(2.0, 1.0, 0.1).L2 - math.sqrt(9.2)) <= 1e-12
    assert abs(derive_params(2.0, 1.0, 1.0).L1 - math.sqrt(20.0)) <= 1e-12
    assert abs(derive_params(2.0, 1.0, 1.0).L2 - math.sqrt(15.0)) <= 1e-12
    print("PASS criterion 1: Lipschitz constants match reference values to 1e-12")


def test_criterion_02_feasibility_grid():
    gammas = np.linspace(0.1, 3.0, 50)
    lams = np.logspace(-4, 0, 50)
    counterexamples = 0
    start = time.perf_counter()
    for beta in (0.0, 1.0, 3.0):
        for gamma in gammas:
            for lam in lams:
                p = derive_params(float(gamma), float(lam), beta)
                if beta == 0.0 and not p.rho_feasible:
                    counterexamples += 1
                if gamma * lam * beta <= 1.0 / 3.0 and not (p.C < 0.0):
                    counterexamples += 1
                if p.corollary_feasible and not p.rho_feasible:
                    counterexamples += 1
    elapsed = time.perf_counter() - start
    assert counterexamples == 0
    assert elapsed < 1.0
    print(
        "PASS criterion 2: 3 x 50 x 50 feasibility grid, zero counterexamples "
        "in %.3fs" % elapsed
    )


def test_criterion_03_energy_monotone(canonical_runs):
    for name in ("zero_quad", "lasso", "box_quad", "cos_quad"):
        run = canonical_runs[name]
        trace = monitor(run.obj, run.params, run.traj)
        tol = 1e-6 * (1.0 + abs(float(trace.energy[0])))
        violations = check_monotone(trace, tol)
        assert violations == [], "%s: %d violations" % (name, len(violations))
    print(
        "PASS criterion 3: energy nonincreasing (adjacent and integrated) at "
        "tol 1e-6*(1+|E0|) on all four catalog runs"
    )


def test_criterion_04_trajectories_settle(canonical_runs):
    for name in ("zero_quad", "lasso", "box_quad", "cos_quad"):
        run = canonical_runs[name]
        v_final = float(np.linalg.norm(run.traj.vs[-1]))
        a_final = float(np.linalg.norm(run.traj.accs[-1]))
        assert v_final <= 1e-4, "%s velocity %g" % (name, v_final)
        assert a_final <= 1e-4, "%s acceleration %g" % (name, a_final)
    print(
        "PASS criterion 4: final velocity and acceleration norms below 1e-4 "
        "on every catalog run at t_end = 100"
    )


def test_criterion_05_limits_match_independent_solutions(canonical_runs):
    # bisection certificate for the cosine critical point, independent of
    # the frozen constant
    lo, hi = 1.8, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid - 2.0 * math.sin(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - COS_ROOT) <= 1e-14

    cases = [
        ("zero_quad", np.array([0.0]), 1e-5),
        ("lasso", np.array([0.5]), 1e-5),
        ("box_quad", np.array([1.0, 0.5]), 1e-5),
        ("cos_quad_long", np.array([root]), 1e-3),
    ]
    for name, x_star, tol in cases:
        run = canonical_runs[name]
        res = float(prox_grad_residual(run.obj, run.lam, run.traj.xs[-1]))
        assert res <= 1e-6, "%s residual %g" % (name, res)
        gap = float(np.max(np.abs(run.traj.xs[-1] - x_star)))
        assert gap <= tol, "%s limit gap %g" % (name, gap)
    print(
        "PASS criterion 5: final residuals below 1e-6 and limits match the "
        "closed-form / bisection solutions"
    )


def test_criterion_06_integrator_accuracy_and_order():
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    params = derive_params(1.0, 0.25, obj.g.beta)

    def exact(t):
        return (1.0 + 0.5 * t) * np.exp(-0.5 * t)

    traj = integrate(obj, params, [1.0], [0.0], t_end=5.0, h=1e-3, sample_every=1)
    sup = float(np.max(np.abs(traj.xs[:, 0] - exact(traj.times))))
    assert sup <= 1e-6

    errors = []
    for h in (0.25, 0.125, 0.0625):
        t4 = integrate(obj, params, [1.0], [0.0], t_end=4.0, h=h, sample_every=1)
        errors.append(abs(t4.xs[-1, 0] - float(exact(4.0))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5
    print(
        "PASS criterion 6: closed-form error %.3g <= 1e-6 on [0,5], observed "
        "order %.2f >= 3.5" % (sup, min(orders))
    )


def test_criterion_07_bound_suite(canonical_runs):
    for name, run in canonical_runs.items():
        params = run.params
        traj = run.traj

        assert third_derivative_check(traj, params).holds, "%s third-derivative bound" % name

        a = 1.0 - params.c
        wit = subgradient_witness(run.obj, params, traj, a)
        bound = w_bound(params, traj.vs, traj.accs, a)
        assert np.all(wit <= bound + 1e-9 * (1.0 + bound)), (
            "%s subgradient witness" % name
        )

        assert params.rho_feasible, name
        m, r0 = params.m, params.r0
        assert m < 0.0 and r0 > 0.0
        vn = np.linalg.norm(traj.vs, axis=-1)
        wn = np.linalg.norm(traj.accs, axis=-1)
        lhs = params.A * vn**2 + params.B * wn**2
        rhs = m * (params.s * wn + params.p * vn) * (vn + wn)
        assert np.all(lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs))), (
            "%s envelope bound" % name
        )

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            distance, velocity = check_sigma_dominance(traj)
        assert distance.holds, "%s sigma vs distance" % name
        assert velocity.holds, "%s sigma vs velocity" % name
    print(
        "PASS criterion 7: third-derivative, subgradient, envelope and sigma "
        "dominance bounds hold with zero violations on all five runs"
    )


def test_criterion_08_rate_fits(spectral_run):
    start = time.perf_counter()

    # (a) exact exponential recovered to 1e-10
    t = np.arange(0.0, 10.0, 0.01)
    d = 3.0 * np.exp(-2.0 * t)
    from proxdyn import Trajectory

    synth = Trajectory(
        times=t, xs=d.reshape(-1, 1), vs=(-2.0 * d).reshape(-1, 1),
        accs=(4.0 * d).reshape(-1, 1), params=None, step=0.01,
    )
    a1, a2, r2 = fit_exponential(synth, [0.0])
    assert abs(a1 - 3.0) <= 1e-10
    assert abs(a2 - 2.0) <= 1e-10

    # (b) theta recovered within 0.01 across the target grid
    tt = np.linspace(0.0, 1000.0, 20_001)
    for theta_true in (0.55, 0.6, 2.0 / 3.0, 0.75, 0.9):
        q = (1.0 - theta_true) / (2.0 * theta_true - 1.0)
        dd = (tt + 5.0) ** (-q)
        poly = Trajectory(
            times=tt,
            xs=dd.reshape(-1, 1),
            vs=(q * (tt + 5.0) ** (-q - 1.0)).reshape(-1, 1),
            accs=(q * (q + 1.0) * (tt + 5.0) ** (-q - 2.0)).reshape(-1, 1),
            params=None,
            step=float(tt[1] - tt[0]),
        )
        report = classify_rate(poly, x_limit=[0.0], t0=60.0)
        assert report.regime == "polynomial", theta_true
        assert abs(report.theta - theta_true) <= 0.01, theta_true

    # (c) integrated flow classified exponential at the slow spectral rate
    spectral_rate = spectral_run.slow_rate
    report = classify_rate(spectral_run.traj, x_limit=[0.0])
    assert report.regime == "exponential"
    assert abs(report.a2 - spectral_rate) <= 0.1 * spectral_rate

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        "PASS criterion 8: exponential constants to 1e-10, theta grid within "
        "0.01, flow rate %.4f within 10%% of spectral %.1f, in %.3fs"
        % (report.a2, spectral_rate, elapsed)
    )


def test_criterion_09_discrete_algorithm():
    # exact fixed points
    cases = [
        ("zero_quad", dict(Q=[[1.0]], b=[0.0]), 0.25, 0.0),
        ("lasso", dict(M=[[1.0]], y=[1.0], mu=0.5), 0.5, 0.5),
        ("box_quad", dict(Q=[[1.0]], b=[2.0], lower=-1.0, upper=1.0), 0.25, 1.0),
    ]
    for name, kwargs, lam, fixed in cases:
        obj = make_problem(name, **kwargs)
        nxt = inertial_step_unit(obj, lam, 1.0, np.array([fixed]), np.array([fixed]))
        assert nxt[0] == fixed, name
    cos = make_problem("cos_quad", dim=1)
    nxt = inertial_step_unit(cos, 0.1, 1.0, np.array([COS_ROOT]), np.array([COS_ROOT]))
    assert abs(nxt[0] - COS_ROOT) <= 1e-15

    # lasso run reaches the residual tolerance
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    hist = run_inertial(obj, 0.5, 2.0, np.zeros(1), np.zeros(1), max_iter=500,
                        tol=1e-8)
    assert hist.converged and hist.iterations <= 500
    assert hist.residuals[-1] <= 1e-8

    # unit and general step agree at h = 1 on 10^3 random inputs
    pool = make_problem("lasso", M=[[1.0, 0.3], [0.0, 1.0]], y=[1.0, -0.5], mu=0.4)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        xk = rng.standard_normal(2) * 3.0
        xkm1 = rng.standard_normal(2) * 3.0
        gk = float(rng.uniform(0.2, 3.0))
        unit = inertial_step_unit(pool, 0.5, gk, xk, xkm1)
        general = inertial_step_general(pool, 0.5, gk, 1.0, xk, xkm1)
        worst = max(worst, float(np.max(np.abs(unit - general))))
    assert worst <= 1e-14 * 10.0  # scale allowance for |x| up to ~10
    print(
        "PASS criterion 9: fixed points exact, lasso converges to 1e-8 in %d "
        "iterations, unit/general steps agree to %.2g" % (hist.iterations, worst)
    )


def test_criterion_10_prox_against_brute_force():
    lasso = make_problem("lasso", M=[[1.0]], y=[0.0], mu=0.5)
    box = make_problem("box_quad", Q=[[1.0]], b=[0.0], lower=-0.7, upper=0.4)
    lam = 0.6  # threshold lam*mu = 0.3 for the l1 case
    rng = np.random.default_rng(4242)
    points = rng.uniform(-3.0, 3.0, size=1000)
    worst = 0.0
    for x in points:
        reach = abs(x) + 1.0
        grid = np.arange(-reach, reach + 5e-5, 1e-4)
        vals = 0.5 * (grid - x) ** 2 + lam * 0.5 * np.abs(grid)
        brute = grid[np.argmin(vals)]
        got = lasso.f.prox(lam, np.array([x]))[0]
        worst = max(worst, abs(got - brute))

        bgrid = np.linspace(-0.7, 0.4, 11_001)  # step 1e-4, exact endpoints
        bvals = 0.5 * (bgrid - x) ** 2
        bbrute = bgrid[np.argmin(bvals)]
        bgot = box.f.prox(lam, np.array([x]))[0]
        worst = max(worst, abs(bgot - bbrute))
    assert worst <= 2e-4
    print(
        "PASS criterion 10: prox operators within %.2g <= 2e-4 of brute-force "
        "grid minimization on 1000 points" % worst
    )
