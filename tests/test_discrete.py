"""Tests for the inertial proximal-gradient iteration."""

import dataclasses
import math

import numpy as np
import pytest

from proxdyn import (
    DivergenceError,
    discrete,
    inertial_step_unit,
    make_problem,
    run_inertial,
    write_history_csv,
)
from proxdyn.discrete import IterateHistory
from oracles import inertial_step_general

COS_ROOT = 1.8954942670339809  # positive solution of x = 2 sin x


def test_unit_step_equals_general_step_at_h_one():
    obj = make_problem("lasso", M=[[1.0, 0.3], [0.0, 1.0]], y=[1.0, -0.5], mu=0.4)
    rng = np.random.default_rng(31)
    for _ in range(200):
        xk = rng.standard_normal(2) * 2.0
        xkm1 = rng.standard_normal(2) * 2.0
        gk = float(rng.uniform(0.2, 3.0))
        unit = inertial_step_unit(obj, 0.5, gk, xk, xkm1)
        general = inertial_step_general(obj, 0.5, gk, 1.0, xk, xkm1)
        assert np.max(np.abs(unit - general)) <= 1e-14 * (1.0 + np.max(np.abs(unit)))


def test_step_validation():
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    with pytest.raises(ValueError):
        inertial_step_unit(obj, 0.0, 1.0, np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        inertial_step_unit(obj, 0.1, 0.0, np.zeros(1), np.zeros(1))


def test_general_step_satisfies_defining_recurrence():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    rng = np.random.default_rng(32)
    lam = 0.3
    for _ in range(100):
        xk = rng.standard_normal(1)
        xkm1 = rng.standard_normal(1)
        gk = float(rng.uniform(0.2, 3.0))
        hk = float(rng.uniform(0.05, 1.5))
        nxt = inertial_step_general(obj, lam, gk, hk, xk, xkm1)
        zk = obj.f.prox(lam, xk - lam * obj.g.grad(xk))
        lhs = (nxt - 2.0 * xk + xkm1) / hk**2 + gk * (nxt - xk) / hk + xk
        assert np.max(np.abs(lhs - zk)) <= 1e-10 * (1.0 + np.max(np.abs(zk)))


@pytest.mark.parametrize(
    "name,kwargs,lam,fixed",
    [
        ("zero_quad", dict(Q=[[1.0]], b=[0.0]), 0.25, 0.0),
        ("lasso", dict(M=[[1.0]], y=[1.0], mu=0.5), 0.5, 0.5),
        ("box_quad", dict(Q=[[1.0]], b=[2.0], lower=-1.0, upper=1.0), 0.25, 1.0),
    ],
)
def test_fixed_points_are_exact(name, kwargs, lam, fixed):
    obj = make_problem(name, **kwargs)
    x_star = np.array([fixed])
    nxt = inertial_step_unit(obj, lam, 1.0, x_star, x_star)
    assert nxt[0] == fixed
    hist = run_inertial(obj, lam, 1.0, x_star, x_star, max_iter=50, tol=1e-8)
    assert hist.converged
    assert hist.iterations == 1
    assert len(hist.xs) == 2
    assert hist.residuals[0] == 0.0


def test_cos_quad_fixed_point_defect_tiny():
    obj = make_problem("cos_quad", dim=1)
    x_star = np.array([COS_ROOT])
    nxt = inertial_step_unit(obj, 0.1, 1.0, x_star, x_star)
    assert abs(nxt[0] - COS_ROOT) <= 1e-15
    hist = run_inertial(obj, 0.1, 1.0, x_star, x_star, max_iter=5, tol=1e-8)
    assert hist.converged and hist.iterations == 1


def test_lasso_iteration_converges():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    hist = run_inertial(obj, 0.5, 2.0, np.zeros(1), np.zeros(1), max_iter=500,
                        tol=1e-8)
    assert hist.converged
    assert hist.iterations < 100
    assert abs(hist.xs[-1, 0] - 0.5) <= 1e-7
    assert len(hist.residuals) == len(hist.xs) - 1 == hist.iterations
    assert len(hist.objective_values) == len(hist.xs)
    assert hist.residuals[-1] <= 1e-8
    assert np.all(hist.residuals[:-1] > 1e-8)


def test_max_iter_stop():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    hist = run_inertial(obj, 0.5, 2.0, np.zeros(1), np.zeros(1), max_iter=7,
                        tol=0.0)
    assert not hist.converged
    assert hist.iterations == 7
    assert len(hist.xs) == 8
    assert len(hist.residuals) == 7


def test_divergence_guard_raises():
    # lam * beta = 10 puts the prox-gradient map far outside the stable
    # range, so iterates grow by roughly 4x per step
    obj = make_problem("zero_quad", Q=[[10.0]], b=[0.0])
    with pytest.raises(DivergenceError) as exc:
        run_inertial(obj, 1.0, 1.0, np.ones(1), np.ones(1), max_iter=100,
                     tol=1e-8)
    assert exc.value.index >= 2
    assert exc.value.norm > 1e12


def test_schedules():
    # a callable schedule is asked for gamma_k at k = 1, 2, ... and drives one unit step each
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    asked = []

    def schedule(k):
        asked.append(k)
        return max(1.0 / k, 0.01)

    hist = run_inertial(obj, 0.5, schedule, np.zeros(1), np.array([0.3]), max_iter=6, tol=0.0)
    assert asked == [1, 2, 3, 4, 5]
    for k in range(1, 6):
        step = inertial_step_unit(obj, 0.5, max(1.0 / k, 0.01), hist.xs[k], hist.xs[k - 1])
        assert np.array_equal(hist.xs[k + 1], step)
    with pytest.raises(ValueError, match="^gamma must be a positive finite real, got 0.0$"):
        run_inertial(obj, 0.5, 0.0, np.zeros(1), np.zeros(1), max_iter=5, tol=0.0)


def test_number_schedule_matches_callable():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    a = run_inertial(obj, 0.5, 2.0, np.zeros(1), np.zeros(1), max_iter=30, tol=0.0)
    b = run_inertial(obj, 0.5, lambda k: 2.0, np.zeros(1), np.zeros(1),
                     max_iter=30, tol=0.0)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.residuals, b.residuals)


def test_discrete_step_tracks_flow_to_third_order():
    # Plugging the closed-form critically damped solution into the h-step
    # recurrence leaves a defect whose leading term is (gamma/2) h^3 x''(t),
    # so halving h by ten shrinks the defect by about a thousand.
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    lam, gamma, t = 0.25, 1.0, 1.0

    def x_exact(tt):
        return (1.0 + 0.5 * tt) * math.exp(-0.5 * tt)

    defects = []
    for h in (1e-2, 1e-3):
        xk = np.array([x_exact(t)])
        xkm1 = np.array([x_exact(t - h)])
        nxt = inertial_step_general(obj, lam, gamma, h, xk, xkm1)
        defects.append(abs(nxt[0] - x_exact(t + h)))
    assert defects[0] <= 1e-6
    order = math.log10(defects[0] / defects[1])
    assert 2.5 <= order <= 3.5


def test_run_inertial_validation():
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    with pytest.raises(ValueError):
        run_inertial(obj, 0.1, 1.0, np.zeros(1), np.zeros(1), max_iter=0, tol=1e-8)
    with pytest.raises(ValueError):
        run_inertial(obj, 0.1, 1.0, np.zeros(1), np.zeros(1), max_iter=10, tol=-1.0)
    with pytest.raises(ValueError):
        run_inertial(obj, 0.1, 1.0, np.zeros(2), np.zeros(1), max_iter=10, tol=1e-8)


@pytest.mark.parametrize("call, message", [
    (lambda obj: run_inertial(obj, 0.1, math.nan, np.zeros(1), np.ones(1), 10, 1e-8),
     "gamma must be a positive finite real, got nan"),
    # a number schedule is not coerced: True would run as gamma 1, and so would "1"
    (lambda obj: run_inertial(obj, 0.1, True, np.zeros(1), np.ones(1), 10, 1e-8),
     "gamma must be a positive finite real, got True"),
    (lambda obj: run_inertial(obj, 0.1, "1", np.zeros(1), np.ones(1), 10, 1e-8),
     "gamma must be a positive finite real, got '1'"),
    (lambda obj: inertial_step_unit(obj, math.nan, 1.0, np.zeros(1), np.zeros(1)),
     "lambda must be a positive finite real, got nan"),
    (lambda obj: run_inertial(obj, math.inf, 1.0, np.zeros(1), np.zeros(1), 10, 1e-8),
     "lambda must be a positive finite real, got inf"),
    (lambda obj: run_inertial(obj, 0.1, 1.0, np.zeros(1), np.ones(1), 10, math.inf),
     "tol must be a nonnegative finite real, got inf"),
    (lambda obj: run_inertial(obj, 0.1, lambda k: math.nan, np.zeros(1), np.ones(1), 10, 1e-8),
     "gamma_k must be a positive finite real, got nan"),
    (lambda obj: run_inertial(obj, 0.1, 1.0, np.zeros(1), np.ones(1), 2.5, 1e-8),
     "max_iter must be a positive integer, got 2.5"),
])
def test_discrete_rejects_non_finite_reals(call, message):
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    with pytest.raises(ValueError) as info:
        call(obj)
    assert str(info.value) == message


def test_a_number_schedule_is_checked_once_and_a_callable_at_every_value(monkeypatch):
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    checked = []
    real_check = discrete._check_real

    def counting_check(value, what, *kind):
        checked.append(what)
        return real_check(value, what, *kind)

    monkeypatch.setattr(discrete, "_check_real", counting_check)
    number = run_inertial(obj, 0.5, 2.0, np.zeros(1), np.array([0.1]), max_iter=20, tol=0.0)
    assert number.iterations == 20 and checked.count("gamma") == 1 and "gamma_k" not in checked
    checked.clear()
    drawn = run_inertial(obj, 0.5, lambda k: 2.0, np.zeros(1), np.array([0.1]), max_iter=20, tol=0.0)
    assert checked.count("gamma_k") == 19 and "gamma" not in checked
    assert drawn.xs.tobytes() == number.xs.tobytes()


def test_history_csv_round_trip(tmp_path):
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    hist = run_inertial(obj, 0.5, 2.0, np.zeros(1), np.array([0.1]), max_iter=20,
                        tol=0.0)
    path = tmp_path / "history.csv"
    write_history_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x_0,residual,objective"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], np.arange(len(hist.xs)))
    assert np.array_equal(data[:, 1], hist.xs[:, 0])
    assert math.isnan(data[0, 2])
    assert np.array_equal(data[1:, 2], hist.residuals)
    assert np.array_equal(data[:, 3], hist.objective_values)


def test_run_inertial_evaluates_the_map_once_per_iteration(count_grad):
    obj = make_problem("lasso", M=[[1.0, 0.3], [0.0, 1.0]], y=[1.0, -0.5], mu=0.4)
    counted, calls = count_grad(obj)
    hist = run_inertial(counted, 0.5, 2.0, np.zeros(2), np.array([0.3, -0.2]),
                        max_iter=500, tol=1e-12)
    assert hist.converged
    assert hist.iterations > 10
    assert calls.count("grad") == calls.count("prox") == hist.iterations


@pytest.mark.parametrize("name, spec", [
    ("lasso", dict(M=[[1.0, 0.3], [0.0, 1.0]], y=[1.0, -0.5], mu=0.4)),
    ("box_quad", dict(Q=[[2.0, 0.5], [0.5, 1.0]], b=[3.0, -2.0], lower=-1.0, upper=1.0)),
    ("cos_quad", dict(dim=2, mu=0.1)),
])
def test_objective_values_come_from_one_call_with_the_bits_of_each_iterate(name, spec):
    obj = make_problem(name, **spec)
    calls = []

    def value(x):
        calls.append(np.shape(x))
        return obj.f.eval(x)

    counted = dataclasses.replace(obj, f=dataclasses.replace(obj.f, eval=value))
    hist = run_inertial(counted, 0.5, 2.0, np.zeros(2), np.array([0.3, -0.2]), max_iter=40, tol=0.0)
    assert calls == [hist.xs.shape]
    assert np.array_equal(hist.objective_values, [obj.value(x) for x in hist.xs])


def test_history_csv_formats_special_values(tmp_path):
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0]
    xs = np.array([[v, -v] for v in values])
    hist = IterateHistory(xs=xs, residuals=np.array(values[1:]),
                          objective_values=np.array(values[::-1]),
                          converged=False, iterations=len(values) - 1)
    path = tmp_path / "history.csv"
    write_history_csv(hist, path)
    rows = [[v, -v, res, obj] for v, res, obj in zip(values, [math.nan] + values[1:], values[::-1])]
    assert path.read_text().split("\n") == ["k,x_0,x_1,residual,objective"] + [
        "%d," % k + ",".join(format(v, ".17g") for v in row) for k, row in enumerate(rows)
    ] + [""]
