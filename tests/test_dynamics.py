"""Integrator tests against a closed-form critically damped solution.

With f = 0, g(x) = x^2/2 (scalar), gamma = 1 and lam = 1/4 the flow reduces
to x'' + x' + x/4 = 0, whose solution from (1, 0) is x(t) = (1 + t/2)
exp(-t/2).  That gives an oracle that shares no code with the integrator.
"""

import math
import re

import numpy as np
import pytest

import proxdyn as pd
from proxdyn import (
    IntegrationAborted,
    Trajectory,
    derive_params,
    integrate,
    integrate_ensemble,
    make_problem,
    prox_grad_map,
    read_trajectory_csv,
    third_derivative_check,
    write_trajectory_csv,
)


def _critically_damped():
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    params = derive_params(1.0, 0.25, obj.g.beta)
    return obj, params


def _exact_x(t):
    return (1.0 + 0.5 * t) * np.exp(-0.5 * t)


def _exact_v(t):
    return -0.25 * t * np.exp(-0.5 * t)


def _field_acceleration(obj, params, x, v):
    """The second component of the vector field: T(x) - gamma*v - x."""
    return prox_grad_map(obj, params.lam, x) - params.gamma * v - x


def test_vector_field_hand_value():
    obj = make_problem("zero_quad", Q=[[2.0]], b=[0.0])
    params = derive_params(1.0, 0.1, obj.g.beta)
    dv = _field_acceleration(obj, params, np.array([1.0]), np.array([3.0]))
    # z = 1 - 0.1*2 = 0.8, dv = 0.8 - 3 - 1
    assert abs(dv[0] - (-3.2)) <= 1e-15
    # the first recorded acceleration is the field at the initial state
    traj = integrate(obj, params, [1.0], [3.0], t_end=0.01, h=0.01, sample_every=1)
    assert np.array_equal(traj.accs[0], dv)


def test_vector_field_shape_mismatch():
    # the integrator is the one place the field is evaluated, and it checks the state
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    params = derive_params(1.0, 0.1, obj.g.beta)
    with pytest.raises(ValueError, match="shape"):
        integrate(obj, params, np.zeros(1), np.zeros(3), t_end=1.0, h=0.1)


def test_integrate_matches_closed_form():
    obj, params = _critically_damped()
    traj = integrate(obj, params, [1.0], [0.0], t_end=5.0, h=1e-3, sample_every=1)
    err_x = np.max(np.abs(traj.xs[:, 0] - _exact_x(traj.times)))
    err_v = np.max(np.abs(traj.vs[:, 0] - _exact_v(traj.times)))
    assert err_x <= 1e-8
    assert err_v <= 1e-8


def test_integrate_fourth_order_convergence():
    obj, params = _critically_damped()
    errors = []
    for h in (0.25, 0.125, 0.0625):
        traj = integrate(obj, params, [1.0], [0.0], t_end=4.0, h=h, sample_every=1)
        assert traj.times[-1] == pytest.approx(4.0)
        errors.append(abs(traj.xs[-1, 0] - _exact_x(4.0)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


def test_recorded_acceleration_is_algebraic():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    params = derive_params(1.0, 0.02, obj.g.beta)
    traj = integrate(obj, params, [1.5], [0.0], t_end=2.0, h=0.01, sample_every=10)
    for i in range(len(traj.times)):
        dv = _field_acceleration(obj, params, traj.xs[i], traj.vs[i])
        assert np.array_equal(traj.accs[i], dv)


@pytest.mark.parametrize("sample_every", [1, 3])
def test_integrate_evaluates_the_field_four_times_per_step(sample_every, count_grad):
    # RK4 needs four stages; the first is the acceleration at the step's
    # start, which the previous step already computed.  The oracles are
    # counted through the objective's fields, so a route around obj.f.prox or
    # obj.g.grad fails here: a lone zero_quad, the README lasso alone, and a
    # 3-row lasso ensemble, whose one block makes one call per evaluation
    zero_quad, critical = _critically_damped()
    lasso = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    readme = derive_params(1.0, 0.02, lasso.g.beta)
    sets = [derive_params(1.0, lam, lasso.g.beta) for lam in (0.02, 0.05, 0.1)]
    for obj, params_seq, u0 in ((zero_quad, [critical], [1.0]), (lasso, [readme], [1.5]),
                                (lasso, sets, [1.5])):
        counted, calls = count_grad(obj)
        if len(params_seq) == 1:
            entries = [integrate(counted, params_seq[0], u0, [0.0], t_end=1.0, h=0.1,
                                 sample_every=sample_every)]
        else:
            entries = list(integrate_ensemble(counted, params_seq, u0, [0.0], 1.0, 0.1,
                                              sample_every=sample_every))
        assert len(entries) == len(params_seq)
        for traj in entries:
            n_steps = int(round(traj.times[-1] / traj.step))
            assert n_steps == (10 if sample_every == 1 else 12)
        assert calls.count("grad") == calls.count("prox") == 4 * n_steps + 1, (obj.name, len(entries))


def test_sampling_grid_rounds_up_to_stride():
    obj, params = _critically_damped()
    traj = integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.1, sample_every=3)
    # 10 steps round up to 12 so the last sample lands on a stride boundary
    assert traj.xs.shape == (5, 1)
    np.testing.assert_allclose(traj.times, np.arange(5) * 0.3, rtol=0, atol=1e-15)
    assert traj.step == 0.1


def test_integrate_input_validation():
    obj, params = _critically_damped()
    with pytest.raises(ValueError, match="shape"):
        integrate(obj, params, [1.0, 2.0], [0.0], t_end=1.0, h=0.01)
    with pytest.raises(ValueError, match="finite"):
        integrate(obj, params, [float("nan")], [0.0], t_end=1.0, h=0.01)
    with pytest.raises(ValueError, match="h must be positive"):
        integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.0)
    with pytest.raises(ValueError, match="stability guard"):
        integrate(obj, params, [1.0], [0.0], t_end=1.0, h=2.0)
    with pytest.raises(ValueError, match="at least one step"):
        integrate(obj, params, [1.0], [0.0], t_end=0.001, h=0.01)
    with pytest.raises(ValueError, match="sample_every"):
        integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.01, sample_every=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"t_end": True}, "t_end must be a finite real, got True"),
    ({"h": "0.01"}, "h must be a finite real, got '0.01'"),
    ({"u0": [True]}, "each entry of u0 must be a finite real, got True"),
    ({"v0": [math.nan]}, "each entry of v0 must be finite, got nan"),
])
def test_integrate_rejects_a_bool_string_or_nan_input(kwargs, message):
    obj, params = _critically_damped()
    run = dict({"u0": [1.0], "v0": [0.0], "t_end": 1.0, "h": 0.01}, **kwargs)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        integrate(obj, params, **run)


@pytest.mark.parametrize("t_end, h", [(math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (1.0, math.inf)])
def test_integrate_rejects_non_finite_t_end_or_h(t_end, h):
    obj, params = _critically_damped()
    name, value = ("h", h) if not math.isfinite(h) else ("t_end", t_end)
    with pytest.raises(ValueError, match="^%s must be finite, got %r$" % (name, value)):
        integrate(obj, params, [1.0], [0.0], t_end=t_end, h=h)
    with pytest.raises(ValueError, match="^%s must be finite" % name):
        integrate_ensemble(obj, [params], [1.0], [0.0], t_end, h)


def test_integrate_rejects_a_step_count_that_overflows():
    obj, params = _critically_damped()
    with pytest.raises(ValueError, match=r"^t_end/h overflows: t_end=1e\+300, h=1e-10$"):
        integrate(obj, params, [1.0], [0.0], t_end=1e300, h=1e-10)


@pytest.mark.parametrize("sample_every", [2.5, True, False, -1, 0.0, "2", math.nan, math.inf])
def test_integrate_rejects_a_sample_every_that_is_not_a_count(sample_every):
    obj, params = _critically_damped()
    with pytest.raises(ValueError, match="sample_every must be a positive integer, got"):
        integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.01, sample_every=sample_every)


@pytest.mark.parametrize("sample_every", [11, 1000])
def test_integrate_rejects_a_sample_every_beyond_the_step_count(sample_every):
    # it used to round the 10-step run up to sample_every steps
    obj, params = _critically_damped()
    message = "^sample_every=%d exceeds the run's 10 steps$" % sample_every
    with pytest.raises(ValueError, match=message):
        integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.1, sample_every=sample_every)
    with pytest.raises(ValueError, match=message):
        integrate_ensemble(obj, [params], [1.0], [0.0], 1.0, 0.1, sample_every=sample_every)
    traj = integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.1, sample_every=10)
    np.testing.assert_allclose(traj.times, [0.0, 1.0], rtol=0, atol=1e-15)


def test_integrate_takes_an_integral_float_sample_every():
    obj, params = _critically_damped()
    got = integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.1, sample_every=2.0)
    want = integrate(obj, params, [1.0], [0.0], t_end=1.0, h=0.1, sample_every=np.int64(2))
    assert got.xs.shape == (6, 1) and _same_bits(got.xs, want.xs)


def test_integrate_aborts_on_blowup():
    # The parameter set claims beta = 0, so its stability guard admits a
    # step far too large for this stiff quadratic and the iteration
    # overflows; the abort must report where.
    obj = make_problem("zero_quad", Q=[[2e6]], b=[0.0])
    params = derive_params(1.0, 0.01, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationAborted) as exc:
            integrate(obj, params, [1.0], [0.0], t_end=40.0, h=0.4, sample_every=1)
    assert exc.value.step_index >= 1
    assert exc.value.t == pytest.approx(exc.value.step_index * 0.4)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# stiff zero_quads (Q, u0, v0): at dim 2 only the stiff coordinate can blow
# up, and the row axis and the coordinate axis of a (B, dim) stack differ
_STIFF = [
    ([[2e6]], [1.0], [0.0]),
    ([[2e6, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.0, 0.0]),
]


def test_ensemble_aborts_one_row_and_keeps_the_others():
    # as in test_integrate_aborts_on_blowup, beta = 0 lets h = 0.4 past the
    # guard; only the middle row's lambda makes the stiff quadratic blow up
    for Q, u0, v0 in _STIFF:
        obj = make_problem("zero_quad", Q=Q, b=[0.0] * len(u0))
        params_seq = [
            derive_params(1.0, 1e-9, 0.0),
            derive_params(1.0, 0.01, 0.0),
            derive_params(0.5, 1e-8, 0.0),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(integrate_ensemble(obj, params_seq, u0, v0, 40.0, 0.4, sample_every=1))
            with pytest.raises(IntegrationAborted) as exc:
                integrate(obj, params_seq[1], u0, v0, t_end=40.0, h=0.4, sample_every=1)
        assert len(got) == 3
        assert isinstance(got[1], IntegrationAborted)
        assert (got[1].t, got[1].step_index, str(got[1])) == (
            exc.value.t, exc.value.step_index, str(exc.value))
        for row in (0, 2):
            want = integrate(obj, params_seq[row], u0, v0, t_end=40.0, h=0.4, sample_every=1)
            assert isinstance(got[row], Trajectory)
            for field in ("times", "xs", "vs", "accs"):
                assert _same_bits(getattr(got[row], field), getattr(want, field)), (Q, row, field)


def test_ensemble_stops_once_every_row_aborted(count_grad):
    # the rows blow up at steps 54, 84 and 195, each at its own serial step
    obj, calls = count_grad(make_problem("zero_quad", Q=[[2e6]], b=[0.0]))
    params_seq = [derive_params(1.0, lam, 0.0) for lam in (0.01, 1e-3, 1e-4)]
    with np.errstate(over="ignore", invalid="ignore"):
        got = list(integrate_ensemble(obj, params_seq, [1.0], [0.0], 4000.0, 0.4, sample_every=1))
        for params, entry in zip(params_seq, got):
            with pytest.raises(IntegrationAborted) as serial:
                integrate(obj, params, [1.0], [0.0], t_end=4000.0, h=0.4, sample_every=1)
            assert isinstance(entry, IntegrationAborted)
            assert (entry.t, entry.step_index) == (serial.value.t, serial.value.step_index)
    # 4 evaluations per step up to the last abort, not 4 * 10^4
    calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        list(integrate_ensemble(obj, params_seq, [1.0], [0.0], 4000.0, 0.4, sample_every=1))
    assert calls.count("grad") == calls.count("prox") == 1 + 4 * max(e.step_index for e in got)


def test_an_aborted_row_that_overflows_again_keeps_its_first_abort():
    # b != 0 moves the critical point off zero, so the aborted row, restarted
    # from zero, overflows again and again while the other row runs on
    for Q, u0, v0 in _STIFF:
        obj = make_problem("zero_quad", Q=Q, b=[1.0] * len(u0))
        params_seq = [derive_params(1.0, 1e-9, 0.0), derive_params(1.0, 0.01, 0.0)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = list(integrate_ensemble(obj, params_seq, u0, v0, 400.0, 0.4, sample_every=1))
            with pytest.raises(IntegrationAborted) as serial:
                integrate(obj, params_seq[1], u0, v0, t_end=400.0, h=0.4, sample_every=1)
        assert isinstance(got[1], IntegrationAborted)
        assert (got[1].t, got[1].step_index) == (serial.value.t, serial.value.step_index)
        want = integrate(obj, params_seq[0], u0, v0, t_end=400.0, h=0.4, sample_every=1)
        for field in ("times", "xs", "vs", "accs"):
            assert _same_bits(getattr(got[0], field), getattr(want, field)), (Q, field)


def test_ensemble_guard_reports_the_first_failing_row():
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    params_seq = [derive_params(1.0, 0.01, 1.0), derive_params(1.0, 0.5, 4.0),
                  derive_params(1.0, 0.5, 9.0)]
    h = 0.3
    with pytest.raises(ValueError) as serial:
        integrate(obj, params_seq[1], [1.0], [0.0], t_end=1.0, h=h)
    assert h > 1.0 / params_seq[2].L1  # the last row fails too, with another guard
    with pytest.raises(ValueError) as ensemble:
        integrate_ensemble(obj, params_seq, [1.0], [0.0], 1.0, h)
    assert str(ensemble.value) == str(serial.value)


def test_ensemble_splits_rows_into_blocks(monkeypatch):
    obj, params = _critically_damped()
    params_seq = [params, derive_params(1.2, 0.2, obj.g.beta), derive_params(0.8, 0.1, obj.g.beta)]
    want = list(integrate_ensemble(obj, params_seq, [1.0], [0.0], 1.0, 0.01))
    # 101 samples of x, x', x'' at dim 1: a budget of two rows per block
    monkeypatch.setattr(pd.dynamics, "_BLOCK_BYTES", 2 * 3 * 8 * 101)
    got = list(integrate_ensemble(obj, params_seq, [1.0], [0.0], 1.0, 0.01))
    assert got[0].xs.base is got[1].xs.base
    assert got[2].xs.base is not got[0].xs.base
    for a, b in zip(got, want):
        assert _same_bits(a.xs, b.xs) and _same_bits(a.accs, b.accs)


def test_trajectory_csv_round_trip(tmp_path):
    obj = make_problem("box_quad", Q=[[1.0, 0.0], [0.0, 1.0]], b=[2.0, 0.5],
                       lower=-1.0, upper=1.0)
    params = derive_params(1.0, 0.01, obj.g.beta)
    traj = integrate(obj, params, [0.9, 0.1], [0.0, 0.2], t_end=0.5, h=0.1,
                     sample_every=1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.xs, traj.xs)
    assert np.array_equal(back.vs, traj.vs)
    assert np.array_equal(back.accs, traj.accs)
    assert back.params is None
    assert back.step == pytest.approx(traj.step * 1)


def test_read_trajectory_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="not a trajectory CSV"):
        read_trajectory_csv(path)


@pytest.mark.parametrize("header", ["t", "t,a,b,c", "t,x_0,v_0", "t,x_0,v_0,a_0,x_1", "t,x_1,v_1,a_1",
                                    "t,x_0,x_1,v_0,a_0,v_1,a_1"])
def test_read_trajectory_csv_needs_the_written_header(tmp_path, header):
    path = tmp_path / "traj.csv"
    path.write_text(header + "\n" + ",".join(["0"] * len(header.split(","))) + "\n")
    with pytest.raises(ValueError, match="^not a trajectory CSV: header '%s'$" % header):
        read_trajectory_csv(path)


def test_third_derivative_bound_on_smooth_run():
    obj, params = _critically_damped()
    traj = integrate(obj, params, [1.0], [0.0], t_end=5.0, h=1e-3, sample_every=1)
    report = third_derivative_check(traj, params)
    assert report.holds
    assert np.all(report.rhs >= 0.0)
    assert len(report.times) == len(traj.times) - 2


def test_third_derivative_needs_three_samples():
    obj, params = _critically_damped()
    traj = integrate(obj, params, [1.0], [0.0], t_end=0.01, h=0.01, sample_every=1)
    assert len(traj.times) == 2
    with pytest.raises(ValueError, match="at least 3 samples"):
        third_derivative_check(traj, params)
