"""Energy monitor tests.

The scalar hand case is exact in binary floating point: with g(x) = x^2/2,
f = 0, gamma = 1, lam = 1/4 and the state x = 2, v = 0, the system
acceleration is -1/2 and the energy is 1.5^2/2 + 2 * 0.25 = 1.625, which is
H at (u, v, w) = (1.5, 2, 0).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from proxdyn import (
    BoundCheck,
    EnergyTrace,
    check_monotone,
    derive_params,
    h_value,
    integrate,
    make_problem,
    monitor,
    prox_grad_map,
    subgradient_witness,
    third_derivative_check,
    w_bound,
    write_energy_csv,
)
from oracles import energy_at_expanded


def test_energy_hand_value_exact():
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    params = derive_params(1.0, 0.25, obj.g.beta)
    e = h_value(obj, params, np.array([1.5]), np.array([2.0]), np.array([0.0]))
    assert e == 1.625


def test_energy_expanded_route_agrees():
    obj = make_problem("lasso", M=[[1.0, 0.2], [0.0, 1.0]], y=[1.0, -1.0], mu=0.3)
    params = derive_params(1.2, 0.05, obj.g.beta)
    traj = integrate(obj, params, [1.5, -2.0], [0.4, 0.3], t_end=5.0, h=0.01)
    energy = monitor(obj, params, traj).energy
    expanded = energy_at_expanded(obj, params, traj.xs, traj.vs, traj.accs)
    assert np.all(np.abs(energy - expanded) <= 1e-10 * (1.0 + np.abs(energy)))


def test_h_hand_value_exact():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    params = derive_params(1.0, 0.25, obj.g.beta)
    val = h_value(obj, params, np.array([0.5]), np.array([0.5]), np.array([0.0]))
    assert val == 0.375


def test_h_infinite_outside_domain():
    obj = make_problem("box_quad", Q=[[1.0]], b=[0.0], lower=-1.0, upper=1.0)
    params = derive_params(1.0, 0.1, obj.g.beta)
    val = h_value(obj, params, np.array([2.0]), np.array([0.0]), np.array([0.0]))
    assert np.isinf(val) and val > 0


def _short_run():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    params = derive_params(1.0, 0.02, obj.g.beta)
    traj = integrate(obj, params, [1.5], [0.3], t_end=2.0, h=0.01, sample_every=5)
    return obj, params, traj


def test_monitor_columns_match_definitions():
    obj, params, traj = _short_run()
    trace = monitor(obj, params, traj)
    lam = params.lam
    z = obj.f.prox(lam, traj.xs - lam * obj.g.grad(traj.xs))
    residual = np.linalg.norm(traj.xs - z, axis=-1) / lam
    np.testing.assert_allclose(trace.residual, residual, rtol=1e-12, atol=0)
    diss = params.A * np.sum(traj.vs**2, axis=-1) + params.B * np.sum(
        traj.accs**2, axis=-1
    )
    np.testing.assert_allclose(trace.dissipation, diss, rtol=1e-12, atol=1e-300)
    fg = obj.f.eval(z) + obj.g.eval(z)
    np.testing.assert_allclose(trace.fg_shifted, fg, rtol=1e-12, atol=0)


def test_monitor_energy_agrees_with_pointwise_routes():
    obj, params, traj = _short_run()
    trace = monitor(obj, params, traj)
    x, v, acc = traj.xs, traj.vs, traj.accs
    u = acc + params.gamma * v + x  # the system identity's z, from the stored acceleration
    pointwise = h_value(obj, params, u, (1.0 - params.c) * params.gamma * v + x, v)
    scale = 1.0 + np.abs(trace.energy)
    assert np.all(np.abs(trace.energy - pointwise) <= 1e-10 * scale)
    # the H column is the same quantity through the H code path
    assert np.all(np.abs(trace.energy - trace.h_value) <= 1e-10 * scale)


def test_monitor_evaluates_f_and_g_once_each():
    obj, params, traj = _short_run()
    calls = []

    def counted(name, fn):
        def wrapper(x):
            calls.append(name)
            return fn(x)

        return wrapper

    wrapped = dataclasses.replace(
        obj,
        f=dataclasses.replace(obj.f, eval=counted("f", obj.f.eval)),
        g=dataclasses.replace(obj.g, eval=counted("g", obj.g.eval)),
    )
    trace = monitor(wrapped, params, traj)
    assert sorted(calls) == ["f", "g"]
    # the shared (f+g)(z) gives the H column h_value gives, bit for bit
    z = prox_grad_map(obj, params.lam, traj.xs)
    u = (1.0 - params.c) * params.gamma * traj.vs + traj.xs
    assert trace.h_value.tobytes() == h_value(obj, params, z, u, traj.vs).tobytes()


def test_w_bound_matches_s_p_at_canonical_weight():
    obj, params, traj = _short_run()
    trace = monitor(obj, params, traj)
    direct = params.s * np.linalg.norm(traj.accs, axis=-1) + params.p * np.linalg.norm(
        traj.vs, axis=-1
    )
    np.testing.assert_allclose(trace.w_bound, direct, rtol=1e-12, atol=0)


def test_monitor_bound_is_w_bound_at_one_minus_c_bitwise():
    # c >= 1/2, so 1 - c and 2(1 - c) are exact and 2(1 - c) + 1 rounds like
    # 3 - 2c: at a = 1 - c the general coefficients are (s, p) bit for bit
    obj, params, traj = _short_run()
    trace = monitor(obj, params, traj)
    general = w_bound(params, traj.vs, traj.accs, 1.0 - params.c)
    assert trace.w_bound.tobytes() == general.tobytes()
    gammas, lams = np.meshgrid(np.linspace(0.1, 3.0, 40), np.geomspace(1e-4, 10.0, 40))
    unit_v, zero_acc = np.array([1.0]), np.array([0.0])
    for beta in (0.0, 1.0, 3.0):
        grid = derive_params(gammas.ravel(), lams.ravel(), beta)
        for i in range(gammas.size):
            point = grid.at(i)
            assert w_bound(point, unit_v, zero_acc, 1.0 - point.c) == point.p, (beta, i)
            assert w_bound(point, zero_acc, unit_v, 1.0 - point.c) == point.s, (beta, i)


def test_witness_below_bound_short_run():
    obj, params, traj = _short_run()
    a = 1.0 - params.c
    wit = subgradient_witness(obj, params, traj, a)
    bound = w_bound(params, traj.vs, traj.accs, a)
    assert np.all(wit <= bound + 1e-9 * (1.0 + bound))


def test_weight_must_be_nonnegative():
    obj, params, traj = _short_run()
    with pytest.raises(ValueError):
        w_bound(params, traj.vs, traj.accs, -0.1)
    with pytest.raises(ValueError):
        subgradient_witness(obj, params, traj, -0.1)


def test_a_nan_weight_is_rejected():
    obj, params, traj = _short_run()
    with pytest.raises(ValueError, match="^a must be a nonnegative finite real, got nan$"):
        w_bound(params, traj.vs, traj.accs, math.nan)
    with pytest.raises(ValueError, match="^a must be a nonnegative finite real, got nan$"):
        subgradient_witness(obj, params, traj, math.nan)


def _flat_trace(times, energy, dissipation):
    n = len(times)
    zeros = np.zeros(n)
    return EnergyTrace(
        times=np.asarray(times, dtype=float),
        energy=np.asarray(energy, dtype=float),
        fg_shifted=zeros,
        h_value=zeros,
        w_bound=zeros,
        residual=zeros,
        dissipation=np.asarray(dissipation, dtype=float),
    )


def test_check_monotone_flags_adjacent_and_integrated_rise():
    trace = _flat_trace([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 2.5, 1.0], np.zeros(4))
    adjacent, integrated = check_monotone(trace, tol=0.1)
    for check in (adjacent, integrated):
        assert isinstance(check, BoundCheck) and check.tol == 0.1
        assert check.times.tolist() == [1.0, 2.0, 3.0] and check.rhs.tolist() == [0.0] * 3
        assert np.flatnonzero(~check.ok).tolist() == [1]  # the rise into sample 2
        assert abs(check.lhs[1] - 0.5) <= 1e-12 and abs(check.max_excess - 0.5) <= 1e-12
    assert adjacent.lhs.tolist() == [-1.0, 0.5, -1.5]


def test_check_monotone_integrated_only():
    # Constant energy passes the adjacent check but not the integrated one
    # when the dissipation bound demands strict decrease.
    trace = _flat_trace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [-1.0, -1.0, -1.0])
    adjacent, integrated = check_monotone(trace, tol=0.1)
    assert adjacent.holds
    assert integrated.ok.tolist() == [False, False]  # at samples 1 and 2
    assert integrated.lhs.tolist() == [1.0, 2.0]


def test_check_monotone_clean_trace():
    trace = _flat_trace([0.0, 1.0, 2.0], [3.0, 2.0, 1.5], [-1.0, -1.0, -0.2])
    assert all(check.holds for check in check_monotone(trace, tol=0.6))


def test_check_monotone_validation():
    trace = _flat_trace([0.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        check_monotone(trace, -1.0)
    empty = _flat_trace([], [], [])
    with pytest.raises(ValueError, match="empty"):
        check_monotone(empty, 0.0)
    for check in check_monotone(trace, 0.0):  # one sample: no pair, nothing fails
        assert check.times.size == check.lhs.size == 0 and check.holds


def test_check_monotone_leaves_finiteness_to_the_caller():
    # a rise from +inf is -inf, and inf - inf is nan: the first passes and the
    # second fails, and no numpy warning is raised for either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adjacent, integrated = check_monotone(_flat_trace([0.0, 1.0], [math.inf, 1.0], np.zeros(2)), 1e-6)
        assert adjacent.lhs.tolist() == integrated.lhs.tolist() == [-math.inf]
        assert adjacent.holds and integrated.holds
        checks = check_monotone(_flat_trace([0.0, 1.0, 2.0], [math.inf, math.inf, math.nan], np.zeros(3)),
                                math.inf)
        assert all(np.isnan(check.lhs).all() and not check.ok.any() for check in checks)
    # an infinite tolerance passes every finite rise
    rising = _flat_trace([0.0, 1.0], [1.0, 2.0], np.zeros(2))
    assert not any(check.holds for check in check_monotone(rising, 0.5))
    assert all(check.holds for check in check_monotone(rising, math.inf))


def test_canonical_runs_monotone(canonical_runs):
    for name, run in canonical_runs.items():
        trace = monitor(run.obj, run.params, run.traj)
        tol = 1e-6 * (1.0 + abs(trace.energy[0]))
        assert np.isfinite(trace.energy).all(), name
        assert all(check.holds for check in check_monotone(trace, tol)), name


def test_bound_check_fails_a_nan_and_reports_its_excess():
    check = BoundCheck(times=np.arange(4.0), lhs=np.array([1.0, 2.0, math.nan, 0.5]),
                       rhs=np.array([1.0, 1.5, 0.0, math.inf]), tol=0.5)
    assert check.ok.tolist() == [True, True, False, True]
    assert not check.holds and math.isnan(check.max_excess)
    finite = dataclasses.replace(check, lhs=np.array([1.0, 2.0, 0.0, 0.5]))
    assert finite.holds and finite.max_excess == 0.5
    empty = BoundCheck(times=np.empty(0), lhs=np.empty(0), rhs=np.empty(0), tol=0.0)
    assert empty.holds and empty.max_excess == -math.inf


@pytest.mark.parametrize("name, index, factor", [("box_quad", 20000, 1.5), ("lasso", 5000, 1.01)])
def test_third_derivative_check_fails_at_a_scaled_acceleration(canonical_runs, name, index, factor):
    # the central differences on either side of the scaled sample are the interior samples it moves
    run = canonical_runs[name]
    assert third_derivative_check(run.traj, run.params).holds
    accs = run.traj.accs.copy()  # the session's runs are read-only
    accs[index] *= factor
    check = third_derivative_check(dataclasses.replace(run.traj, accs=accs), run.params)
    assert np.flatnonzero(~check.ok).tolist() == [index - 2, index]
    assert not check.holds and check.max_excess > check.tol


def test_energy_csv_round_trip(tmp_path):
    obj, params, traj = _short_run()
    trace = monitor(obj, params, traj)
    path = tmp_path / "energy.csv"
    write_energy_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,energy,fg_shifted,h_value,w_bound,residual,dissipation"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], trace.times)
    assert np.array_equal(data[:, 1], trace.energy)
    assert np.array_equal(data[:, 4], trace.w_bound)
    assert np.array_equal(data[:, 6], trace.dissipation)


def test_energy_csv_formats_special_values(tmp_path):
    values = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0])
    columns = [np.roll(values, shift) for shift in range(7)]
    trace = EnergyTrace(*columns)
    path = tmp_path / "energy.csv"
    write_energy_csv(trace, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "t,energy,fg_shifted,h_value,w_bound,residual,dissipation"
    assert lines[1:] == [
        ",".join(format(float(col[i]), ".17g") for col in columns) for i in range(len(values))
    ] + [""]
