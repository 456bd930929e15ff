"""Rate estimation tests on synthetic trajectories with known decay laws."""

import math
import warnings

import numpy as np
import pytest

from proxdyn import (
    NotConvergedError,
    SigmaTrace,
    Trajectory,
    check_sigma_dominance,
    classify_rate,
    derive_params,
    fit_exponential,
    fit_polynomial,
    integrate,
    make_problem,
    sigma_estimate,
    sigma_ode_check,
)
from proxdyn.problems import _rownorm, _rowwise_sqnorm
from proxdyn.rates import _linear_fit


def _traj(times, xs, vs, accs):
    times = np.asarray(times, dtype=float)
    col = lambda arr: np.asarray(arr, dtype=float).reshape(len(times), 1)
    return Trajectory(
        times=times,
        xs=col(xs),
        vs=col(vs),
        accs=col(accs),
        params=None,
        step=float(times[1] - times[0]) if len(times) > 1 else 0.0,
    )


# -- sigma --------------------------------------------------------------


def test_sigma_matches_exact_tail_integral():
    t = np.arange(0.0, 25.0 + 1e-12, 1e-3)
    decay = np.exp(-t)
    traj = _traj(t, decay, -decay, decay)
    trace = sigma_estimate(traj)
    assert not trace.approximate
    exact = 2.0 * np.exp(-t)
    mask = t <= 10.0
    rel = np.abs(trace.sigma[mask] - exact[mask]) / exact[mask]
    assert np.max(rel) <= 1e-5
    assert trace.sigma[-1] == 0.0
    assert np.all(np.diff(trace.sigma) <= 0.0)


def test_sigma_zero_at_equilibrium():
    t = np.linspace(0.0, 1.0, 11)
    traj = _traj(t, np.ones(11), np.zeros(11), np.zeros(11))
    trace = sigma_estimate(traj)
    assert not trace.approximate
    assert np.all(trace.sigma == 0.0)


def test_sigma_warns_when_tail_not_decayed():
    t = np.arange(0.0, 5.0, 1e-2)
    decay = np.exp(-t)
    traj = _traj(t, decay, -decay, decay)
    with pytest.warns(RuntimeWarning, match="truncated"):
        trace = sigma_estimate(traj)
    assert trace.approximate


def test_sigma_needs_two_samples():
    traj = _traj([0.0], [1.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        sigma_estimate(traj)


# -- exponential fit ----------------------------------------------------


def test_fit_exponential_recovers_synthetic_constants():
    t = np.arange(0.0, 10.0, 0.01)
    d = 3.0 * np.exp(-2.0 * t)
    traj = _traj(t, d, np.zeros_like(t), np.zeros_like(t))
    a1, a2, r2 = fit_exponential(traj, [0.0])
    assert abs(a1 - 3.0) <= 1e-10
    assert abs(a2 - 2.0) <= 1e-10
    assert r2 >= 1.0 - 1e-12


def test_fit_exponential_critically_damped_slope():
    # distance (1 + t/2) exp(-t/2) is not a pure exponential; the fitted
    # slope over [5, 20] sits below the asymptotic 0.5
    t = np.arange(0.0, 20.0 + 1e-12, 0.01)
    x = (1.0 + 0.5 * t) * np.exp(-0.5 * t)
    v = -0.25 * t * np.exp(-0.5 * t)
    acc = (0.125 * t - 0.25) * np.exp(-0.5 * t)
    traj = _traj(t, x, v, acc)
    a1, a2, r2 = fit_exponential(traj, [0.0], t0=5.0)
    assert 0.40 <= a2 <= 0.55
    assert r2 >= 0.99


def test_fit_exponential_rejects_a_constant_that_overflows():
    # a1 = exp(intercept) extrapolates the fitted line back to t = 0, here e^870
    t = np.arange(870.0, 901.0)
    d = np.exp(870.0 - t)
    with pytest.raises(ValueError, match="a1"):
        fit_exponential(_traj(t, d, -d, d), [0.0])


def test_fit_exponential_of_a_distance_whose_square_overflows():
    # 1e300/t squares to inf; the fit must be the one of 1/t, shifted by log 1e300
    t = np.linspace(1e10, 2e10, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a1, a2, r2 = fit_exponential(_traj(t, 1e300 / t, -1e300 / t**2, 2e300 / t**3), [0.0])
    b1, b2, s2 = fit_exponential(_traj(t, 1.0 / t, -1.0 / t**2, 2.0 / t**3), [0.0])
    assert a1 == pytest.approx(1e300 * b1, rel=1e-9)
    assert a2 == pytest.approx(b2, rel=1e-9) and a2 > 0.0
    assert r2 == pytest.approx(s2, rel=1e-9)


def test_fit_exponential_too_few_samples():
    t = np.linspace(0.0, 1.0, 4)
    traj = _traj(t, np.exp(-t), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="fewer than 5"):
        fit_exponential(traj, [0.0])


def test_constant_distance_is_not_classified_as_decay():
    t = np.linspace(0.0, 10.0, 200)
    traj = _traj(t, np.full_like(t, 0.5), np.zeros_like(t), np.zeros_like(t))
    a1, a2, r2 = fit_exponential(traj, [0.0])
    assert abs(a2) <= 1e-12
    report = classify_rate(traj, x_limit=[0.0])
    assert report.regime == "undetermined"
    assert report.fit_quality["polynomial"] is None


@pytest.mark.parametrize("value", [math.log(0.3), math.log(7.0)], ids=["log0.3", "log7"])
@pytest.mark.parametrize("jitter", [0, 1], ids=["exact", "one_ulp"])
def test_a_flat_series_has_r_squared_zero(value, jitter):
    # its total sum of squares is only the rounding of its mean: r-squared
    # read 0.0 for log(0.3) and -22.6 for log(7)
    y = np.full(50, value)
    y[7] = np.nextafter(value, math.inf) if jitter else value
    assert _linear_fit(np.arange(50.0), y)[2] == 0.0


def test_a_stationary_trajectory_is_not_classified_as_decay():
    # it was "exponential" with a2 = 1.2e-17 and fit quality 1.0
    t = np.arange(20) * 0.1
    traj = _traj(t, np.full(20, 9.128), np.zeros(20), np.zeros(20))
    report = classify_rate(traj, x_limit=[0.0])
    assert report.regime == "undetermined"
    assert report.a2 is None and report.fit_quality["exponential"] == 0.0


# -- polynomial fit -----------------------------------------------------


def test_fit_polynomial_inverse_t():
    t = np.arange(1.0, 100.0, 0.01)
    d = 1.0 / t
    traj = _traj(t, d, np.zeros_like(t), np.zeros_like(t))
    a3, a4, theta, r2 = fit_polynomial(traj, [0.0])
    assert abs(theta - 2.0 / 3.0) <= 1e-10
    assert abs(a3 - 1.0) <= 1e-10
    assert a4 == pytest.approx(a3 * t[0])
    assert r2 >= 1.0 - 1e-12


def test_fit_polynomial_inverse_t_cubed():
    t = np.arange(1.0, 50.0, 0.01)
    traj = _traj(t, t**-3.0, np.zeros_like(t), np.zeros_like(t))
    _, _, theta, _ = fit_polynomial(traj, [0.0])
    assert abs(theta - 4.0 / 7.0) <= 1e-10


def test_fit_polynomial_steep_power_approaches_half():
    t = np.arange(1.0, 1.3, 0.001)
    traj = _traj(t, t**-100.0, np.zeros_like(t), np.zeros_like(t))
    _, _, theta, _ = fit_polynomial(traj, [0.0])
    assert 0.5 < theta < 0.51


def test_fit_polynomial_rejects_growth():
    t = np.arange(1.0, 10.0, 0.01)
    traj = _traj(t, t, np.zeros_like(t), np.zeros_like(t))
    with pytest.raises(ValueError, match="does not decay"):
        fit_polynomial(traj, [0.0])


def test_fit_polynomial_rejects_a_constant_that_overflows():
    # the distance barely moves over a short window: q is about 4e-5 and
    # a3 = exp(-intercept / q) about exp(2e4)
    t = np.linspace(0.0, 0.1, 11)
    decay = 0.5 * np.exp(-1e-3 * t)
    traj = _traj(t, 0.5 + decay, -1e-3 * decay, 1e-6 * decay)
    with pytest.raises(ValueError, match="a3"):
        fit_polynomial(traj, [0.5])
    report = classify_rate(traj, x_limit=[0.5])
    assert report.fit_quality["polynomial"] is None
    assert report.regime == "exponential"


def test_fit_polynomial_rejects_an_a4_that_overflows():
    # d = (a3 * t)**-0.01 with a3 = 1e299, so a4 = a3 * t_ref with t_ref = 1e10
    t = np.linspace(1e10, 2e10, 20)
    traj = _traj(t, 10.0**-2.99 * t**-0.01, np.zeros(20), np.zeros(20))
    with pytest.raises(ValueError, match="^the fitted a4 = .* is not finite$"):
        fit_polynomial(traj, [0.0])


def test_fit_polynomial_too_few_samples():
    t = np.linspace(1.0, 2.0, 4)
    traj = _traj(t, 1.0 / t, np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="fewer than 5"):
        fit_polynomial(traj, [0.0])


# -- classification -----------------------------------------------------


def test_classify_exponential_synthetic():
    t = np.arange(0.0, 10.0, 0.01)
    d = 3.0 * np.exp(-2.0 * t)
    traj = _traj(t, d, -2.0 * d, 4.0 * d)
    report = classify_rate(traj, x_limit=[0.0], t0=0.0)
    assert report.regime == "exponential"
    assert report.theta == 0.5
    assert abs(report.a1 - 3.0) <= 1e-10
    assert abs(report.a2 - 2.0) <= 1e-10
    assert report.fit_quality["exponential"] > report.fit_quality["polynomial"]
    as_dict = report.to_dict()
    assert as_dict["regime"] == "exponential"
    assert as_dict["x_limit"] == [0.0]
    assert report.a3 is None and report.a4 is None


def test_classify_polynomial_synthetic():
    t = np.arange(1.0, 1000.0, 0.05)
    d = t**-2.0
    traj = _traj(t, d, -2.0 * t**-3.0, 6.0 * t**-4.0)
    report = classify_rate(traj, x_limit=[0.0])
    assert report.regime == "polynomial"
    assert abs(report.theta - 0.6) <= 1e-6
    assert report.fit_quality["polynomial"] > report.fit_quality["exponential"]
    assert report.a4 == pytest.approx(report.a3 * report.t0)


def test_classify_undetermined_on_noise():
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 10.0, 500)
    x = 0.5 + 0.1 * rng.standard_normal(500)
    traj = _traj(t, x, np.zeros(500), np.zeros(500))
    report = classify_rate(traj, x_limit=[0.0])
    assert report.regime == "undetermined"
    for val in report.fit_quality.values():
        assert val is None or val < 0.9


def _fit_or_none(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except ValueError:
        return None


@pytest.mark.parametrize("case", ["exponential", "polynomial", "noise"])
def test_classify_reports_bit_for_bit_what_each_fit_returns(case):
    if case == "exponential":
        t = np.arange(0.0, 10.0, 0.01)
        x = 3.0 * np.exp(-2.0 * t)
    elif case == "polynomial":
        t = np.arange(1.0, 1000.0, 0.05)
        x = t**-2.0
    else:
        t = np.linspace(0.0, 10.0, 500)
        x = 0.5 + 0.1 * np.random.default_rng(9).standard_normal(500)
    traj = _traj(t, x, -x, x)
    t0 = float(t[len(t) // 10])
    report = classify_rate(traj, [0.0], t0)
    exp_fit = _fit_or_none(fit_exponential, traj, [0.0], t0)
    poly_fit = _fit_or_none(fit_polynomial, traj, [0.0], t0)
    assert report.fit_quality == {"exponential": exp_fit and exp_fit[2], "polynomial": poly_fit and poly_fit[3]}
    assert report.regime == {"noise": "undetermined"}.get(case, case)
    if case == "exponential":
        assert (report.a1, report.a2) == exp_fit[:2]
    if case == "polynomial":
        assert (report.a3, report.a4, report.theta) == poly_fit[:3]


@pytest.mark.parametrize("x_limit", [[math.inf], [math.nan], -math.inf])
def test_both_fits_reject_a_limit_point_that_is_not_finite(x_limit):
    t = np.arange(0.0, 10.0, 0.01)
    d = np.exp(-t)
    traj = _traj(t, d, -d, d)
    for fit in (fit_exponential, fit_polynomial):
        with pytest.raises(ValueError, match="^the limit point is not finite"):
            fit(traj, x_limit)


def test_classify_convergence_gate():
    t = np.arange(0.0, 10.0, 0.01)
    d = np.exp(-0.1 * t)  # final speed ~ 0.7, far from settled
    traj = _traj(t, d, -0.1 * d, 0.01 * d)
    with pytest.raises(NotConvergedError):
        classify_rate(traj, x_limit=[0.0], converged_tol=1e-3)
    assert issubclass(NotConvergedError, ValueError)
    report = classify_rate(traj, x_limit=[0.0], converged_tol=None)
    assert report.regime in {"exponential", "polynomial", "undetermined"}


def test_classify_rejects_a_nan_convergence_tolerance():
    # no speed compares above nan, so a nan tolerance would pass any trajectory
    t = np.arange(0.0, 10.0, 0.01)
    d = np.exp(-0.1 * t)
    traj = _traj(t, d, -0.1 * d, 0.01 * d)
    with pytest.raises(ValueError, match=r"^converged_tol must be a nonnegative finite real, got nan$"):
        classify_rate(traj, x_limit=[0.0], converged_tol=math.nan)


@pytest.mark.parametrize("xs, vs, x_limit", [
    ([1.0, math.inf, 0.0], [0.0, 0.0, 0.0], [0.0]),  # a non-finite sample
    ([1.0, 0.5, 0.0], [math.nan, 0.0, 0.0], [0.0]),
    ([1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [math.inf]),  # a non-finite anchor
    ([0.0, 0.5, 1.0], [0.0, 1e308, 1.7e308], None),  # finite samples whose speed overflows
])
def test_classify_rejects_non_finite_trajectories(xs, vs, x_limit):
    traj = _traj([0.0, 1.0, 2.0], xs, vs, vs)
    with pytest.raises(ValueError, match="not finite"):
        classify_rate(traj, x_limit=x_limit)


@pytest.mark.parametrize("x_limit, got", [([0.0, 0.0], "2"), ([], "0"), ([[0.0]], r"shape \(1, 1\)")])
def test_an_x_limit_of_neither_one_entry_nor_dim_is_rejected(x_limit, got):
    # numpy would broadcast these against the (n, 1) samples instead
    t = np.arange(0.0, 10.0, 0.01)
    d = np.exp(-t)
    traj = _traj(t, d, -d, d)
    message = r"^x_limit must have 1 or dim=1 entries, got %s$" % got
    for fit in (classify_rate, fit_exponential, fit_polynomial):
        with pytest.raises(ValueError, match=message):
            fit(traj, x_limit)


def test_classify_a_trajectory_whose_squares_overflow():
    # the speed and distance of 1e200*e^-t square to inf, and those of 1e-200*e^-t
    # to subnormals or 0; the rate of either is that of e^-t
    t = np.arange(0.0, 20.0, 0.01)
    d = np.exp(-t)
    ref = classify_rate(_traj(t, d, -d, d))
    for scale in (1e200, 1e-200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify_rate(_traj(t, scale * d, -scale * d, scale * d))
        assert report.regime == ref.regime == "exponential"
        assert report.t0 == ref.t0
        assert report.a2 == pytest.approx(ref.a2, rel=1e-9)
        assert report.a1 == pytest.approx(scale * ref.a1, rel=1e-9)


def test_row_norms_rescale_only_the_rows_whose_squares_leave_the_normal_range():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((400, 5)) * np.logspace(-250.0, 250.0, 400)[:, None]
    with np.errstate(over="ignore"):
        sq = _rowwise_sqnorm(x)
    normal = np.isfinite(sq) & (sq >= np.finfo(float).tiny)
    assert 0 < normal.sum() < len(x)
    norm = _rownorm(x)
    assert np.array_equal(norm[normal], np.sqrt(sq[normal]))
    exact = np.array([math.hypot(*row) for row in x])
    np.testing.assert_allclose(norm, exact, rtol=4e-16, atol=0)
    # a lone point, and a 3-D stack, get the bits of the same rows of the 2-D stack
    assert all(_rownorm(row) == n for row, n in zip(x, norm))
    assert np.array_equal(_rownorm(x.reshape(20, 20, 5)), norm.reshape(20, 20))
    edge = _rownorm(np.array([[0.0, 0.0], [math.inf, 1.0], [math.nan, 1.0], [1e-170, 0.0]]))
    assert edge[0] == 0.0 and edge[1] == math.inf and math.isnan(edge[2]) and edge[3] == 1e-170


def test_classify_is_undetermined_when_neither_fit_has_samples_enough():
    t = np.linspace(0.0, 3.0, 4)
    traj = _traj(t, np.exp(-t), np.zeros(4), np.zeros(4))
    report = classify_rate(traj, x_limit=[0.0])
    assert report.regime == "undetermined"
    assert report.fit_quality == {"exponential": None, "polynomial": None}


def test_classify_needs_two_samples():
    traj = _traj([0.0], [1.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        classify_rate(traj)


# -- integrated flows ---------------------------------------------------


def _readme_lasso(u0):
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    return integrate(obj, derive_params(1.0, 0.02, obj.g.beta), [u0], [0.0], 100.0, 1e-2)


def test_an_exponential_flow_stays_exponential_however_long_it_runs():
    # zero_quad on its fast manifold decays at 0.98990; by t_end 40 its distance
    # is 1e-16 of its start, which is no sign of finite-time convergence
    obj = make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    v0 = 2.0 * (-1.0 - math.sqrt(0.96)) / 2.0
    traj = integrate(obj, derive_params(1.0, 0.01, obj.g.beta), [2.0], [v0], 40.0, 1e-2)
    for x_limit in (None, 0.0):
        report = classify_rate(traj, x_limit=x_limit)
        assert report.regime == "exponential", x_limit
        assert report.a2 == pytest.approx(0.98990, abs=1e-3), x_limit


def test_with_no_limit_the_readme_lasso_decays_at_its_slow_rate():
    # the slow root of r^2 + r + 0.02; the distance to the last sample, which
    # is still 0.13 from the limit, decays faster
    slow = (1.0 - math.sqrt(0.92)) / 2.0
    report = classify_rate(_readme_lasso(1.5))
    assert report.regime == "exponential"
    assert report.a2 == pytest.approx(slow, rel=1e-2)
    assert report.x_limit is None and report.to_dict()["x_limit"] is None


def test_a_run_at_rest_has_no_rate():
    # u0 0.5 is the lasso's minimizer: the run never moves
    report = classify_rate(_readme_lasso(0.5))
    assert report.regime == "undetermined"
    assert report.fit_quality == {"exponential": None, "polynomial": None}


# -- sigma ODE ----------------------------------------------------------


def test_sigma_ode_exponential_satisfies_half_envelope():
    t = np.arange(0.0, 10.0, 0.01)
    trace = SigmaTrace(times=t, sigma=np.exp(-t))
    report = sigma_ode_check(trace, theta=0.5, alpha=1.0)
    assert report.holds
    assert report.tol > 0.0
    assert len(report.times) == len(t) - 2


def test_sigma_ode_inverse_t_against_two_thirds_envelope():
    t = np.arange(0.0, 50.0, 0.01)
    trace = SigmaTrace(times=t, sigma=1.0 / (1.0 + t))
    ok = sigma_ode_check(trace, theta=2.0 / 3.0, alpha=1.0)
    assert ok.holds
    tight = sigma_ode_check(trace, theta=2.0 / 3.0, alpha=1.3)
    assert not tight.holds


def test_sigma_ode_flags_wrong_regime():
    # a polynomially decaying sigma cannot satisfy the theta = 1/2
    # envelope sigma' <= -sigma for large t
    t = np.arange(0.0, 50.0, 0.01)
    trace = SigmaTrace(times=t, sigma=1.0 / (1.0 + t))
    report = sigma_ode_check(trace, theta=0.5, alpha=1.0)
    assert np.count_nonzero(~report.ok) > 0.5 * len(report.times)


def test_sigma_ode_validation():
    t = np.linspace(0.0, 1.0, 10)
    trace = SigmaTrace(times=t, sigma=np.exp(-t))
    with pytest.raises(ValueError):
        sigma_ode_check(trace, theta=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        sigma_ode_check(trace, theta=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        sigma_ode_check(trace, theta=0.5, alpha=0.0)
    short = SigmaTrace(times=t[:2], sigma=np.ones(2))
    with pytest.raises(ValueError, match="at least 3"):
        sigma_ode_check(short, theta=0.5, alpha=1.0)


def test_sigma_ode_on_three_samples_allows_only_rounding():
    # no third difference: the allowance is 1e-12 of the largest sigma
    t = np.array([0.0, 1.0, 2.0])
    report = sigma_ode_check(SigmaTrace(times=t, sigma=4.0 * np.exp(-t)), theta=0.5, alpha=1.0)
    assert report.tol == 4e-12
    assert report.holds


def test_sigma_ode_envelope_is_inf_where_sigma_is_zero():
    t = np.arange(6.0)
    report = sigma_ode_check(SigmaTrace(times=t, sigma=np.array([4.0, 2.0, 1.0, 0.0, 0.0, 0.0])),
                             theta=0.5, alpha=1.0)
    assert report.rhs.tolist() == [-2.0, -1.0, math.inf, math.inf]
    assert report.ok.tolist() == [False, True, True, True]  # -1.5 > -2 + tol, tol = 1/6 + 4e-15


def test_sigma_ode_rejects_a_nan_alpha():
    trace = SigmaTrace(times=np.linspace(0.0, 1.0, 10), sigma=np.exp(-np.linspace(0.0, 1.0, 10)))
    with pytest.raises(ValueError, match="^alpha must be a positive finite real, got nan$"):
        sigma_ode_check(trace, theta=0.5, alpha=math.nan)


# -- sigma dominance ----------------------------------------------------


def test_sigma_dominates_distance_and_velocity_on_consistent_run():
    t = np.arange(0.0, 60.0 + 1e-12, 0.01)
    x = (1.0 + 0.5 * t) * np.exp(-0.5 * t)
    v = -0.25 * t * np.exp(-0.5 * t)
    acc = (0.125 * t - 0.25) * np.exp(-0.5 * t)
    traj = _traj(t, x, v, acc)
    distance, velocity = check_sigma_dominance(traj)
    assert distance.holds
    assert velocity.holds
    assert distance.max_excess <= distance.tol
    assert velocity.max_excess <= velocity.tol


def test_sigma_dominance_reports_on_a_trajectory_whose_last_sample_is_inf():
    # no limit point is taken from the last sample, so nothing rejects it as not finite
    t = np.linspace(0.0, 1.0, 10)
    x = np.where(t < 1.0, 1.0 - t, math.inf)
    traj = _traj(t, x, -np.ones(10), np.zeros(10))
    with pytest.warns(RuntimeWarning, match="tail has not decayed"):  # the speed stays 1: by design
        trace = sigma_estimate(traj)
    distance, velocity = check_sigma_dominance(traj, trace)  # and no numpy warning from the inf sample
    assert not distance.holds and math.isnan(distance.max_excess)
    assert velocity.holds and velocity.max_excess == 1.0


def test_sigma_dominance_detects_inconsistent_jump():
    # a jump in x with zero recorded velocity cannot be covered by sigma
    t = np.linspace(0.0, 1.0, 100)
    x = np.where(t < 0.5, 1.0, 0.0)
    traj = _traj(t, x, np.zeros(100), np.zeros(100))
    trace = sigma_estimate(traj)
    distance, velocity = check_sigma_dominance(traj, trace)
    assert not distance.holds
    assert velocity.holds
    assert distance.max_excess == pytest.approx(1.0)
