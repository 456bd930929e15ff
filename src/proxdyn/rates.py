"""Empirical decay-rate estimation for converged trajectories.

Two regimes are distinguished by the Lojasiewicz exponent theta of the
underlying regularized function: theta = 1/2 gives an exponential envelope
a1*exp(-a2*t), and theta in (1/2, 1) a polynomial envelope
(a3*t + a4)^(-(1-theta)/(2*theta-1)).  theta in (0, 1/2) gives finite-time
convergence for some gradient-like systems, but not for this flow: its field
is globally Lipschitz, so by Picard-Lindelof its solutions are unique
backward in time too, and no trajectory that moves reaches a rest point
(x*, 0) in finite time.  The exponent is estimated from data, never certified.

Both envelopes are fitted to one decaying series over one window: the
samples with t >= t0 whose value is above 1e-14 of the series' peak, and for
the polynomial envelope only those with t > 0.  A fit needs at least 5 such
samples.  Given a limit point x_limit, the series is the distance
||x(t) - x_limit||.  Without one it is the speed ||x'|| + ||x''||, and the
fitted envelope is integrated in closed form to one of sigma below, so the
constants reported on either route bound the distance to the limit.

The tail quantity sigma(t) = integral over [t, inf) of ||x'(s)|| + ||x''(s)||
dominates both ||x(t) - x_limit|| and ||x'(t)||; it is estimated by a
trapezoid rule truncated at the final sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .lyapunov import BoundCheck
from .problems import _check_real, _check_type, _per_row, _rownorm

__all__ = [
    "SigmaTrace",
    "RateReport",
    "NotConvergedError",
    "sigma_estimate",
    "fit_exponential",
    "fit_polynomial",
    "classify_rate",
    "sigma_ode_check",
    "check_sigma_dominance",
]

_SERIES_FLOOR = 1e-14
_R2_ACCEPT = 0.9


class NotConvergedError(ValueError):
    """Trajectory tail has not settled below the caller's tolerance."""


@dataclass
class SigmaTrace:
    """Tail integral of ||x'|| + ||x''||, nonincreasing by construction.

    ``approximate`` is set when the integrand had not decayed at the final
    sample, so the truncated tail is a visible underestimate.
    """

    times: np.ndarray
    sigma: np.ndarray
    approximate: bool = False


@dataclass
class RateReport:
    """Decay classification with the fitted constants of the chosen regime.

    Exactly the fields of the chosen regime are populated: (a1, a2) for
    exponential (theta reported as 0.5), (a3, a4, theta) for polynomial,
    none for undetermined.  ``fit_quality`` maps each attempted regime to
    its coefficient of determination on the fit window, from ``t0`` to the
    last sample.  ``x_limit`` is the limit point whose distance was fitted,
    or None when the speed was fitted instead.
    """

    regime: str
    theta: Optional[float] = None
    a1: Optional[float] = None
    a2: Optional[float] = None
    a3: Optional[float] = None
    a4: Optional[float] = None
    fit_quality: dict = field(default_factory=dict)
    t0: float = 0.0
    x_limit: Optional[np.ndarray] = None

    def to_dict(self):
        """The fields in declaration order, which is the JSON key order."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["fit_quality"] = dict(self.fit_quality)
        out["x_limit"] = None if self.x_limit is None else [float(x) for x in self.x_limit]
        return out


def _speed(traj):
    return _rownorm(traj.vs) + _rownorm(traj.accs)


def sigma_estimate(traj):
    """Trapezoid estimate of sigma(t) on the sample grid.

    Warns (and flags the result approximate) when the integrand at the
    final sample is above 1e-8 of its initial value, since the infinite
    tail is then visibly truncated.
    """
    if len(traj.times) < 2:
        raise ValueError("need at least 2 samples")
    speed = _speed(traj)
    seg = 0.5 * (speed[1:] + speed[:-1]) * np.diff(traj.times)
    sigma = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
    approximate = bool(speed[0] > 0 and speed[-1] > 1e-8 * speed[0])
    if approximate:
        warnings.warn(
            "trajectory tail has not decayed (final speed %.3g vs initial %.3g); "
            "sigma is a truncated underestimate" % (speed[-1], speed[0]),
            RuntimeWarning,
            stacklevel=2,
        )
    return SigmaTrace(times=traj.times.copy(), sigma=sigma, approximate=approximate)


def _limit_point(x_limit, dim):
    """``x_limit`` as a finite float array of 1 or ``dim`` entries, else ValueError.

    An entry that is a bool, a string or not a real is rejected, not coerced.
    """
    x_limit = np.atleast_1d(_check_type(x_limit, "x_limit", "finite").astype(float, copy=False))
    if x_limit.shape not in ((1,), (dim,)):
        got = x_limit.size if x_limit.ndim == 1 else "shape %s" % (x_limit.shape,)
        raise ValueError("x_limit must have 1 or dim=%d entries, got %s" % (dim, got))
    if not np.all(np.isfinite(x_limit)):
        raise ValueError("the limit point is not finite, so no rate can be classified")
    return x_limit


def _distance(traj, x_limit):
    """||x - x_limit|| at each sample, one row block at a time."""
    x_limit = _limit_point(x_limit, traj.xs.shape[-1])
    return _per_row(lambda rows: _rownorm(traj.xs[rows] - x_limit), traj.xs)


def _linear_fit(xv, yv):
    slope, intercept = np.polyfit(xv, yv, 1)
    pred = slope * xv + intercept
    ss_res = float(np.sum((yv - pred) ** 2))
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    # a flat series has nothing to explain: its ss_tot is the rounding of its mean
    flat = np.ptp(yv) <= 4.0 * np.spacing(np.max(np.abs(yv)))
    r2 = 0.0 if flat else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _fitted_exp(x, what):
    """exp(x) for the fitted constant ``what``; ValueError when it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ValueError("the fitted %s = exp(%g) overflows" % (what, x)) from None


def _fit(times, d, t0, regime, integrate=False):
    """Fit the "exponential" or "polynomial" envelope to the decaying series ``d``.

    The window is the module docstring's; returns and raises as the public fit of ``regime``.
    With ``integrate`` the constants are those of the envelope's integral from t to infinity:
    a speed K*exp(-a2*t) gives a1 = K/a2, and a speed K*t^(-q-1) gives q with K/q as its scale.
    """
    mask = (times >= t0) & (d > _SERIES_FLOOR * d.max(initial=0.0))
    power = regime == "polynomial"
    if power:
        mask &= times > 0.0
    if int(mask.sum()) < 5:
        raise ValueError("fewer than 5 usable samples beyond t0 for the %s fit" % regime)
    tt = times[mask]
    slope, intercept, r2 = _linear_fit(np.log(tt) if power else tt, np.log(d[mask]))
    rate = -slope - 1.0 if integrate and power else -slope  # a2, or the power q
    if integrate and rate > 0.0:  # at a2 <= 0 there is no tail integral, and no reported fit
        intercept -= math.log(rate)
    if not power:
        return _fitted_exp(intercept, "a1"), rate, r2
    q = rate
    if q <= 0.0:
        raise ValueError("the series does not decay polynomially (fitted q = %g <= 0)" % q)
    theta = (1.0 + q) / (1.0 + 2.0 * q)
    a3 = _fitted_exp(-intercept / q, "a3")
    t_ref = t0 if t0 > 0.0 else float(tt[0])
    a4 = a3 * t_ref
    if not math.isfinite(a4):  # also when -intercept / q is inf, and exp of it too
        raise ValueError("the fitted a4 = %g * %g is not finite" % (a3, t_ref))
    return a3, a4, theta, r2


def fit_exponential(traj, x_limit, t0=0.0):
    """Least-squares line on (t, log distance) over the fit window.

    Returns (a1, a2, r_squared) for the model distance <= a1*exp(-a2*t).
    Raises ValueError when the limit point is not finite, with fewer than 5
    usable samples or when a1 overflows.
    """
    return _fit(traj.times, _distance(traj, x_limit), t0, "exponential")


def fit_polynomial(traj, x_limit, t0=0.0):
    """Least-squares line on (log t, log distance) over the fit window.

    The slope -q gives theta = (1+q)/(1+2q), inverting
    q = (1-theta)/(2*theta-1).  The pair (a3, a4) has a one-parameter
    redundancy on a log scale; it is fixed by the convention a4 = a3 * t_ref
    with t_ref the start of the fit window.  Returns (a3, a4, theta,
    r_squared); raises ValueError when the limit point is not finite, when
    the data does not decay (q <= 0), has fewer than 5 usable samples or
    gives a constant that is not finite.
    """
    return _fit(traj.times, _distance(traj, x_limit), t0, "polynomial")


def classify_rate(traj, x_limit=None, t0=None, converged_tol=None):
    """Classify the decay of a trajectory into one of the regimes.

    Parameters
    ----------
    traj : Trajectory
    x_limit : array_like, optional
        One number, the value of every coordinate, or one entry per
        coordinate.  When given, the distance ||x(t) - x_limit|| is fitted;
        when omitted, the speed, with its envelope integrated to one of
        sigma(t) as the module docstring says.
    t0 : float, optional
        Fit-window start.  Defaults to the first time the settling speed
        ||x'|| + ||x''|| drops below 1e-2 of its initial value.
    converged_tol : float, optional
        When given, the final speed must be at or below this absolute
        value, else NotConvergedError is raised.  When omitted no
        convergence check is made.  nan is rejected with ValueError, since
        no speed compares above it.

    Raises ValueError when ``x_limit`` has neither 1 entry nor one per
    coordinate, when the limit point is not finite, or when a sample, its
    speed or its distance to ``x_limit`` is not finite: an overflowing run
    has no rate.

    Returns
    -------
    RateReport
        the better of the exponential and polynomial fits by r-squared, or
        "undetermined" when both fits fail or stay below r-squared 0.9.
    """
    times = traj.times
    if len(times) < 2:
        raise ValueError("need at least 2 samples")
    if converged_tol is not None:
        _check_real(converged_tol, "converged_tol", "nonnegative")
    if x_limit is not None:
        x_limit = _limit_point(x_limit, traj.xs.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        speed = _speed(traj)
        series = speed if x_limit is None else _distance(traj, x_limit)
    finite = np.isfinite(speed) & np.isfinite(series)
    finite &= _per_row(lambda rows: np.isfinite(traj.xs[rows]).all(axis=-1), traj.xs, bool)
    if not finite.all():
        what = "speed" if x_limit is None else "speed or its distance to x_limit"
        raise ValueError(
            "trajectory is not finite at t=%.6g: a sample or its %s overflows, so no rate "
            "can be classified" % (times[np.argmin(finite)], what)
        )
    if converged_tol is not None and speed[-1] > converged_tol:
        raise NotConvergedError(
            "final speed %.3g is above the convergence tolerance %.3g"
            % (speed[-1], converged_tol)
        )
    if t0 is None:  # the first sample whose speed is at most 1e-2 of the first one's, else the first
        dropped = np.nonzero(speed <= 1e-2 * speed[0])[0] if speed[0] > 0.0 else ()
        t0 = times[dropped[0] if len(dropped) else 0]
    report = RateReport(regime="undetermined", t0=float(t0), x_limit=x_limit)

    fits = {}
    for regime in ("exponential", "polynomial"):
        try:
            fits[regime] = _fit(times, series, report.t0, regime, integrate=x_limit is None)
            report.fit_quality[regime] = fits[regime][-1]
        except ValueError:
            fits[regime] = report.fit_quality[regime] = None
    # an exponential fit counts only when it decays (a2 > 0); a tie goes to it
    exp_fit, poly_fit = fits["exponential"], fits["polynomial"]
    best_exp = exp_fit[2] if exp_fit and exp_fit[1] > 0.0 else -math.inf
    best_poly = poly_fit[3] if poly_fit else -math.inf
    if max(best_exp, best_poly) < _R2_ACCEPT:
        return report
    if best_exp >= best_poly:
        return replace(report, regime="exponential", theta=0.5, a1=exp_fit[0], a2=exp_fit[1])
    return replace(report, regime="polynomial", a3=poly_fit[0], a4=poly_fit[1], theta=poly_fit[2])


def sigma_ode_check(sigma_trace, theta, alpha):
    """Check sigma' <= -alpha * sigma^(theta/(1-theta)) at every interior sample.

    lhs is the central difference of sigma and rhs the envelope, +inf
    where sigma is 0; tol is the truncation allowance of the difference.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    _check_real(alpha, "alpha")
    t = np.asarray(sigma_trace.times, dtype=float)
    s = np.asarray(sigma_trace.sigma, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least 3 samples")
    sdot = (s[2:] - s[:-2]) / (t[2:] - t[:-2])
    mid = s[1:-1]
    envelope = np.where(mid != 0.0, -alpha * mid ** (theta / (1.0 - theta)), np.inf)
    dt = float(t[1] - t[0])
    if len(s) >= 4:
        third = np.diff(s, 3) / dt**3
        tol = (dt * dt / 6.0) * float(np.max(np.abs(third))) + 1e-15 * float(np.max(np.abs(s)))
    else:
        tol = 1e-12 * float(np.max(np.abs(s)))
    return BoundCheck(times=t[1:-1], lhs=sdot, rhs=envelope, tol=tol)


@np.errstate(invalid="ignore")  # an inf sample gives a nan distance and a failed verdict, not a warning
def check_sigma_dominance(traj, sigma_trace=None):
    """Check sigma(t) >= ||x(t) - x_final|| and sigma(t) >= ||x'(t)||, as (distance, velocity).

    The distance check takes the final sample as the limit, so the
    truncated tail cancels and its tol is a relative rounding allowance.
    The velocity check loses the tail integral beyond t_end; since
    ||x'(t)|| - ||x'(t_end)|| <= integral of ||x''|| over [t, t_end], its
    tol adds the final velocity norm.  So the velocity check holds by
    construction on any sampled curve whose x'' integrates x', and its
    max_excess is that allowance, not a slack of the flow: the two agree to
    11 digits on the test suite's canonical cos_quad run.
    """
    if sigma_trace is None:
        sigma_trace = sigma_estimate(traj)
    sigma = sigma_trace.sigma
    last = traj.xs[-1]
    d = _per_row(lambda rows: _rownorm(traj.xs[rows] - last), traj.xs)
    v_norm = _rownorm(traj.vs)
    tol_d = 1e-12 * float(d.max(initial=0.0))
    tol_v = float(v_norm[-1]) + 1e-12 * float(v_norm.max(initial=0.0))
    return (BoundCheck(times=traj.times, lhs=d, rhs=sigma, tol=tol_d),
            BoundCheck(times=traj.times, lhs=v_norm, rhs=sigma, tol=tol_v))
