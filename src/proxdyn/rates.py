"""Empirical decay-rate estimation for converged trajectories.

Three regimes are distinguished by the Lojasiewicz exponent theta of the
underlying regularized function: theta in (0, 1/2) gives convergence in
finite time, theta = 1/2 gives an exponential envelope a1*exp(-a2*t), and
theta in (1/2, 1) gives a polynomial envelope (a3*t + a4)^(-(1-theta)/(2*theta-1)).
The exponent is estimated from data, never certified.

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

from .problems import _check_real, _rownorm

__all__ = [
    "SigmaTrace",
    "RateReport",
    "NotConvergedError",
    "sigma_estimate",
    "fit_exponential",
    "fit_polynomial",
    "classify_rate",
    "sigma_ode_check",
    "SigmaOdeReport",
    "check_sigma_dominance",
    "SigmaDominanceReport",
]

_FINITE_TIME_FACTOR = 1e-12
_DISTANCE_FLOOR = 1e-14
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
    none for finite_time or undetermined.  ``fit_quality`` maps each
    attempted regime to its coefficient of determination on the fit window
    [t0, window_end].
    """

    regime: str
    theta: Optional[float] = None
    a1: Optional[float] = None
    a2: Optional[float] = None
    a3: Optional[float] = None
    a4: Optional[float] = None
    fit_quality: dict = field(default_factory=dict)
    t0: float = 0.0
    window_end: float = 0.0
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


def _distance(traj, x_limit):
    return _rownorm(traj.xs - np.asarray(x_limit, dtype=float))


def _window_mask(times, d, t0, t_max):
    mask = (times >= t0) & (d > _DISTANCE_FLOOR * d.max(initial=0.0))
    if t_max is not None:
        mask &= times <= t_max
    return mask


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


def fit_exponential(traj, x_limit, t0=0.0, t_max=None):
    """Least-squares line on (t, log distance) for t >= t0.

    Returns (a1, a2, r_squared) for the model distance <= a1*exp(-a2*t).
    Raises ValueError with fewer than 5 usable samples or when a1 overflows.
    """
    d = _distance(traj, x_limit)
    mask = _window_mask(traj.times, d, t0, t_max)
    if int(mask.sum()) < 5:
        raise ValueError("fewer than 5 usable samples beyond t0 for the exponential fit")
    slope, intercept, r2 = _linear_fit(traj.times[mask], np.log(d[mask]))
    return _fitted_exp(intercept, "a1"), -slope, r2


def fit_polynomial(traj, x_limit, t0=0.0, t_max=None):
    """Least-squares line on (log t, log distance) for t >= t0.

    The slope -q gives theta = (1+q)/(1+2q), inverting
    q = (1-theta)/(2*theta-1).  The pair (a3, a4) has a one-parameter
    redundancy on a log scale; it is fixed by the convention a4 = a3 * t_ref
    with t_ref the start of the fit window.  Returns (a3, a4, theta,
    r_squared); raises ValueError when the data does not decay (q <= 0),
    has fewer than 5 usable samples or gives a constant that is not finite.
    """
    d = _distance(traj, x_limit)
    mask = _window_mask(traj.times, d, t0, t_max) & (traj.times > 0.0)
    if int(mask.sum()) < 5:
        raise ValueError("fewer than 5 usable samples beyond t0 for the polynomial fit")
    tt = traj.times[mask]
    slope, intercept, r2 = _linear_fit(np.log(tt), np.log(d[mask]))
    q = -slope
    if q <= 0.0:
        raise ValueError("distance does not decay polynomially (fitted q = %g <= 0)" % q)
    theta = (1.0 + q) / (1.0 + 2.0 * q)
    a3 = _fitted_exp(-intercept / q, "a3")
    t_ref = t0 if t0 > 0.0 else float(tt[0])
    a4 = a3 * t_ref
    if not math.isfinite(a4):  # also when -intercept / q is inf, and exp of it too
        raise ValueError("the fitted a4 = %g * %g is not finite" % (a3, t_ref))
    return a3, a4, theta, r2


def classify_rate(traj, x_limit=None, t0=None, converged_tol=None):
    """Classify the decay of ||x(t) - x_limit|| into one of the regimes.

    Parameters
    ----------
    traj : Trajectory
    x_limit : array_like, optional
        Defaults to the final sample; the fit window then ends at 90% of
        t_end so the self-referencing tail does not contaminate the fit
        (the cap is applied in all cases for uniformity).
    t0 : float, optional
        Fit-window start.  Defaults to the first time the settling speed
        ||x'|| + ||x''|| drops below 1e-2 of its initial value.
    converged_tol : float, optional
        When given, the final speed must be at or below this absolute
        value, else NotConvergedError is raised.  When omitted no
        convergence check is made.  nan is rejected with ValueError, since
        no speed compares above it.

    Raises ValueError when the limit point is not finite, or when a sample,
    its speed ||x'|| + ||x''|| or its distance to the limit is not finite:
    an overflowing run has no rate, and its inf distances would otherwise
    all sit "below" an inf scale and read as finite-time convergence.

    Returns
    -------
    RateReport
        regime "finite_time" when the distance sits below 1e-12 of its peak
        from some sample strictly before the end; otherwise the better of
        the exponential and polynomial fits by r-squared, or "undetermined"
        when both fits fail or stay below r-squared 0.9.
    """
    times = traj.times
    if len(times) < 2:
        raise ValueError("need at least 2 samples")
    if converged_tol is not None:
        _check_real(converged_tol, "converged_tol", "nonnegative")
    if x_limit is None:
        x_limit = traj.xs[-1].copy()
    x_limit = np.atleast_1d(np.asarray(x_limit, dtype=float))
    if not np.all(np.isfinite(x_limit)):
        raise ValueError("the limit point is not finite, so no rate can be classified")
    with np.errstate(over="ignore", invalid="ignore"):
        speed = _speed(traj)
        d = _distance(traj, x_limit)
    finite = np.isfinite(speed) & np.isfinite(d)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            "trajectory is not finite at t=%.6g: a sample or its distance to the limit "
            "overflows, so no rate can be classified" % times[i]
        )
    if converged_tol is not None and speed[-1] > converged_tol:
        raise NotConvergedError(
            "final speed %.3g is above the convergence tolerance %.3g"
            % (speed[-1], converged_tol)
        )
    scale = float(d.max(initial=0.0))
    window_end = 0.9 * float(times[-1])
    report = RateReport(regime="undetermined", window_end=window_end, x_limit=x_limit)

    below = d <= _FINITE_TIME_FACTOR * scale
    settled = np.logical_and.accumulate(below[::-1])[::-1]
    settled_idx = np.nonzero(settled)[0]
    if settled_idx.size and settled_idx[0] < len(times) - 1:
        return replace(report, regime="finite_time", t0=float(times[settled_idx[0]]))

    if t0 is None:
        if speed[0] > 0.0:
            dropped = np.nonzero(speed <= 1e-2 * speed[0])[0]
            t0 = float(times[dropped[0]]) if dropped.size else float(times[0])
        else:
            t0 = float(times[0])
    t0 = report.t0 = float(t0)

    fit_quality = report.fit_quality
    exp_fit = None
    try:
        a1, a2, r2e = fit_exponential(traj, x_limit, t0, t_max=window_end)
        fit_quality["exponential"] = r2e
        if a2 > 0.0:
            exp_fit = (a1, a2, r2e)
    except ValueError:
        fit_quality["exponential"] = None
    poly_fit = None
    try:
        poly_fit = fit_polynomial(traj, x_limit, t0, t_max=window_end)
        fit_quality["polynomial"] = poly_fit[3]
    except ValueError:
        fit_quality["polynomial"] = None

    best_exp = exp_fit[2] if exp_fit else -math.inf
    best_poly = poly_fit[3] if poly_fit else -math.inf
    if max(best_exp, best_poly) < _R2_ACCEPT:
        return report
    if best_exp >= best_poly:
        return replace(report, regime="exponential", theta=0.5, a1=exp_fit[0], a2=exp_fit[1])
    return replace(report, regime="polynomial", a3=poly_fit[0], a4=poly_fit[1], theta=poly_fit[2])


@dataclass
class SigmaOdeReport:
    """Central-difference check of sigma' <= -alpha * sigma^(theta/(1-theta)).

    ``violations`` holds positions (indices into ``times``) where the
    inequality fails beyond the truncation tolerance.
    """

    times: np.ndarray
    sigma_dot: np.ndarray
    envelope: np.ndarray
    violations: np.ndarray
    tol: float


def sigma_ode_check(sigma_trace, theta, alpha):
    """Check the decay ODE for sigma at every interior sample with sigma > 0."""
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    _check_real(alpha, "alpha")
    t = np.asarray(sigma_trace.times, dtype=float)
    s = np.asarray(sigma_trace.sigma, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least 3 samples")
    sdot = (s[2:] - s[:-2]) / (t[2:] - t[:-2])
    mid = s[1:-1]
    valid = mid > 0.0
    envelope = np.full_like(mid, -np.inf)
    envelope[valid] = -alpha * mid[valid] ** (theta / (1.0 - theta))
    dt = float(t[1] - t[0])
    if len(s) >= 4:
        third = np.diff(s, 3) / dt**3
        tol = (dt * dt / 6.0) * float(np.max(np.abs(third))) + 1e-15 * float(np.max(np.abs(s)))
    else:
        tol = 1e-12 * float(np.max(np.abs(s)))
    bad = valid & (sdot > envelope + tol)
    return SigmaOdeReport(
        times=t[1:-1],
        sigma_dot=sdot,
        envelope=envelope,
        violations=np.nonzero(bad)[0],
        tol=tol,
    )


@dataclass
class SigmaDominanceReport:
    """Per-run check that sigma dominates the distance and the velocity norm.

    The distance comparison uses the final sample as the limit, so the
    truncated tail cancels and only a relative rounding allowance is
    needed.  The velocity comparison loses the tail integral beyond t_end;
    since ||x'(t)|| - ||x'(t_end)|| <= integral of ||x''|| over [t, t_end],
    the final velocity norm is the exact allowance for that truncation.
    """

    distance_ok: bool
    velocity_ok: bool
    max_excess_distance: float
    max_excess_velocity: float
    tol_distance: float
    tol_velocity: float


def check_sigma_dominance(traj, sigma_trace=None):
    """Verify sigma(t) >= ||x(t) - x_final|| and sigma(t) >= ||x'(t)|| - allowance."""
    if sigma_trace is None:
        sigma_trace = sigma_estimate(traj)
    sigma = sigma_trace.sigma
    d = _distance(traj, traj.xs[-1])
    v_norm = _rownorm(traj.vs)
    tol_d = 1e-12 * float(d.max(initial=0.0))
    tol_v = float(v_norm[-1]) + 1e-12 * float(v_norm.max(initial=0.0))
    excess_d = float(np.max(d - sigma, initial=-np.inf))
    excess_v = float(np.max(v_norm - sigma, initial=-np.inf))
    return SigmaDominanceReport(
        distance_ok=bool(excess_d <= tol_d),
        velocity_ok=bool(excess_v <= tol_v),
        max_excess_distance=excess_d,
        max_excess_velocity=excess_v,
        tol_distance=tol_d,
        tol_velocity=tol_v,
    )
