"""First-order reformulation and fixed-step integration of the flow.

The second-order system

    x'' + gamma*x' + x = prox_{lam*f}(x - lam*grad g(x))

is integrated as X' = F(X) with X = (u, v) = (x, x') and

    F(u, v) = (v, prox_{lam*f}(u - lam*grad g(u)) - gamma*v - u)

using the classical 4-stage Runge-Kutta scheme with a fixed step.  The field
is globally Lipschitz but only piecewise smooth in u (prox kinks), so a fixed
step keeps traces uniformly sampled for the downstream rate fits; the step
guard h <= 1/L1 ties stability to the field's Lipschitz constant.

The acceleration is recorded algebraically from the system identity
acc = T(x) - gamma*v - x, with T the prox-gradient map, never by
differencing.  A step evaluates the field four times: its first stage is
the acceleration at the step's start, which the previous step computed
(and recorded, at a sample), so n steps cost 4n + 1 field evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import SystemParams
from .problems import prox_grad_map

__all__ = [
    "State",
    "Trajectory",
    "IntegrationAborted",
    "vector_field",
    "integrate",
    "third_derivative_check",
    "ThirdDerivativeReport",
    "write_trajectory_csv",
    "read_trajectory_csv",
]


class IntegrationAborted(RuntimeError):
    """Raised when the integrator state stops being finite."""

    def __init__(self, t, step_index, message=None):
        self.t = t
        self.step_index = step_index
        super().__init__(
            message
            or "non-finite state at t=%g (step %d); the flow diverged numerically"
            % (t, step_index)
        )


@dataclass(frozen=True)
class State:
    """Position and velocity of the first-order reformulation."""

    u: np.ndarray
    v: np.ndarray


@dataclass
class Trajectory:
    """Uniformly sampled record of x, x', x'' along one integrated flow.

    ``accs[i]`` equals T(xs[i]) - gamma*vs[i] - xs[i] exactly, with T the
    prox-gradient map.  ``params`` is None for trajectories read back from CSV
    (the file format carries no parameters).
    """

    times: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    accs: np.ndarray
    params: Optional[SystemParams]
    step: float
    method: str = "rk4"


def _acceleration(obj, params, u, v):
    """The second component of F: T(u) - gamma*v - u."""
    return prox_grad_map(obj, params.lam, u) - params.gamma * v - u


def vector_field(obj, params, state):
    """Evaluate F at one state: (du, dv) = (v, T(u) - gamma*v - u)."""
    u = np.asarray(state.u, dtype=float)
    v = np.asarray(state.v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("u and v must have the same shape")
    return v, _acceleration(obj, params, u, v)


def integrate(obj, params, u0, v0, t_end, h, sample_every=None):
    """Integrate the flow from (u0, v0) to t_end with step h.

    Parameters
    ----------
    obj : Objective
    params : SystemParams
        Supplies gamma, lam and the stability guard constant L1.
    u0, v0 : array_like, shape (dim,)
        Initial position and velocity.
    t_end : float
        End of the integration window; the step count is rounded so the
        final sample falls on the last completed step (t_end may be
        overshot by less than one sample interval).
    h : float
        Fixed integrator step; must satisfy h <= 1/L1.
    sample_every : int, optional
        Record every this-many steps.  Defaults to the smallest value
        keeping at most 10^5 samples.

    Returns
    -------
    Trajectory
    """
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    if u.shape != (obj.dim,) or v.shape != (obj.dim,):
        raise ValueError(
            "u0 and v0 must have shape (%d,), got %s and %s" % (obj.dim, u.shape, v.shape)
        )
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("initial state must be finite")
    if h <= 0:
        raise ValueError("h must be positive")
    guard = 1.0 / params.L1
    if h > guard:
        raise ValueError(
            "step h=%g exceeds the stability guard 1/L1=%g" % (h, guard)
        )
    if t_end < h:
        raise ValueError("t_end must be at least one step h")

    n_steps = max(1, int(round(t_end / h)))
    if sample_every is None:
        sample_every = max(1, math.ceil((n_steps + 1) / 100_000))
    sample_every = int(sample_every)
    if sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    if n_steps % sample_every:
        n_steps += sample_every - (n_steps % sample_every)
    n_samples = n_steps // sample_every + 1

    times = np.arange(n_samples) * (sample_every * h)
    xs = np.empty((n_samples, obj.dim))
    vs = np.empty((n_samples, obj.dim))
    accs = np.empty((n_samples, obj.dim))

    acc = _acceleration(obj, params, u, v)
    xs[0] = u
    vs[0] = v
    accs[0] = acc

    half = 0.5 * h
    sixth = h / 6.0
    idx = 1
    for step_i in range(1, n_steps + 1):
        # acc, the field at the step's start, is the first RK4 stage
        u2 = u + half * v
        v2 = v + half * acc
        k2v = _acceleration(obj, params, u2, v2)
        u3 = u + half * v2
        v3 = v + half * k2v
        k3v = _acceleration(obj, params, u3, v3)
        u4 = u + h * v3
        v4 = v + h * k3v
        k4v = _acceleration(obj, params, u4, v4)
        u = u + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (acc + 2.0 * k2v + 2.0 * k3v + k4v)
        acc = _acceleration(obj, params, u, v)
        if step_i % sample_every == 0:
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise IntegrationAborted(t=step_i * h, step_index=step_i)
            xs[idx] = u
            vs[idx] = v
            accs[idx] = acc
            idx += 1

    return Trajectory(
        times=times,
        xs=xs,
        vs=vs,
        accs=accs,
        params=params,
        step=h,
        method="rk4",
    )


@dataclass
class ThirdDerivativeReport:
    """Central-difference check of the third-derivative bound.

    The flow satisfies ||x'''||^2 <= L^2 ||x'||^2 + (L^2 - 1) ||x''||^2 for
    both Lipschitz constants L1 and L2.  ``lhs`` holds the squared norm of
    the differenced third derivative at interior samples; ``tol`` is the
    truncation allowance 10 * dt^2 * max||x''|| added to each rhs.
    """

    times: np.ndarray
    lhs: np.ndarray
    rhs_l1: np.ndarray
    rhs_l2: np.ndarray
    ok_l1: np.ndarray
    ok_l2: np.ndarray
    tol: float

    @property
    def all_ok(self):
        return bool(np.all(self.ok_l1) and np.all(self.ok_l2))


def third_derivative_check(traj, params):
    """Check the third-derivative inequality at every interior sample."""
    if len(traj.times) < 3:
        raise ValueError("need at least 3 samples for a central difference")
    dt = traj.times[1] - traj.times[0]
    x3 = (traj.accs[2:] - traj.accs[:-2]) / (2.0 * dt)
    v_mid = traj.vs[1:-1]
    a_mid = traj.accs[1:-1]
    lhs = np.sum(x3 * x3, axis=-1)
    v_sq = np.sum(v_mid * v_mid, axis=-1)
    a_sq = np.sum(a_mid * a_mid, axis=-1)
    l1_sq = params.L1 * params.L1
    l2_sq = params.L2 * params.L2
    rhs_l1 = l1_sq * v_sq + (l1_sq - 1.0) * a_sq
    rhs_l2 = l2_sq * v_sq + (l2_sq - 1.0) * a_sq
    acc_norms = np.linalg.norm(traj.accs, axis=-1)
    tol = 10.0 * dt * dt * float(acc_norms.max(initial=0.0))
    return ThirdDerivativeReport(
        times=traj.times[1:-1],
        lhs=lhs,
        rhs_l1=rhs_l1,
        rhs_l2=rhs_l2,
        ok_l1=lhs <= rhs_l1 + tol,
        ok_l2=lhs <= rhs_l2 + tol,
        tol=tol,
    )


def _write_csv(path, header, table, int_columns=()):
    """Write a header line and the rows of ``table``, comma-separated.

    Floats get 17 significant digits so that they read back exactly; the
    columns numbered in ``int_columns`` are written as integers.
    """
    fmt = ["%d" if i in int_columns else "%.17g" for i in range(table.shape[1])]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")


def write_trajectory_csv(traj, path):
    """Write `t,x_0..x_{n-1},v_0..v_{n-1},a_0..a_{n-1}` with 17 significant digits."""
    n = traj.xs.shape[1]
    header = ["t"] + ["%s_%d" % (name, i) for name in "xva" for i in range(n)]
    _write_csv(path, header, np.column_stack((traj.times, traj.xs, traj.vs, traj.accs)))


def read_trajectory_csv(path):
    """Read a trajectory written by :func:`write_trajectory_csv`.

    The file carries no system parameters, so ``params`` is None on the
    result; rate estimation does not need them.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if not header or header[0] != "t" or (len(header) - 1) % 3 != 0:
        raise ValueError("not a trajectory CSV: header %r" % (",".join(header),))
    n = (len(header) - 1) // 3
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 1 + 3 * n:
        raise ValueError("trajectory CSV has inconsistent column count")
    times = data[:, 0]
    step = float(times[1] - times[0]) if len(times) > 1 else 0.0
    return Trajectory(
        times=times,
        xs=data[:, 1 : 1 + n],
        vs=data[:, 1 + n : 1 + 2 * n],
        accs=data[:, 1 + 2 * n :],
        params=None,
        step=step,
        method="from-csv",
    )
