"""Explicit discretization of the flow: a relaxed inertial proximal-gradient
algorithm.

One step solves

    (x_{k+1} - 2 x_k + x_{k-1}) / h_k^2 + gamma_k (x_{k+1} - x_k) / h_k + x_k
        = prox_{lam*f}(x_k - lam*grad g(x_k))

for x_{k+1}.  At h_k = 1, the step implemented here, this is the relaxed form

    x_{k+1} = (1 - w) x_k + w * prox_{lam*f}(x_k - lam*grad g(x_k))
              + w (x_k - x_{k-1}),        w = 1/(1 + gamma_k).

The iteration takes two explicit starting positions (x0, x1); x1 - x0 plays
the role of initial momentum.  No convergence guarantee is claimed for the
discrete scheme; termination is purely residual or iteration based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _write_csv
from .problems import _as_int, _check_real, _map_residual, _per_row, _prox_grad, _rownorm

__all__ = [
    "IterateHistory",
    "DivergenceError",
    "inertial_step_unit",
    "run_inertial",
    "write_history_csv",
]

_DIVERGENCE_LIMIT = 1e12
# The rows of iterates that run_inertial's history holds before it first grows.
_FIRST_ROWS = 64


class DivergenceError(RuntimeError):
    """Raised when an iterate norm passes the divergence guard."""

    def __init__(self, index, norm):
        self.index = index
        self.norm = norm
        super().__init__("iterate %d diverged: ||x|| = %g exceeds %g" % (index, norm, _DIVERGENCE_LIMIT))


@dataclass
class IterateHistory:
    """Iterates, residuals (aligned with xs from index 1), and objective values."""

    xs: np.ndarray
    residuals: np.ndarray
    objective_values: np.ndarray
    converged: bool
    iterations: int


def inertial_step_unit(obj, lam, gk, xk, xkm1):
    """One step at hk = 1, in the relaxed proximal-gradient arrangement."""
    _check_real(lam, "lambda")
    _check_real(gk, "gamma_k")
    xk = np.asarray(xk, dtype=float)
    xkm1 = np.asarray(xkm1, dtype=float)
    return _relaxed_step(gk, xk, xkm1, _prox_grad(obj, lam)(xk))


def _relaxed_step(gk, xk, xkm1, zk):
    """x_{k+1} at hk = 1, given zk = T(xk) and a checked gk."""
    w = 1.0 / (1.0 + gk)
    return (1.0 - w) * xk + w * zk + w * (xk - xkm1)


def run_inertial(obj, lam, gamma_schedule, x0, x1, max_iter, tol):
    """Iterate the unit-step recursion until the residual drops below tol.

    gamma_schedule may be a callable k -> gamma_k (k starting at 1) or a
    plain positive number for a constant schedule.  A number is checked
    once, and each gamma_k of a callable as it is drawn.  The residual is
    checked at x1 first, so identical critical starting points converge at
    iteration 1.  The residual and x_{k+1} come from one evaluation of T(x_k).
    Aborts with DivergenceError when an iterate norm exceeds 1e12.
    """
    _check_real(lam, "lambda")
    max_iter = _as_int(max_iter, "max_iter", least=1)
    _check_real(tol, "tol", "nonnegative")
    check_each = callable(gamma_schedule)
    if not check_each:
        gamma = float(_check_real(gamma_schedule, "gamma"))
        gamma_schedule = lambda k: gamma
    x_prev = np.array(_check_real(x0, "each entry of x0", "finite"))
    x_cur = np.array(_check_real(x1, "each entry of x1", "finite"))
    if x_prev.shape != (obj.dim,) or x_cur.shape != (obj.dim,):
        raise ValueError("x0 and x1 must have shape (%d,)" % obj.dim)
    T = _prox_grad(obj, lam)
    # the iterates go into one array whose rows double, up to max_iter + 1, as
    # the run needs them, and which is cut to the iterates at the end.  Both
    # resize it in place (a realloc), so the history is held once; no view of
    # it exists until then, which is what refcheck=False takes on trust
    xs = np.empty((min(max_iter + 1, _FIRST_ROWS), obj.dim))
    xs[0], xs[1] = x_prev, x_cur
    residuals = []
    converged = False
    k = 1
    while True:
        z_cur = T(x_cur)
        r = float(_map_residual(x_cur, z_cur, lam))
        residuals.append(r)
        if r <= tol:
            converged = True
            break
        if k >= max_iter:
            break
        norm = float(_rownorm(x_cur))
        if norm > _DIVERGENCE_LIMIT:
            raise DivergenceError(index=k, norm=norm)
        gk = gamma_schedule(k)
        if check_each:
            _check_real(gk, "gamma_k")
        x_next = _relaxed_step(gk, x_cur, x_prev, z_cur)
        x_prev, x_cur = x_cur, x_next
        k += 1
        if k == len(xs):
            xs.resize((min(2 * k, max_iter + 1), obj.dim), refcheck=False)
        xs[k] = x_cur
    xs.resize((k + 1, obj.dim), refcheck=False)
    return IterateHistory(
        xs=xs,
        residuals=np.array(residuals),
        objective_values=_per_row(lambda rows: obj.value(xs[rows]), xs),
        converged=converged,
        iterations=k,
    )


def write_history_csv(history, path):
    """Write `k,x_0..x_{n-1},residual,objective`; the k=0 row has no residual."""
    n_rows, n = history.xs.shape
    header = ["k"] + ["x_%d" % i for i in range(n)] + ["residual", "objective"]
    residuals = np.concatenate(([np.nan], history.residuals))
    _write_csv(path, header, np.arange(n_rows), history.xs, residuals, history.objective_values)
