"""Second routes to library results, written out independently for the tests.

Each function here computes what a library function computes, by another
formula, so that the tests can compare the two.  The library has no use for
them.
"""

import math

import numpy as np

from proxdyn import IntegrationAborted, prox_grad_map


def energy_at_expanded(obj, params, x, v, acc):
    """The energy that :func:`proxdyn.monitor` reports, with its squares multiplied out.

    E = (1/(2 lam)) ||acc||^2 + ((c^2 gamma^2 - C)/(2 lam)) ||v||^2
        + (c gamma / lam) <acc, v> + (f+g)(acc + gamma*v + x)
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    acc = np.asarray(acc, dtype=float)
    z = acc + params.gamma * v + x
    fg = obj.f.eval(z) + obj.g.eval(z)
    cg = params.c * params.gamma
    inv2lam = 1.0 / (2.0 * params.lam)
    return (
        inv2lam * np.sum(acc * acc, axis=-1)
        + (cg * cg - params.C) * inv2lam * np.sum(v * v, axis=-1)
        + (cg / params.lam) * np.sum(acc * v, axis=-1)
        + fg
    )


def inertial_step_general(obj, lam, gk, hk, xk, xkm1):
    """One step of the discretized flow with step hk and damping gk.

    Solves (x_{k+1} - 2 x_k + x_{k-1}) / hk^2 + gk (x_{k+1} - x_k) / hk + x_k
    = T(x_k) for x_{k+1}; at hk = 1 it is :func:`proxdyn.inertial_step_unit`.
    """
    xk = np.asarray(xk, dtype=float)
    xkm1 = np.asarray(xkm1, dtype=float)
    zk = prox_grad_map(obj, lam, xk)
    denom = 1.0 + gk * hk
    return xk + (xk - xkm1) / denom + (hk * hk / denom) * (zk - xk)


def derive_params_scalar(gamma, lam, beta):
    """The constants of :func:`proxdyn.derive_params` for one point, in Python floats.

    The scalar formulas of the module docstring written out with ``math``,
    every square as ``x*x``; m and r0 are nan where the point is infeasible.
    Returns a dict keyed by the ``SystemParams`` field names.
    """
    gamma, lam, beta = float(gamma), float(lam), float(beta)
    lb = lam * beta
    L1 = math.sqrt(max((gamma + 1.0) * (gamma + 1.0), (gamma + 2.0) * ((1.0 + lb) * (1.0 + lb) + 1.0)))
    two = 2.0 + lb
    L2 = math.sqrt(max((gamma + 1.0) * (gamma + 1.0) + gamma * lb, two * two + gamma * two))
    L = min(L1, L2)
    Lsq = L * L
    A = -gamma / (2.0 * lam) + (beta / 2.0) * (Lsq + 2.0 * gamma * gamma + 1.0)
    B = -gamma / (2.0 * lam * Lsq) + (beta / 2.0) * (Lsq + gamma * gamma + 1.0)
    C = (-((2.0 * Lsq + 1.0) / ((Lsq + 1.0) * (Lsq + 1.0))) * gamma * gamma
         + 3.0 * beta * gamma * lam - 1.0)
    c = Lsq / (Lsq + 1.0)
    s = beta + 1.0 / lam
    p = (beta * lam * gamma + (3.0 - 2.0 * c) * gamma - C) / lam
    rho_feasible = A < 0.0 and B < 0.0 and C < 0.0
    m = r0 = math.nan
    if rho_feasible:
        sa_pb = s * A - p * B
        disc = sa_pb * sa_pb + (s + p) * (s + p) * A * B
        r0 = (sa_pb - math.sqrt(disc)) / ((s + p) * B)
        m = max(B / s, (A + B * r0 * r0) / (p + (s + p) * r0 + s * r0 * r0))
    D = two * two + gamma * two
    corollary_feasible = gamma <= math.sqrt(3.0) and -gamma / (lam * D) + beta * (D + gamma * gamma + 1.0) < 0.0
    return dict(
        gamma=gamma, lam=lam, beta=beta, L1=L1, L2=L2, L=L, A=A, B=B, C=C, c=c,
        a_const=gamma / (2.0 * (Lsq + 1.0) * Lsq * lam),
        b_const=Lsq * gamma / (2.0 * (Lsq + 1.0) * lam),
        s=s, p=p, m=m, r0=r0, rho_feasible=rho_feasible, corollary_feasible=corollary_feasible,
    )


def _acceleration(obj, gamma, lam, u, v):
    """The second component of F: T(u) - gamma*v - u."""
    return prox_grad_map(obj, lam, u) - gamma * v - u


def rk4_step(obj, gamma, lam, u, v, acc, h):
    """One textbook RK4 step of (u, v) with step h, given the field ``acc`` at (u, v).

    Returns the new (u, v) and the field there.
    """
    half = 0.5 * h
    sixth = h / 6.0
    u2 = u + half * v
    v2 = v + half * acc
    k2v = _acceleration(obj, gamma, lam, u2, v2)
    u3 = u + half * v2
    v3 = v + half * k2v
    k3v = _acceleration(obj, gamma, lam, u3, v3)
    u4 = u + h * v3
    v4 = v + h * k3v
    k4v = _acceleration(obj, gamma, lam, u4, v4)
    u = u + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
    v = v + sixth * (acc + 2.0 * k2v + 2.0 * k3v + k4v)
    return u, v, _acceleration(obj, gamma, lam, u, v)


@np.errstate(over="ignore", invalid="ignore")  # a diverging state is reported once, as an abort
def rk4_reference(obj, gamma, lam, u, v, h, n_steps, sample_every, xs, vs, accs):
    """The RK4 loop of :mod:`proxdyn.dynamics`, one fresh array per stage quantity.

    The library loop keeps its stages in preallocated records and must give
    these bits, in the same arguments and with the same result.

    ``u`` and ``v`` have shape (dim,) for one trajectory, with scalar
    ``gamma`` and ``lam``, or (B, dim) for B trajectories, with ``gamma``
    and ``lam`` (B, 1) columns.  Samples go to ``xs``, ``vs`` and ``accs``
    of shape (B, n_samples, dim), with B = 1 for one trajectory.

    One trajectory raises IntegrationAborted at the first sample whose state
    is not finite.  In a stack such a row is dropped, the others go on, and
    the loop ends once no row is left.  Returns {row: IntegrationAborted}
    for the dropped rows.
    """
    aborted = {}
    live = np.arange(len(xs))  # the rows still integrating, in stack order
    rows = 0 if u.ndim == 1 else slice(None)  # where the live rows' samples go
    acc = _acceleration(obj, gamma, lam, u, v)
    xs[rows, 0] = u
    vs[rows, 0] = v
    accs[rows, 0] = acc

    idx = 1
    for step_i in range(1, n_steps + 1):
        # acc, the field at the step's start, is the first RK4 stage
        u, v, acc = rk4_step(obj, gamma, lam, u, v, acc, h)
        if step_i % sample_every == 0:
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                if u.ndim == 1:
                    raise IntegrationAborted(t=step_i * h, step_index=step_i)
                ok = np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)
                for row in live[~ok]:
                    aborted[int(row)] = IntegrationAborted(t=step_i * h, step_index=step_i)
                if not ok.any():
                    break
                live = rows = live[ok]
                u, v, acc, gamma, lam = u[ok], v[ok], acc[ok], gamma[ok], lam[ok]
            xs[rows, idx] = u
            vs[rows, idx] = v
            accs[rows, idx] = acc
            idx += 1
    return aborted


def savetxt_csv(path, header, table, int_columns=()):
    """The file :func:`proxdyn.dynamics._write_csv` writes, written by ``np.savetxt``.

    The columns numbered in ``int_columns``, which must hold nonnegative
    integers, are written with ``%d``.
    """
    fmt = ["%d" if i in int_columns else "%.17g" for i in range(table.shape[1])]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")
