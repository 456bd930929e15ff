"""Second routes to library results, written out independently for the tests.

Each function here computes what a library function computes, by another
formula, so that the tests can compare the two.  The library has no use for
them.
"""

import numpy as np

from proxdyn import prox_grad_map


def energy_at_expanded(obj, params, x, v, acc):
    """The energy of :func:`proxdyn.energy_at` with its squares multiplied out.

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
