"""Derived constants and feasibility tests for the damped proximal flow.

The flow  x'' + gamma*x' + x = prox_{lam*f}(x - lam*grad g(x))  admits a
Lyapunov analysis whenever three strict inequalities on (gamma, lam, beta)
hold, where beta is the Lipschitz constant of grad g.  This module computes
every constant in that analysis:

* ``L1``, ``L2``: two global Lipschitz constants of the first-order vector
  field, and ``L = min(L1, L2)``;
* ``A``, ``B``, ``C``: the dissipation coefficients whose strict negativity
  is the feasibility condition;
* ``c``, ``a_const``, ``b_const``: the inner constants of the energy
  (c = L^2/(L^2+1), with a*b = gamma^2 (1-c)^2 / (4 lam^2));
* ``s``, ``p``: the subgradient-bound coefficients entering the rate
  envelope, with ``s = beta + 1/lam``;
* ``m``, ``r0``: the negative envelope constant and its maximizer, via
  :func:`rate_envelope_constants`.

Everything here is a pure function of scalar inputs; results are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SystemParams",
    "lipschitz_l1",
    "lipschitz_l2",
    "derive_params",
    "corollary_check",
    "feasible_region",
    "rate_envelope_constants",
    "envelope_constants",
    "params_report",
]

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class SystemParams:
    """All derived constants for one (gamma, lam, beta) triple.

    ``lam`` is the prox step (serialized as "lambda" in JSON interfaces,
    which Python reserves as a keyword).  ``rho_feasible`` is True iff
    A < 0, B < 0 and C < 0 all hold strictly; ``corollary_feasible`` is the
    stronger single-inequality test restricted to gamma <= sqrt(3).
    """

    gamma: float
    lam: float
    beta: float
    L1: float
    L2: float
    L: float
    A: float
    B: float
    C: float
    c: float
    a_const: float
    b_const: float
    s: float
    p: float
    rho_feasible: bool
    corollary_feasible: bool


def _check_inputs(gamma, lam, beta):
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be a positive finite real, got %r" % (float(gamma),))
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be a positive finite real, got %r" % (float(lam),))
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be a nonnegative finite real, got %r" % (float(beta),))


def lipschitz_l1(gamma, lambda_beta):
    """First Lipschitz constant of the vector field.

    L1 = sqrt(max((gamma+1)^2, (gamma+2)*((1+lambda_beta)^2 + 1))).

    ``lambda_beta`` is the product lam*beta; the constant depends on the two
    factors only through it.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if lambda_beta < 0:
        raise ValueError("lambda_beta must be nonnegative")
    return math.sqrt(
        max((gamma + 1.0) ** 2, (gamma + 2.0) * ((1.0 + lambda_beta) ** 2 + 1.0))
    )


def lipschitz_l2(gamma, lambda_beta):
    """Second Lipschitz constant of the vector field.

    L2 = sqrt(max((gamma+1)^2 + gamma*lambda_beta,
                  (2+lambda_beta)^2 + gamma*(2+lambda_beta))).

    For gamma <= sqrt(3) the second branch dominates, so
    L2 = sqrt((2+lambda_beta)^2 + gamma*(2+lambda_beta)) there.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if lambda_beta < 0:
        raise ValueError("lambda_beta must be nonnegative")
    two = 2.0 + lambda_beta
    return math.sqrt(max((gamma + 1.0) ** 2 + gamma * lambda_beta, two * two + gamma * two))


def derive_params(gamma, lam, beta):
    """Compute every derived constant for one (gamma, lam, beta) triple.

    Returns
    -------
    SystemParams
        With L = min(L1, L2) and, writing Lsq = L^2:

        A = -gamma/(2 lam) + (beta/2) (Lsq + 2 gamma^2 + 1)
        B = -gamma/(2 lam Lsq) + (beta/2) (Lsq + gamma^2 + 1)
        C = -((2 Lsq + 1)/(Lsq + 1)^2) gamma^2 + 3 beta gamma lam - 1
        c = Lsq / (Lsq + 1)
        a_const = gamma / (2 (Lsq+1) Lsq lam)
        b_const = Lsq gamma / (2 (Lsq+1) lam)
        s = beta + 1/lam
        p = (beta lam gamma + (3 - 2c) gamma - C) / lam

    ``rho_feasible`` is True iff all of A, B, C are strictly negative.
    """
    _check_inputs(gamma, lam, beta)
    lb = lam * beta
    L1 = lipschitz_l1(gamma, lb)
    L2 = lipschitz_l2(gamma, lb)
    L = min(L1, L2)
    Lsq = L * L
    A = -gamma / (2.0 * lam) + (beta / 2.0) * (Lsq + 2.0 * gamma * gamma + 1.0)
    B = -gamma / (2.0 * lam * Lsq) + (beta / 2.0) * (Lsq + gamma * gamma + 1.0)
    C = -((2.0 * Lsq + 1.0) / (Lsq + 1.0) ** 2) * gamma * gamma + 3.0 * beta * gamma * lam - 1.0
    c = Lsq / (Lsq + 1.0)
    a_const = gamma / (2.0 * (Lsq + 1.0) * Lsq * lam)
    b_const = Lsq * gamma / (2.0 * (Lsq + 1.0) * lam)
    s = beta + 1.0 / lam
    p = (beta * lam * gamma + (3.0 - 2.0 * c) * gamma - C) / lam
    return SystemParams(
        gamma=float(gamma),
        lam=float(lam),
        beta=float(beta),
        L1=L1,
        L2=L2,
        L=L,
        A=A,
        B=B,
        C=C,
        c=c,
        a_const=a_const,
        b_const=b_const,
        s=s,
        p=p,
        rho_feasible=bool(A < 0.0 and B < 0.0 and C < 0.0),
        corollary_feasible=corollary_check(gamma, lam, beta),
    )


def corollary_check(gamma, lam, beta):
    """Single-inequality sufficient condition for feasibility.

    True iff 0 < gamma <= sqrt(3) and, with D = (2+lam*beta)^2 +
    gamma*(2+lam*beta):

        -gamma/(lam*D) + beta*(D + gamma^2 + 1) < 0.

    Implies ``rho_feasible`` whenever it holds.
    """
    _check_inputs(gamma, lam, beta)
    if gamma > _SQRT3:
        return False
    two = 2.0 + lam * beta
    D = two * two + gamma * two
    return bool(-gamma / (lam * D) + beta * (D + gamma * gamma + 1.0) < 0.0)


def feasible_region(beta, gamma_grid, lambda_grid):
    """All feasible grid points, in grid order (gamma outer, lambda inner).

    Returns a list of (gamma, lam, SystemParams) triples for which
    ``rho_feasible`` holds.
    """
    gamma_grid = list(gamma_grid)
    lambda_grid = list(lambda_grid)
    if not gamma_grid or not lambda_grid:
        raise ValueError("grids must be nonempty")
    out = []
    for gamma in gamma_grid:
        for lam in lambda_grid:
            sp = derive_params(gamma, lam, beta)
            if sp.rho_feasible:
                out.append((gamma, lam, sp))
    return out


def envelope_constants(A, B, s, p):
    """Negative envelope constant m and maximizer r0 from raw coefficients.

    With g(r) = (A + B*r^2) / (p + (s+p)*r + s*r^2) on r >= 0:

        r0 = ((s*A - p*B) - sqrt((s*A - p*B)^2 + (s+p)^2*A*B)) / ((s+p)*B)
        m  = max(B/s, g(r0))

    Requires A < 0 and B < 0 (so the discriminant is nonnegative and m < 0).
    The returned m satisfies A*v^2 + B*w^2 <= m*(s*w + p*v)*(v + w) for every
    v, w >= 0.
    """
    if not (A < 0.0 and B < 0.0):
        raise ValueError("envelope needs A < 0 and B < 0, got A=%g, B=%g" % (A, B))
    if not (s > 0.0 and p > 0.0):
        raise ValueError("envelope needs s > 0 and p > 0, got s=%g, p=%g" % (s, p))
    sa_pb = s * A - p * B
    disc = sa_pb * sa_pb + (s + p) ** 2 * A * B
    r0 = (sa_pb - math.sqrt(disc)) / ((s + p) * B)
    g_r0 = (A + B * r0 * r0) / (p + (s + p) * r0 + s * r0 * r0)
    m = max(B / s, g_r0)
    return m, r0


def rate_envelope_constants(params):
    """Envelope constants (m, r0) for a feasible parameter set.

    Raises ValueError if ``params.rho_feasible`` is False.
    """
    if not params.rho_feasible:
        raise ValueError("rate envelope requires rho-feasible parameters")
    return envelope_constants(params.A, params.B, params.s, params.p)


def params_report(params):
    """Serializable dict of all constants, with the JSON key spelling.

    Keys: gamma, lambda, beta, L1, L2, L, A, B, C, c, a, b, s, p, m, r0,
    rho_feasible, corollary_feasible.  m and r0 are None when infeasible.
    """
    if params.rho_feasible:
        m, r0 = rate_envelope_constants(params)
    else:
        m, r0 = None, None
    return {
        "gamma": params.gamma,
        "lambda": params.lam,
        "beta": params.beta,
        "L1": params.L1,
        "L2": params.L2,
        "L": params.L,
        "A": params.A,
        "B": params.B,
        "C": params.C,
        "c": params.c,
        "a": params.a_const,
        "b": params.b_const,
        "s": params.s,
        "p": params.p,
        "m": m,
        "r0": r0,
        "rho_feasible": params.rho_feasible,
        "corollary_feasible": params.corollary_feasible,
    }
