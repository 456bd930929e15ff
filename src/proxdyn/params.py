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
* ``m``, ``r0``: the negative envelope constant and its maximizer, see
  :func:`envelope_constants`.

Every function broadcasts over numpy arrays, so a whole (gamma, lam) grid is
derived in one call.  A scalar call runs the same code on ``np.float64``
scalars, which round like 0-d arrays at a fraction of the dispatch cost,
and returns Python floats and bools.  Each formula is written once, and every
square is spelled ``x*x``: ``x ** 2`` on a Python float calls C ``pow``,
which does not always round like the product, so the two spellings could
disagree in the last bit.  Results are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .problems import _check_real

__all__ = [
    "SystemParams",
    "lipschitz_l1",
    "lipschitz_l2",
    "derive_params",
    "rate_envelope_constants",
    "envelope_constants",
    "params_report",
]

_SQRT3 = math.sqrt(3.0)
# SystemParams fields whose report key differs from the field name
_REPORT_KEYS = {"lam": "lambda", "a_const": "a", "b_const": "b"}


@dataclass(frozen=True)
class SystemParams:
    """All derived constants for one (gamma, lam, beta) triple, or a grid of them.

    ``lam`` is the prox step (serialized as "lambda" in JSON interfaces,
    which Python reserves as a keyword).  ``rho_feasible`` is True iff
    A < 0, B < 0 and C < 0 all hold strictly; ``corollary_feasible`` is the
    stronger single-inequality test restricted to gamma <= sqrt(3).  ``m``
    and ``r0`` are nan where ``rho_feasible`` is False.

    From a scalar :func:`derive_params` call every field is a Python float
    or bool; from an array call every field is an array of the broadcast
    shape, and :meth:`at` picks one point.
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
    # m and r0 follow from A, B, s and p; left out of ==, as their nan would make a point unequal to itself
    m: float = field(compare=False)
    r0: float = field(compare=False)
    rho_feasible: bool
    corollary_feasible: bool

    def at(self, index):
        """The parameters at ``index`` of an array call, as Python scalars."""
        return SystemParams(*(getattr(self, f.name)[index].item() for f in fields(self)))


def _float_arrays(*values):
    """The values as float arrays of their common broadcast shape (copies).

    Scalars come back as ``np.float64`` scalars rather than 0-d arrays: they
    round every operation the same way, with less dispatch per call.
    """
    arrays = [np.asarray(v, dtype=float) for v in values]
    if all(a.ndim == 0 for a in arrays):
        return [a[()] for a in arrays]
    return [np.array(v) for v in np.broadcast_arrays(*arrays)]


def _scalar_or_array(x):
    """A Python scalar for a 0-d result, else the array itself."""
    return x.item() if np.ndim(x) == 0 else x


def _raise_first_failure(checks):
    """Raise ValueError at the first point, in C order, that fails a check.

    ``checks`` holds (ok, message, values) triples whose arrays share one
    shape.  At the failing point the first failing check is reported, its
    message formatted with that point's values, so an array call names the
    value a loop of scalar calls would have stopped at.
    """
    if all(bool(ok) if isinstance(ok, np.bool_) else ok.all() for ok, _, _ in checks):
        return  # a scalar call's checks are numpy bools, whose truth is cheaper than .all()
    failed = [~np.ravel(ok) for ok, _, _ in checks]
    i = int(np.argmax(np.logical_or.reduce(failed)))
    for bad, (_, message, values) in zip(failed, checks):
        if bad[i]:
            raise ValueError(message % tuple(float(np.ravel(v)[i]) for v in values))


def _check_inputs(gamma, lam, beta):
    _raise_first_failure([
        (np.isfinite(gamma) & (gamma > 0), "gamma must be a positive finite real, got %r", (gamma,)),
        (np.isfinite(lam) & (lam > 0), "lambda must be a positive finite real, got %r", (lam,)),
        (np.isfinite(beta) & (beta >= 0), "beta must be a nonnegative finite real, got %r", (beta,)),
    ])


def _check_lipschitz_inputs(gamma, lambda_beta):
    _check_real(gamma, "gamma")
    _check_real(lambda_beta, "lambda_beta", "nonnegative")


def _l1(gamma, lambda_beta):
    g1 = gamma + 1.0
    one = 1.0 + lambda_beta
    return np.sqrt(np.maximum(g1 * g1, (gamma + 2.0) * (one * one + 1.0)))


def _l2(gamma, lambda_beta):
    g1 = gamma + 1.0
    two = 2.0 + lambda_beta
    return np.sqrt(np.maximum(g1 * g1 + gamma * lambda_beta, two * two + gamma * two))


def lipschitz_l1(gamma, lambda_beta):
    """First Lipschitz constant of the vector field.

    L1 = sqrt(max((gamma+1)^2, (gamma+2)*((1+lambda_beta)^2 + 1))).

    ``lambda_beta`` is the product lam*beta; the constant depends on the two
    factors only through it.
    """
    gamma, lambda_beta = _float_arrays(gamma, lambda_beta)
    _check_lipschitz_inputs(gamma, lambda_beta)
    return _scalar_or_array(_l1(gamma, lambda_beta))


def lipschitz_l2(gamma, lambda_beta):
    """Second Lipschitz constant of the vector field.

    L2 = sqrt(max((gamma+1)^2 + gamma*lambda_beta,
                  (2+lambda_beta)^2 + gamma*(2+lambda_beta))).

    For gamma <= sqrt(3) the second branch dominates, so
    L2 = sqrt((2+lambda_beta)^2 + gamma*(2+lambda_beta)) there.
    """
    gamma, lambda_beta = _float_arrays(gamma, lambda_beta)
    _check_lipschitz_inputs(gamma, lambda_beta)
    return _scalar_or_array(_l2(gamma, lambda_beta))


def _corollary(gamma, lam, beta):  # the paper's one-inequality sufficient test for rho_feasible
    two = 2.0 + lam * beta
    D = two * two + gamma * two
    return (gamma <= _SQRT3) & (-gamma / (lam * D) + beta * (D + gamma * gamma + 1.0) < 0.0)


def _envelope(A, B, s, p):
    sa_pb = s * A - p * B
    sp = s + p
    disc = sa_pb * sa_pb + sp * sp * A * B
    r0 = (sa_pb - np.sqrt(disc)) / (sp * B)
    g_r0 = (A + B * r0 * r0) / (p + sp * r0 + s * r0 * r0)
    return np.maximum(B / s, g_r0), r0


def derive_params(gamma, lam, beta):
    """Compute every derived constant for (gamma, lam, beta).

    The three arguments broadcast against each other.  Raises ValueError
    naming the first bad value, in C order of the broadcast points.

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

    and (m, r0) from :func:`envelope_constants` where ``rho_feasible``
    holds, nan elsewhere.  ``rho_feasible`` is True iff all of A, B, C are
    strictly negative.
    """
    gamma, lam, beta = _float_arrays(gamma, lam, beta)
    _check_inputs(gamma, lam, beta)
    # extreme inputs overflow to inf and compare as infeasible, without a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lb = lam * beta
        L1 = _l1(gamma, lb)
        L2 = _l2(gamma, lb)
        L = np.minimum(L1, L2)
        Lsq = L * L
        Lsq1 = Lsq + 1.0
        A = -gamma / (2.0 * lam) + (beta / 2.0) * (Lsq + 2.0 * gamma * gamma + 1.0)
        B = -gamma / (2.0 * lam * Lsq) + (beta / 2.0) * (Lsq + gamma * gamma + 1.0)
        C = -((2.0 * Lsq + 1.0) / (Lsq1 * Lsq1)) * gamma * gamma + 3.0 * beta * gamma * lam - 1.0
        c = Lsq / Lsq1
        a_const = gamma / (2.0 * Lsq1 * Lsq * lam)
        b_const = Lsq * gamma / (2.0 * Lsq1 * lam)
        s = beta + 1.0 / lam
        p = (beta * lam * gamma + (3.0 - 2.0 * c) * gamma - C) / lam
        rho_feasible = (A < 0.0) & (B < 0.0) & (C < 0.0)
        m, r0 = _envelope(A, B, s, p)
        m = np.where(rho_feasible, m, np.nan)
        r0 = np.where(rho_feasible, r0, np.nan)
        corollary_feasible = _corollary(gamma, lam, beta)
    values = dict(
        gamma=gamma, lam=lam, beta=beta, L1=L1, L2=L2, L=L, A=A, B=B, C=C, c=c,
        a_const=a_const, b_const=b_const, s=s, p=p, m=m, r0=r0,
        rho_feasible=rho_feasible, corollary_feasible=corollary_feasible,
    )
    if gamma.ndim == 0:  # a scalar call returns Python floats and bools
        values = {name: value.item() for name, value in values.items()}
    return SystemParams(**values)


def envelope_constants(A, B, s, p):
    """Negative envelope constant m and maximizer r0 from raw coefficients.

    With g(r) = (A + B*r^2) / (p + (s+p)*r + s*r^2) on r >= 0:

        r0 = ((s*A - p*B) - sqrt((s*A - p*B)^2 + (s+p)^2*A*B)) / ((s+p)*B)
        m  = max(B/s, g(r0))

    Requires A < 0 and B < 0 (so the discriminant is nonnegative and m < 0),
    and s, p > 0, at every point of the broadcast arguments.  The returned m
    satisfies A*v^2 + B*w^2 <= m*(s*w + p*v)*(v + w) for every v, w >= 0.
    :func:`derive_params` computes the same formula at every point and
    keeps it where the point is feasible.
    """
    A, B, s, p = _float_arrays(A, B, s, p)
    _raise_first_failure([
        ((A < 0.0) & (B < 0.0), "envelope needs A < 0 and B < 0, got A=%g, B=%g", (A, B)),
        ((s > 0.0) & (p > 0.0), "envelope needs s > 0 and p > 0, got s=%g, p=%g", (s, p)),
    ])
    m, r0 = _envelope(A, B, s, p)
    return _scalar_or_array(m), _scalar_or_array(r0)


def rate_envelope_constants(params):
    """Envelope constants (m, r0) for a feasible parameter set.

    Raises ValueError if ``params.rho_feasible`` is False anywhere.
    """
    if not np.all(params.rho_feasible):
        raise ValueError("rate envelope requires rho-feasible parameters")
    return params.m, params.r0


def params_report(params):
    """All constants under their JSON key spelling, in ``sweep.csv`` column order.

    Keys: gamma, lambda, beta, L1, L2, L, A, B, C, c, a, b, s, p, m, r0,
    rho_feasible, corollary_feasible.  For a scalar parameter set the values
    are Python scalars, with m and r0 None when infeasible; for an array
    call they are the columns, with m and r0 nan where infeasible.
    """
    report = {_REPORT_KEYS.get(f.name, f.name): getattr(params, f.name) for f in fields(params)}
    if np.ndim(params.rho_feasible) == 0 and not params.rho_feasible:
        report["m"] = report["r0"] = None
    return report
