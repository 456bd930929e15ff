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
  :func:`derive_params`.

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

from .problems import _check_type

__all__ = [
    "SystemParams",
    "derive_params",
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


def _check_inputs(gamma, lam, beta):
    """Raise ValueError at the first point, in C order, with a bad value.

    At that point the first bad one of gamma, lambda and beta is named, so
    an array call names the value a loop of scalar calls would have
    stopped at.
    """
    checks = [
        (np.isfinite(gamma) & (gamma > 0), "gamma must be a positive finite real, got %r", gamma),
        (np.isfinite(lam) & (lam > 0), "lambda must be a positive finite real, got %r", lam),
        (np.isfinite(beta) & (beta >= 0), "beta must be a nonnegative finite real, got %r", beta),
    ]
    if all(bool(ok) if isinstance(ok, np.bool_) else ok.all() for ok, _, _ in checks):
        return  # a scalar call's checks are numpy bools, whose truth is cheaper than .all()
    failed = [~np.ravel(ok) for ok, _, _ in checks]
    i = int(np.argmax(np.logical_or.reduce(failed)))
    for bad, (_, message, value) in zip(failed, checks):
        if bad[i]:
            raise ValueError(message % float(np.ravel(value)[i]))


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

    The three arguments broadcast against each other.  Raises ValueError naming
    a bool or a string in any of them, else the first bad value in C order of the points.

    Returns
    -------
    SystemParams
        With the two Lipschitz constants of the first-order vector field,
        which depend on lam and beta only through lb = lam*beta,

        L1 = sqrt(max((gamma+1)^2, (gamma+2) ((1+lb)^2 + 1)))
        L2 = sqrt(max((gamma+1)^2 + gamma lb, (2+lb)^2 + gamma (2+lb)))

        (for gamma <= sqrt(3) the second branch of L2 dominates), with
        L = min(L1, L2) and, writing Lsq = L^2:

        A = -gamma/(2 lam) + (beta/2) (Lsq + 2 gamma^2 + 1)
        B = -gamma/(2 lam Lsq) + (beta/2) (Lsq + gamma^2 + 1)
        C = -((2 Lsq + 1)/(Lsq + 1)^2) gamma^2 + 3 beta gamma lam - 1
        c = Lsq / (Lsq + 1)
        a_const = gamma / (2 (Lsq+1) Lsq lam)
        b_const = Lsq gamma / (2 (Lsq+1) lam)
        s = beta + 1/lam
        p = (beta lam gamma + (3 - 2c) gamma - C) / lam

    ``rho_feasible`` is True iff all of A, B, C are strictly negative.
    Where it holds, m is the negative envelope constant and r0 its
    maximizer: with q(r) = (A + B r^2) / (p + (s+p) r + s r^2) on r >= 0,

        r0 = ((s A - p B) - sqrt((s A - p B)^2 + (s+p)^2 A B)) / ((s+p) B)
        m  = max(B/s, q(r0))

    so that A v^2 + B w^2 <= m (s w + p v)(v + w) for every v, w >= 0.
    Elsewhere m and r0 are nan.
    """
    for value, what in ((gamma, "gamma"), (lam, "lambda"), (beta, "beta")):
        _check_type(value, what, "nonnegative" if what == "beta" else "positive")  # before float() hides it
    gamma, lam, beta = _float_arrays(gamma, lam, beta)
    _check_inputs(gamma, lam, beta)
    # extreme inputs overflow to inf and compare as infeasible, without a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lb = lam * beta
        g1 = gamma + 1.0
        one = 1.0 + lb
        two = 2.0 + lb
        L1 = np.sqrt(np.maximum(g1 * g1, (gamma + 2.0) * (one * one + 1.0)))
        L2 = np.sqrt(np.maximum(g1 * g1 + gamma * lb, two * two + gamma * two))
        del g1, one, two  # a grid call's peak memory holds no more arrays than it must
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
