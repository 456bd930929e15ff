"""Energy functional and regularized-function monitoring along a trajectory.

The energy

    E = (f+g)(x'' + gamma*x' + x) + (1/(2 lam)) ||x'' + c*gamma*x'||^2
        - (C/(2 lam)) ||x'||^2

is nonincreasing along the flow whenever the parameters are feasible, with
dissipation rate bounded by A||x'||^2 + B||x''||^2.  The same value arises as
H(u, v, w) = (f+g)(u) + (1/(2 lam))||u - v||^2 - (C/(2 lam))||w||^2 evaluated
at u = x''+gamma*x'+x, v = (1-c)*gamma*x'+x, w = x', since u - v =
x'' + c*gamma*x'.  The two routes share (f+g) and ||x'||^2 but form their
other quadratic term each its own way, and are compared in tests; neither
assumes feasibility (for infeasible parameters the formulas are evaluated
verbatim and the checks simply report what they find).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _write_csv
from .problems import _check_real, _map_residual, _rownorm, _rowwise_sqnorm, prox_grad_map

__all__ = [
    "EnergyTrace",
    "Violation",
    "h_value",
    "w_bound",
    "subgradient_witness",
    "monitor",
    "check_monotone",
    "write_energy_csv",
]


@dataclass
class EnergyTrace:
    """Per-sample energy, shifted objective, H value, bounds, and residual.

    ``fg_shifted`` is (f+g) at z = prox_{lam*f}(x - lam*grad g(x)), which by
    the system identity equals x'' + gamma*x' + x along the flow.
    ``dissipation`` is A||x'||^2 + B||x''||^2, expected nonpositive when
    feasible.
    """

    times: np.ndarray
    energy: np.ndarray
    fg_shifted: np.ndarray
    h_value: np.ndarray
    w_bound: np.ndarray
    residual: np.ndarray
    dissipation: np.ndarray


def _energy(params, fg, v, acc, vv):
    """E from (f+g)(acc + gamma*v + x), x', x'' and ||x'||^2; see the module docstring."""
    inv2lam = 1.0 / (2.0 * params.lam)
    return (
        fg
        + inv2lam * _rowwise_sqnorm(acc + (params.c * params.gamma) * v)
        - (params.C * inv2lam) * vv
    )


def _h(params, fg, u, v, ww):
    """H from (f+g)(u), u, v and ||w||^2; see :func:`h_value`."""
    inv2lam = 1.0 / (2.0 * params.lam)
    return fg + inv2lam * _rowwise_sqnorm(u - v) - (params.C * inv2lam) * ww


def h_value(obj, params, u, v, w):
    """H(u, v, w) = (f+g)(u) + (1/(2 lam))||u-v||^2 - (C/(2 lam))||w||^2.

    Returns +inf when u lies outside dom f.  H(u, u, 0) = (f+g)(u).
    """
    u = np.asarray(u, dtype=float)
    return _h(params, obj.value(u), u, np.asarray(v, dtype=float), _rowwise_sqnorm(w))


def w_bound(params, v, acc, a):
    """Norm bound for the subgradient element of H at mixing weight a >= 0.

    (beta + 1/lam) ||acc|| + ((beta*lam*gamma + (2a+1)*gamma - C)/lam) ||v||

    At a = 1 - c the coefficients are exactly (s, p) from the parameter set,
    which is how :func:`monitor` takes them.
    """
    _check_real(a, "a", "nonnegative")
    coef_acc = params.beta + 1.0 / params.lam
    coef_v = (
        params.beta * params.lam * params.gamma
        + (2.0 * a + 1.0) * params.gamma
        - params.C
    ) / params.lam
    return coef_acc * _rownorm(acc) + coef_v * _rownorm(v)


def subgradient_witness(obj, params, traj, a):
    """Norms of the explicit subgradient element of H along a trajectory.

    At each sample the element

        w(t) = ( grad g(z) - grad g(x) - (a*gamma/lam) v,
                 -(1/lam) (acc + (1-a)*gamma*v),
                 -(C/lam) v )

    with z = prox_{lam*f}(x - lam*grad g(x)) belongs to the subdifferential
    of H at (z, a*gamma*v + x, v); its product-space norm must stay below
    :func:`w_bound` with the same a.
    """
    _check_real(a, "a", "nonnegative")
    lam = params.lam
    gamma = params.gamma
    x, v, acc = traj.xs, traj.vs, traj.accs
    z = prox_grad_map(obj, lam, x)
    g1 = obj.g.grad(z) - obj.g.grad(x) - (a * gamma / lam) * v
    g2 = -(acc + (1.0 - a) * gamma * v) / lam
    g3 = -(params.C / lam) * v
    return _rownorm(np.concatenate((g1, g2, g3), axis=-1))


def monitor(obj, params, traj):
    """Evaluate the energy trace along a trajectory.

    z is recomputed from the system identity (one prox and gradient sweep
    over the samples) rather than reconstructed from the stored
    acceleration, so (f+g)(z) is always evaluated inside dom f.  (f+g)(z),
    ||x'||^2 and ||x''||^2 are evaluated once, for E, H at a = 1-c, the
    dissipation and the subgradient bound, which takes (s, p) from params.
    """
    x, v, acc = traj.xs, traj.vs, traj.accs
    z = prox_grad_map(obj, params.lam, x)
    fg_z = obj.value(z)
    vv, aa = _rowwise_sqnorm(v), _rowwise_sqnorm(acc)
    energy = _energy(params, fg_z, v, acc, vv)
    h_vals = _h(params, fg_z, z, (1.0 - params.c) * params.gamma * v + x, vv)
    residual = _map_residual(x, z, params.lam)
    dissipation = params.A * vv + params.B * aa
    return EnergyTrace(
        times=traj.times,
        energy=np.asarray(energy, dtype=float),
        fg_shifted=np.asarray(fg_z, dtype=float),
        h_value=np.asarray(h_vals, dtype=float),
        w_bound=params.s * _rownorm(acc, aa) + params.p * _rownorm(v, vv),
        residual=residual,
        dissipation=dissipation,
    )


@dataclass(frozen=True)
class Violation:
    """One monotonicity failure at sample ``index``.

    ``kind`` is "adjacent" for energy[i] > energy[i-1] + tol, or
    "integrated" when the rise between some earlier sample and ``index``
    exceeds the trapezoid integral of the dissipation bound plus tol; in
    both ``delta`` is the rise.  "non_finite" marks an energy sample that is
    inf or nan, with that value as ``delta``.  "non_finite_tol", at index 0,
    marks a tolerance that is inf or nan, against which no rise can count.
    """

    index: int
    delta: float
    kind: str


@np.errstate(over="ignore", invalid="ignore")  # non-finite energies are reported, not warned about
def check_monotone(trace, tol):
    """All indices where the energy fails to decrease within tolerance.

    Checks adjacent differences and the integrated bound
    E(t_j) - E(t_i) <= integral of (A||x'||^2 + B||x''||^2) + tol for every
    i < j (via a running minimum, so the scan is linear).  A non-finite
    energy sample or tolerance is a violation of its own kind, because a
    difference involving it is nan and compares as no rise.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    e = np.asarray(trace.energy, dtype=float)
    if e.size == 0:
        raise ValueError("empty trace")
    violations = []
    if not np.isfinite(tol):
        violations.append(Violation(index=0, delta=float(tol), kind="non_finite_tol"))
    for i in np.flatnonzero(~np.isfinite(e)):
        violations.append(Violation(index=int(i), delta=float(e[i]), kind="non_finite"))
    de = np.diff(e)
    for i in np.nonzero(de > tol)[0]:
        violations.append(Violation(index=int(i) + 1, delta=float(de[i]), kind="adjacent"))
    if e.size >= 2:
        dt = np.diff(trace.times)
        d = np.asarray(trace.dissipation, dtype=float)
        seg = 0.5 * (d[1:] + d[:-1]) * dt
        integral = np.concatenate(([0.0], np.cumsum(seg)))
        gap = e - integral
        run_min = np.minimum.accumulate(gap)
        excess = gap[1:] - run_min[:-1]
        for j in np.nonzero(excess > tol)[0]:
            violations.append(
                Violation(index=int(j) + 1, delta=float(excess[j]), kind="integrated")
            )
    violations.sort(key=lambda rec: (rec.index, rec.kind))
    return violations


def write_energy_csv(trace, path):
    """Write `t,energy,fg_shifted,h_value,w_bound,residual,dissipation` rows."""
    header = ["t", "energy", "fg_shifted", "h_value", "w_bound", "residual", "dissipation"]
    table = np.column_stack((trace.times, trace.energy, trace.fg_shifted, trace.h_value,
                             trace.w_bound, trace.residual, trace.dissipation))
    _write_csv(path, header, table)
