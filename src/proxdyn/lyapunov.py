"""Energy functional and regularized-function monitoring along a trajectory.

The energy

    E = (f+g)(x'' + gamma*x' + x) + (1/(2 lam)) ||x'' + c*gamma*x'||^2
        - (C/(2 lam)) ||x'||^2

is nonincreasing along the flow whenever the parameters are feasible, with
dissipation rate bounded by A||x'||^2 + B||x''||^2.  The same value arises as
H(u, v, w) = (f+g)(u) + (1/(2 lam))||u - v||^2 - (C/(2 lam))||w||^2 evaluated
at u = x''+gamma*x'+x, v = (1-c)*gamma*x'+x, w = x', since u - v =
x'' + c*gamma*x'.  The two routes share (f+g), ||x'||^2 and one formula,
but form the vector d of its term ||d||^2 each their own way, and are
compared in tests; neither assumes feasibility (for infeasible parameters
the formulas are evaluated verbatim and the checks simply report what they
find).

Every check of a bound that the paper proves along a trajectory returns a
:class:`BoundCheck`: the energy decrease (a pair, adjacent and integrated)
and the third-derivative check here, and the decay-ODE and dominance checks
of the tail integral sigma in ``rates``.  :func:`check_monotone` compares
the energies it is given, and whether they are finite is the caller's test:
a rise from inf is -inf or nan, and an inf tolerance passes every finite
rise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _write_csv
from .problems import _check_real, _map_residual, _per_row, _prox_grad, _row_blocks, _rownorm, _rowwise_sqnorm

__all__ = [
    "EnergyTrace",
    "BoundCheck",
    "h_value",
    "w_bound",
    "subgradient_witness",
    "third_derivative_check",
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


@dataclass(frozen=True)
class BoundCheck:
    """A bound lhs <= rhs + tol, sampled at ``times``.

    ``tol`` is the allowance for the error of the sampled route, in the
    units of lhs and rhs.  ``ok`` is the verdict per sample, so a nan on
    either side fails; ``holds`` says whether every sample passes, and
    ``max_excess`` is the largest lhs - rhs: -inf with no sample, nan when
    a side is nan.
    """

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float

    @property
    @np.errstate(invalid="ignore")
    def ok(self):
        return self.lhs <= self.rhs + self.tol

    @property
    def holds(self):
        return bool(self.ok.all())

    @property
    @np.errstate(invalid="ignore")
    def max_excess(self):
        return float(np.max(self.lhs - self.rhs, initial=-np.inf))


def _h(params, fg, d, ww, out=None):
    """(f+g) + (1/(2 lam))||d||^2 - (C/(2 lam))||w||^2 from (f+g), d and ||w||^2.

    This is H with d = u - v, and E with d = x'' + c*gamma*x' and w = x'; see
    the module docstring.  ``out``, when given, receives the value.
    """
    inv2lam = 1.0 / (2.0 * params.lam)
    return np.subtract(fg + inv2lam * _rowwise_sqnorm(d), (params.C * inv2lam) * ww, out=out)


def h_value(obj, params, u, v, w):
    """H(u, v, w) = (f+g)(u) + (1/(2 lam))||u-v||^2 - (C/(2 lam))||w||^2.

    Returns +inf when u lies outside dom f.  H(u, u, 0) = (f+g)(u).
    """
    u = np.asarray(u, dtype=float)
    return _h(params, obj.value(u), u - np.asarray(v, dtype=float), _rowwise_sqnorm(w))


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
    :func:`w_bound` with the same a.  The samples are swept one row block
    at a time, by ``problems._per_row``.
    """
    _check_real(a, "a", "nonnegative")
    lam = params.lam
    gamma = params.gamma
    T = _prox_grad(obj, lam)

    def norms(rows):
        x, v, acc = traj.xs[rows], traj.vs[rows], traj.accs[rows]
        g1 = obj.g.grad(T(x)) - obj.g.grad(x) - (a * gamma / lam) * v
        g2 = -(acc + (1.0 - a) * gamma * v) / lam
        g3 = -(params.C / lam) * v
        return _rownorm(np.concatenate((g1, g2, g3), axis=-1))

    if traj.xs.ndim < 2:  # a lone point has no rows to cut
        return norms(Ellipsis)
    return _per_row(norms, traj.xs)


def third_derivative_check(traj, params):
    """The third-derivative bound at every interior sample, at L = min(L1, L2).

    Along the flow, (x'', x''') is the derivative of the L-Lipschitz field
    at (x', x''), so ||x'''|| <= sqrt(L^2 ||x'||^2 + (L^2 - 1) ||x''||^2).
    lhs is the norm of the central difference of x'', rhs that root, and
    tol the truncation allowance 10 * dt^2 * max||x''||.  The rhs grows
    with L, so the check at L = min(L1, L2) is the check at L1 and at L2.
    The central differences are formed one row block at a time, by
    ``problems._per_row``, each from the block's neighbours.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least 3 samples for a central difference")
    dt = traj.times[1] - traj.times[0]
    after, before = traj.accs[2:], traj.accs[:-2]
    lhs = _per_row(lambda rows: _rownorm((after[rows] - before[rows]) / (2.0 * dt)), after)
    l_sq = params.L * params.L
    v_sq, a_sq = _rowwise_sqnorm(traj.vs[1:-1]), _rowwise_sqnorm(traj.accs[1:-1])
    rhs = np.sqrt(l_sq * v_sq + (l_sq - 1.0) * a_sq)
    tol = 10.0 * dt * dt * float(_rownorm(traj.accs).max(initial=0.0))
    return BoundCheck(times=traj.times[1:-1], lhs=lhs, rhs=rhs, tol=tol)


def monitor(obj, params, traj):
    """Evaluate the energy trace along a trajectory.

    z is recomputed from the system identity (one prox and gradient sweep
    over the samples) rather than reconstructed from the stored
    acceleration, so (f+g)(z) is always evaluated inside dom f.  (f+g)(z),
    ||x'||^2 and ||x''||^2 are evaluated once, for E, H at a = 1-c, the
    dissipation and the subgradient bound, which takes (s, p) from params.

    The samples are swept one row block of ``problems._row_blocks`` at a
    time into the six (n_samples,) arrays, so the sweep's temporaries have
    the size of a block, not of the trajectory.  The last operation of each
    output but (f+g)(z) writes into the block's slice of its array, so no
    block allocates a temporary only to copy it there.  Every value is
    computed per row, so a sample's values do not depend on its block.
    """
    x, v, acc = traj.xs, traj.vs, traj.accs
    T = _prox_grad(obj, params.lam)
    energy, fg_shifted, h_vals, w_bound, residual, dissipation = (
        np.empty(len(traj.times)) for _ in range(6))
    for rows in _row_blocks(x):
        xb, vb, ab = x[rows], v[rows], acc[rows]
        z = T(xb)
        fg_shifted[rows] = obj.value(z)
        fg_z, vv = fg_shifted[rows], _rowwise_sqnorm(vb)
        _h(params, fg_z, z - ((1.0 - params.c) * params.gamma * vb + xb), vv, out=h_vals[rows])
        _map_residual(xb, z, params.lam, out=residual[rows])
        del z
        aa = _rowwise_sqnorm(ab)
        _h(params, fg_z, ab + (params.c * params.gamma) * vb, vv, out=energy[rows])
        np.add(params.s * _rownorm(ab, aa), params.p * _rownorm(vb, vv), out=w_bound[rows])
        np.add(params.A * vv, params.B * aa, out=dissipation[rows])
    return EnergyTrace(times=traj.times, energy=energy, fg_shifted=fg_shifted, h_value=h_vals,
                       w_bound=w_bound, residual=residual, dissipation=dissipation)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite energy is the caller's test, not a warning
def check_monotone(trace, tol):
    """The energy decrease as the pair ``(adjacent, integrated)`` of :class:`BoundCheck`.

    Both are sampled at ``times[1:]`` with rhs 0 and allowance ``tol``.
    ``adjacent``'s lhs is the rise E(t_j) - E(t_{j-1}).  ``integrated``'s
    lhs is the largest rise of E - (trapezoid integral of
    A||x'||^2 + B||x''||^2) from any earlier sample to t_j, so it holds
    where E(t_j) - E(t_i) <= integral + tol for every i < j (via a running
    minimum, so the scan is linear).  Finiteness is the caller's test: a
    difference involving inf or nan can be -inf or nan, and an inf ``tol``
    passes every finite rise.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    e = np.asarray(trace.energy, dtype=float)
    if e.size == 0:
        raise ValueError("empty trace")
    d = np.asarray(trace.dissipation, dtype=float)
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(trace.times))))
    gap = e - integral
    rise = gap[1:] - np.minimum.accumulate(gap)[:-1]
    times, zero = trace.times[1:], np.zeros(e.size - 1)
    return (BoundCheck(times=times, lhs=np.diff(e), rhs=zero, tol=tol),
            BoundCheck(times=times, lhs=rise, rhs=zero, tol=tol))


def write_energy_csv(trace, path):
    """Write `t,energy,fg_shifted,h_value,w_bound,residual,dissipation` rows."""
    header = ["t", "energy", "fg_shifted", "h_value", "w_bound", "residual", "dissipation"]
    _write_csv(path, header, trace.times, trace.energy, trace.fg_shifted, trace.h_value,
               trace.w_bound, trace.residual, trace.dissipation)
