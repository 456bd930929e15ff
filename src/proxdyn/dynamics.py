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

One loop, ``_rk4``, steps a state with leading axes: u and v of shape
(dim,) for one trajectory (:func:`integrate`), or (B, dim) for B
trajectories with gamma and lam as (B, 1) columns
(:func:`integrate_ensemble`).  A lone point keeps the oracles'
single-point route; a stack evaluates every row as that route would, so
each ensemble row is bitwise the trajectory :func:`integrate` gives it.
Finiteness is checked per row at each sample.  A row that fails aborts
there and keeps its place, stepping on from zero with values that nothing
reads, until every row has aborted or the run ends; :func:`integrate` then
raises its one row's abort.

The loop keeps each RK4 stage in a preallocated *stage record* of shape
(..., 3, dim) holding (x, x', x'').  Its [..., :2, :] block is the stage
state (u, v) and its [..., 1:, :] block is the state's slope (v, x''), so a
stage state is one multiply and one add on a (2, dim) block, the
acceleration is written into its row in place, and the update
X += h/6 (K1 + 2 K2 + 2 K3 + K4) takes seven numpy calls on the blocks.
The first record holds the state itself.  Each quantity goes through the
operations of the textbook formulas in their order, so the bits are those
of a loop that allocates every stage.  Outside the oracles a step makes
25 numpy calls instead of 38, and at small dim those calls are most of
its cost.

Samples are stored as (n_samples, dim) arrays for one trajectory and
(B, n_samples, dim) for B, so each row's x, x' and x'' are C-contiguous
blocks.  An ensemble runs its rows in blocks whose three sample arrays fit
in ``_BLOCK_BYTES`` (32 MB), integrating the next block only once the
previous block's entries have been taken; a sweep of many long runs thus
holds one or two blocks of samples, not all of them.

``_write_csv`` is the one CSV writer of the package: trajectories here,
energy traces, iterate histories and the sweep map elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import SystemParams
from .problems import _as_int, _check_real, _rownorm, _rowwise_sqnorm, prox_grad_map

__all__ = [
    "Trajectory",
    "IntegrationAborted",
    "integrate",
    "integrate_ensemble",
    "third_derivative_check",
    "ThirdDerivativeReport",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

# Rows of an ensemble run in blocks whose sample arrays (x, x' and x'' of
# every row) fit in this many bytes.
_BLOCK_BYTES = 32 * 2**20


class IntegrationAborted(RuntimeError):
    """Raised when the integrator state stops being finite."""

    def __init__(self, t, step_index):
        self.t = t
        self.step_index = step_index
        super().__init__(
            "non-finite state at t=%g (step %d); the flow diverged numerically" % (t, step_index)
        )


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


def _check_run(obj, params_seq, u0, v0, t_end, h, sample_every):
    """Validate a run shared by every parameter set; return its state and grid.

    Returns (u, v, n_steps, sample_every, n_samples).  The step guard is
    checked for every parameter set, and the first that fails raises.
    """
    u = np.array(_check_real(u0, "each entry of u0", "finite"))
    v = np.array(_check_real(v0, "each entry of v0", "finite"))
    if u.shape != (obj.dim,) or v.shape != (obj.dim,):
        raise ValueError(
            "u0 and v0 must have shape (%d,), got %s and %s" % (obj.dim, u.shape, v.shape)
        )
    _check_real(h, "h", "finite")
    _check_real(t_end, "t_end", "finite")
    if h <= 0:
        raise ValueError("h must be positive, got %r" % float(h))
    for params in params_seq:
        guard = 1.0 / params.L1
        if h > guard:
            raise ValueError(
                "step h=%g exceeds the stability guard 1/L1=%g" % (h, guard)
            )
    if t_end < h:
        raise ValueError("t_end must be at least one step h")
    if not math.isfinite(t_end / h):
        raise ValueError("t_end/h overflows: t_end=%r, h=%r" % (float(t_end), float(h)))

    n_steps = max(1, int(round(t_end / h)))
    if sample_every is None:
        sample_every = max(1, math.ceil((n_steps + 1) / 100_000))
    else:
        sample_every = _as_int(sample_every, "sample_every", least=1)
        if sample_every > n_steps:
            raise ValueError(
                "sample_every=%d exceeds the run's %d steps" % (sample_every, n_steps)
            )
    if n_steps % sample_every:
        n_steps += sample_every - (n_steps % sample_every)
    return u, v, n_steps, sample_every, n_steps // sample_every + 1


@np.errstate(over="ignore", invalid="ignore")  # a diverging state is reported once, as an abort
def _rk4(obj, gamma, lam, u, v, h, n_steps, sample_every, xs, vs, accs):
    """The RK4 loop, on one state or on a stack of states.

    ``u`` and ``v`` have shape (dim,) for one trajectory, with scalar
    ``gamma`` and ``lam``, or (B, dim) for B trajectories, with ``gamma``
    and ``lam`` (B, 1) columns.  Samples go to ``xs``, ``vs`` and ``accs``
    of shape (n_samples, dim) or (B, n_samples, dim).

    The four stages live in stage records, see the module docstring; the
    first record holds the state.  Each stage quantity is computed by the
    operations of ``u + half*v``, ``T(u) - gamma*v - u`` and ``u +
    sixth*(v + 2*v2 + 2*v3 + v4)`` in their order, so it has the bits a loop
    allocating every stage would give.

    A row whose state is not finite at a sample aborts there.  It keeps its
    place and steps on, from zero, with values that nothing reads, and the
    loop ends once every row has aborted.  Returns {row: IntegrationAborted}
    for the aborted rows; a lone state is row 0.
    """
    aborted = {}
    # records[k] is stage k+1's (x, x', x''); [..., :2, :] its state, [..., 1:, :] its slope
    records = np.empty((4,) + u.shape[:-1] + (3, u.shape[-1]))
    records[0, ..., 0, :] = u
    records[0, ..., 1, :] = v
    x1, v1, a1, X, D1, x2, v2, a2, X2, D2, x3, v3, a3, X3, D3, x4, v4, a4, X4, D4 = (
        r[..., k, :] for r in records for k in (0, 1, 2, slice(None, 2), slice(1, None))
    )
    d, e = np.empty_like(D1), np.empty_like(D1)
    xs, vs, accs = (np.moveaxis(a, -2, 0) for a in (xs, vs, accs))  # sample i is [i] of each

    def field(x, v, acc):
        """Write the acceleration T(x) - gamma*v - x into ``acc``."""
        # out= only on the last call: one whose output is also an input costs
        # twice an allocating call when the arrays hold a single element
        np.subtract(prox_grad_map(obj, lam, x) - gamma * v, x, out=acc)

    field(x1, v1, a1)
    xs[0] = x1
    vs[0] = v1
    accs[0] = a1

    half = 0.5 * h
    sixth = h / 6.0
    idx = 1
    for step_i in range(1, n_steps + 1):
        # a1, the field at the step's start, is the first RK4 stage's slope
        np.multiply(half, D1, out=d)
        np.add(X, d, out=X2)
        field(x2, v2, a2)
        np.multiply(half, D2, out=d)
        np.add(X, d, out=X3)
        field(x3, v3, a3)
        np.multiply(h, D3, out=d)
        np.add(X, d, out=X4)
        field(x4, v4, a4)
        np.multiply(2.0, D2, out=d)
        np.add(D1, d, out=d)
        np.multiply(2.0, D3, out=e)
        np.add(d, e, out=d)
        np.add(d, D4, out=d)
        np.multiply(sixth, d, out=d)
        np.add(X, d, out=X)
        field(x1, v1, a1)
        if step_i % sample_every == 0:
            finite = np.isfinite(X)
            if not finite.all():
                ok = finite.all(axis=(-2, -1))
                for row in set(np.flatnonzero(~ok).tolist()) - aborted.keys():
                    aborted[row] = IntegrationAborted(t=step_i * h, step_index=step_i)
                if len(aborted) == ok.size:
                    break
                # restarted from zero, an aborted row comes back here only if it overflows again
                records[0][~ok] = 0.0
            xs[idx] = x1
            vs[idx] = v1
            accs[idx] = a1
            idx += 1
    return aborted


def _trajectory(params, h, sample_every, xs, vs, accs):
    return Trajectory(
        times=np.arange(len(xs)) * (sample_every * h),
        xs=xs,
        vs=vs,
        accs=accs,
        params=params,
        step=h,
    )


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
        Record every this-many steps, at most round(t_end/h).  Defaults to
        the smallest value keeping at most 10^5 samples.

    Returns
    -------
    Trajectory
    """
    u, v, n_steps, sample_every, n_samples = _check_run(
        obj, [params], u0, v0, t_end, h, sample_every
    )
    xs, vs, accs = (np.empty((n_samples, obj.dim)) for _ in range(3))
    aborted = _rk4(obj, params.gamma, params.lam, u, v, h, n_steps, sample_every, xs, vs, accs)
    if aborted:
        raise aborted[0]
    return _trajectory(params, h, sample_every, xs, vs, accs)


def integrate_ensemble(obj, params_seq, u0, v0, t_end, h, sample_every=None):
    """Integrate the flow once per parameter set, all sets stepping together.

    Every set starts from the same (u0, v0) and shares ``t_end``, ``h`` and
    ``sample_every``; each brings its own gamma and lam.  The arguments are
    those of :func:`integrate` and are checked when this is called, before
    any step: the first set whose stability guard rejects ``h`` raises
    :func:`integrate`'s ValueError.

    Returns an iterator with one entry per parameter set, in order: the
    Trajectory :func:`integrate` returns for that set, bitwise, or the
    IntegrationAborted it raises, with the same ``t`` and ``step_index``.
    Sets are integrated a block at a time as the iterator is consumed; see
    the module docstring.
    """
    params_seq = list(params_seq)
    u, v, n_steps, sample_every, n_samples = _check_run(
        obj, params_seq, u0, v0, t_end, h, sample_every
    )
    block = max(1, _BLOCK_BYTES // (3 * 8 * n_samples * obj.dim))

    def entries():
        for start in range(0, len(params_seq), block):
            chunk = params_seq[start : start + block]
            b = len(chunk)
            gamma = np.array([[params.gamma] for params in chunk])
            lam = np.array([[params.lam] for params in chunk])
            xs, vs, accs = (np.empty((b, n_samples, obj.dim)) for _ in range(3))
            aborted = _rk4(
                obj, gamma, lam, np.tile(u, (b, 1)), np.tile(v, (b, 1)),
                h, n_steps, sample_every, xs, vs, accs,
            )
            for row, params in enumerate(chunk):
                if row in aborted:
                    yield aborted[row]
                else:
                    yield _trajectory(params, h, sample_every, xs[row], vs[row], accs[row])

    return entries()


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
    lhs = _rowwise_sqnorm(x3)
    v_sq = _rowwise_sqnorm(traj.vs[1:-1])
    a_sq = _rowwise_sqnorm(traj.accs[1:-1])
    l1_sq = params.L1 * params.L1
    l2_sq = params.L2 * params.L2
    rhs_l1 = l1_sq * v_sq + (l1_sq - 1.0) * a_sq
    rhs_l2 = l2_sq * v_sq + (l2_sq - 1.0) * a_sq
    tol = 10.0 * dt * dt * float(_rownorm(traj.accs).max(initial=0.0))
    return ThirdDerivativeReport(
        times=traj.times[1:-1],
        lhs=lhs,
        rhs_l1=rhs_l1,
        rhs_l2=rhs_l2,
        ok_l1=lhs <= rhs_l1 + tol,
        ok_l2=lhs <= rhs_l2 + tol,
        tol=tol,
    )


# _write_csv formats the fewest rows that hold this many values at a time.
# Its temporaries take about 100 bytes a value, some 0.2 MB for a chunk of
# narrow rows.  A chunk makes over 100 numpy calls whatever its size, so
# rows as wide as a dim-400 trajectory's (1201 values) go two at a time.
_CSV_CHUNK_VALUES = 2048


def _double_double(num, den):
    """The rational num / den as the nearest double and the double nearest the rest."""
    # int division and float() both round correctly; float() is the faster
    hi = num / den if den > 1 else float(num)
    hi_num, hi_den = hi.as_integer_ratio()
    rest = num * hi_den - hi_num * den
    return hi, rest / (den * hi_den) if den * hi_den > 1 else float(rest)


def _decade_tables():
    """_CSV_ROW and _CSV_NEXT, then 2**E, hi and lo for each X of _CSV_X.

    hi + lo is 10**(16 - X) / 2**E as a double-double, 2**E <= 2**1023
    bringing 10**X as near [1, 2) as it can; lo is 0 where 10**(16 - X) is
    a double.  As 10**k = 5**k * 2**k, every
    double here is a double-double of 5**k or 5**-k from Python integers,
    scaled by an exact power of two.
    """
    powers = [1]  # 5**k
    for _ in range(324):
        powers.append(5 * powers[-1])
    five = [_double_double(1, p) for p in powers[308:0:-1]] + [_double_double(p, 1) for p in powers]
    five_hi, five_lo = np.array(five).T  # entry k + 308 is 5**k
    x = _CSV_X
    # the least double >= 10**x, since 5**x, and so 10**x, lies above its
    # nearest double where the rest is positive; below x = -307 the scaling
    # rounds, to a double at most 2**-1022, which is all those bounds need
    bound = np.ldexp(five_hi[x + 308], x)
    bound = np.append(np.where(five_lo[x + 308] > 0, np.nextafter(bound, math.inf), bound), math.inf)
    binade_x = np.searchsorted(bound, np.ldexp(1.0, np.arange(-1022, 1024)), "right") - 1
    row = np.concatenate(([0], binade_x + _CSV_X_ROW, [_CSV_SLOT])).astype(np.int64)
    next_bound = np.concatenate(([5e-324], bound[binade_x + 1], [math.nan]))
    e = np.minimum(1 - x - np.frexp(five_hi[x + 308])[1], 1023)
    s = 16 - x
    hi, lo = np.ldexp(five_hi[s + 308], s - e), np.ldexp(five_lo[s + 308], s - e)
    return row, next_bound, np.ldexp(1.0, e), hi, lo


# Tables of _write_csv's %.17g kernel (see its docstring), indexed by X + 308
# for the decimal exponent X of a normal double, in [-308, 308].  They are
# built from Python numbers, and the integer ones are int64 whatever numpy's
# default integer.
_CSV_X = np.arange(-308, 309, dtype=np.int64)
# A value's row: 0 for zero, _CSV_SLOT for a value that % formats (a
# subnormal, inf or nan), and X + _CSV_X_ROW + 308 for a normal double.
# _CSV_ROW[b] is the row of the least double of binary exponent field b, and
# the row of |x| is one more from _CSV_NEXT[b] on: a binade holds at most one
# power of ten.
_CSV_SLOT, _CSV_X_ROW = 1, 2
_CSV_ROW, _CSV_NEXT, _CSV_POW2, _CSV_HI, _CSV_LO = _decade_tables()
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_CSV_HI_HEAD = _CSV_HI * _SPLIT - (_CSV_HI * _SPLIT - _CSV_HI)
_CSV_HI_TAIL = _CSV_HI - _CSV_HI_HEAD
# A digit fraction farther than this from 1/2 rounds as the exact one does
# (see _digits); where lo is 0 the fraction is exact and no bound is needed.
_CSV_TIE_EDGE = np.where(_CSV_LO == 0, 0.5, 0.5 - 2.0**-47)
# The point follows digit _CSV_POINT of the 17, so q // _CSV_UNIT is the
# part of the digits q before the point.  _CSV_MARK is _CSV_UNIT where the
# point is among the digits or there is an exponent suffix, else 0.
_CSV_LEAD_ROW = (-4 <= _CSV_X) & (_CSV_X < 0)  # the rows of a "0.000" lead
_CSV_POINT = np.where(_CSV_LEAD_ROW, 16, np.where((0 <= _CSV_X) & (_CSV_X <= 16), _CSV_X, 0))
_CSV_UNIT = np.array([10 ** (16 - p) for p in range(17)], np.int64)[_CSV_POINT]
_CSV_MARK = np.where(_CSV_LEAD_ROW, 0, _CSV_UNIT)
# A cell: sign, a 5-byte "0.000" lead, 18 digit-and-point bytes, an exponent
# suffix of up to 5 bytes ("e-05", "e+308") and the separator; _write_csv
# drops its NUL bytes.  _CSV_TEMPLATE holds the cell of each row above.  A
# value that % formats has its conversion in its cell.
_CELL = 30


def _cell_template(x):
    lead = b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""
    suffix = b"" if -4 <= x <= 16 else b"e%+03d" % x
    return lead.rjust(6, b"\0") + b"\0" * 18 + suffix


_CSV_TEMPLATE = np.frombuffer(
    b"".join(
        cell.ljust(_CELL - 1, b"\0") + b","
        for cell in [b"\0" * 6 + b"0", b"\0%.17g"] + [_cell_template(x) for x in _CSV_X.tolist()]
    ),
    np.uint8,
).reshape(-1, _CELL)
# uint8 bytes, so that a 0/1 byte times one of them is a uint8, not an int64
_POINT, _MINUS = np.uint8(ord(".")), np.uint8(ord("-"))


def _digit_words():
    """The ASCII digits of 0 .. 9999 in 4-byte words.

    Entry 10000 + i is entry i with its trailing zeros as NUL bytes.  The
    table is copied from the 100 digit pairs, with no wider temporaries.
    """
    pairs = [b"%02d" % i for i in range(100)]
    full = np.frombuffer(b"".join(pairs), np.uint8).reshape(100, 2)
    stripped = np.frombuffer(b"".join(p.rstrip(b"0").ljust(2, b"\0") for p in pairs), np.uint8)
    stripped = stripped.reshape(100, 2)
    words = np.empty((2, 100, 100, 4), np.uint8)
    words[:, :, :, :2] = full[:, None]
    words[1, :, 0, :2] = stripped  # a zero low pair strips the high pair too
    words[0, :, :, 2:] = full
    words[1, :, :, 2:] = stripped
    return words.view(np.uint32).ravel()


_DIGITS4 = _digit_words()


def _digits(a, x):
    """The 17 significant digits of normal doubles ``a`` > 0, rounded half to even.

    ``x`` is X + 308 for each value's decimal exponent X.  Returns (q,
    to_format): the digits as int64 integers, and the mask of the values
    whose q may be wrong and which go to ``%`` instead.  Elsewhere q is in
    [1e16, 1e17).

    With y = a * 2**E (exact) and hi + lo from the row's table, Dekker's
    TwoProduct splits y * hi into an even integer h > 2**53 and an exact
    rest r; r + y * lo is then within 3 * 2**-49 of the digits' exact
    fraction past h (each rounding is at most 2**-49 at these magnitudes,
    and so is the error of hi + lo), and h + rint of it is q.  A value goes
    to ``%`` when that fraction is within 2**-47 of 1/2, where the rounding
    could go either way, and when q reaches 1e17, a carry into X + 1.
    For X in [-6, 16] lo is 0, so the arithmetic is exact and rint rounds
    ties to even, as CPython's ``%.17g`` does, and a carry would need |x|
    within 5e-18, relatively, below a power of ten, which no double there
    is (the tests write the doubles around each power of ten); those rows
    never go to ``%``.  The steps work in place, to keep the temporaries of
    a chunk few.
    """
    y = a * _CSV_POW2[x]
    hi = y * _CSV_HI[x]
    y_hi = y * _SPLIT
    y_hi -= y_hi - y
    y_lo = y - y_hi
    p_hi, p_lo = _CSV_HI_HEAD[x], _CSV_HI_TAIL[x]
    rest = y_hi * p_hi
    rest -= hi
    rest += y_hi * p_lo
    rest += y_lo * p_hi
    rest += y_lo * p_lo
    rest += y * _CSV_LO[x]
    up = np.rint(rest)
    q = hi.astype(np.int64)
    q += up.astype(np.int64)
    rest -= up
    to_format = np.abs(rest, out=rest) > _CSV_TIE_EDGE[x]
    to_format |= q >= 10**17
    return q, to_format


def _digit_bytes(q, x):
    """The 18 digit-and-point bytes of the cells of 17-digit integers ``q``.

    ``x`` is X + 308.  Returns a (len(q), 18) uint8 array: the digits, with
    the point among them and the trailing zeros of the fraction as NUL
    bytes.
    """
    # z is q with one more digit after the point's place: a 1 that keeps the
    # integer part's zeros from being stripped and is then overwritten by the
    # point (or by NUL if no fraction digit is left), or a 0 where the point
    # is not among the digits
    frac = q % _CSV_UNIT[x]
    z = q - frac
    z *= 10
    z += _CSV_MARK[x]
    z += frac
    words = np.empty((len(q), 5), np.uint32)
    # 10000 while every digit after this word is a trailing zero, then 0
    strip = np.full(len(q), 10000, np.int64)
    for i in (4, 3, 2, 1):
        high = z // 10000
        z -= high * 10000
        words[:, i] = _DIGITS4[z + strip]
        strip[z != 0] = 0
        z = high
    words[:, 0] = _DIGITS4[z + strip]  # z < 100, so this word begins "00"
    digits = words.view(np.uint8)[:, 2:]
    digits[np.arange(len(q)), 1 + _CSV_POINT[x]] = (frac != 0).view(np.uint8) * _POINT
    return digits


def _csv_rows(mag):
    """The template row of each value of ``mag``, a float64 array of |x|."""
    binade = mag.view(np.int64) >> 52
    row = _CSV_ROW[binade]
    row += mag >= _CSV_NEXT[binade]
    return row


def _csv_text(chunk):
    """The text of the rows ``chunk``, as bytes or a uint8 array."""
    # each temporary is deleted once used, to keep the chunk's peak memory low
    flat = chunk.ravel()
    mag = np.abs(flat)
    row = _csv_rows(mag)
    fast_at = np.flatnonzero(row >= _CSV_X_ROW)
    x = row[fast_at] - _CSV_X_ROW
    q, to_format = _digits(mag[fast_at], x)
    del mag
    if to_format.any():
        row[fast_at[to_format]] = _CSV_SLOT
        keep = ~to_format
        fast_at, q, x = fast_at[keep], q[keep], x[keep]
    cells = _CSV_TEMPLATE[row]
    cells[fast_at, 6:24] = _digit_bytes(q, x)
    del q, x, fast_at
    slot = row == _CSV_SLOT
    del row
    cells[:, 0] = (np.signbit(flat) & ~slot).view(np.uint8) * _MINUS
    cells.reshape(chunk.shape + (_CELL,))[:, -1, -1] = ord("\n")
    slot_values = flat[slot]
    text = cells[cells != 0]
    del cells
    return text.tobytes() % tuple(slot_values.tolist()) if len(slot_values) else text


def _write_csv(path, header, table):
    """Write a header line and the rows of ``table``, comma-separated.

    Floats get 17 significant digits (``%.17g``) so that they read back
    exactly.  The file is byte for byte the one ``np.savetxt`` writes with
    that conversion.

    The rows, of a float64 ``table``, go out in chunks of at least
    ``_CSV_CHUNK_VALUES`` values and as few rows as that takes, each value
    in a fixed-width cell whose NUL bytes are dropped on writing.  A
    normal double's decimal exponent X, in [-308, 308], comes from its
    binary exponent and one comparison with the smallest double >=
    10**(X + 1), and its digits from :func:`_digits`.  The digits, the
    point, the "0.000" lead of X in [-4, -1] and the exponent suffix of
    X < -4 and X > 16 then go into the cell as table lookups, with trailing
    zeros of the fraction as NUL bytes.  Zeros are "0" and "-0".  The rest
    (nan, +-inf, subnormals, whose decade the binary exponent does not
    tell, and the values :func:`_digits` sends to ``%``) gets a ``%.17g``
    conversion in its cell instead, and the chunk's text is formatted with
    one ``%`` on those values.
    """
    chunk_rows = -(-_CSV_CHUNK_VALUES // table.shape[1])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), chunk_rows):
            fh.write(_csv_text(table[start : start + chunk_rows]))


def _trajectory_header(n):
    return ["t"] + ["%s_%d" % (name, i) for name in "xva" for i in range(n)]


def write_trajectory_csv(traj, path):
    """Write `t,x_0..x_{n-1},v_0..v_{n-1},a_0..a_{n-1}` with 17 significant digits."""
    header = _trajectory_header(traj.xs.shape[1])
    _write_csv(path, header, np.column_stack((traj.times, traj.xs, traj.vs, traj.accs)))


def read_trajectory_csv(path):
    """Read a trajectory written by :func:`write_trajectory_csv`.

    The header must be the one that function writes, with at least one
    coordinate.  The file carries no system parameters, so ``params`` is
    None on the result; rate estimation does not need them.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    n = (len(header) - 1) // 3
    if n < 1 or header != _trajectory_header(n):
        raise ValueError("not a trajectory CSV: header %r" % (",".join(header),))
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
    )
