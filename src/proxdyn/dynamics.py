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

``_write_csv`` is the one CSV writer of the package (trajectories here,
energy traces, iterate histories and the sweep map elsewhere).  It writes
the bytes ``np.savetxt`` writes with ``%.17g``.  A value whose
decimal exponent is in [-6, 16] gets its 17 digits from numpy arithmetic
that is exact (Dekker's TwoProduct with an exact power of ten), laid out
in fixed-width cells by table lookups; zeros are constant cells, and the
rest (nan, +-inf, |x| < 1e-6 and |x| >= 1e17) go through one ``%`` per
chunk of rows.  An integral value such as an iteration count or a 0/1 flag
is written like ``%d`` would write it, with no point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import SystemParams
from .problems import _as_int, _check_real, _rowwise_sqnorm, prox_grad_map

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
    method: str = "rk4"


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
        method="rk4",
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
        Record every this-many steps.  Defaults to the smallest value
        keeping at most 10^5 samples.

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
    acc_norms = np.sqrt(_rowwise_sqnorm(traj.accs))
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


# _write_csv formats this many values, about, at a time.  Its temporaries
# take about 100 bytes a value, some 0.2 MB for a chunk.
_CSV_CHUNK_VALUES = 2048


def _least_double_from(k):
    """The smallest double whose value is at least 10**k."""
    d = 1 / 10**-k if k < 0 else float(10**k)  # int division rounds correctly
    num, den = d.as_integer_ratio()
    if num * 10 ** max(-k, 0) < den * 10 ** max(k, 0):
        d = math.nextafter(d, math.inf)
    return d


def _point_digit(x):
    """The digit of the 17 that the point follows for exponent ``x`` (16: none)."""
    return 0 if x < -4 else 16 if x < 0 else x


# Tables of _write_csv's exact %.17g kernel (see its docstring), indexed by
# X + 6 for the decimal exponent X in [-6, 16].  They are built from Python
# numbers, and the integer ones are int64 whatever numpy's default integer.
_CSV_EXPONENTS = range(-6, 17)
# searchsorted(_CSV_BOUNDS, |x|, "right") is the row of x's cell template:
# 0 for zero, 1 below the range, X + _CSV_X_ROW + 6 in it and 25 from 1e17
# on (and for inf and nan).
_CSV_BOUNDS = np.array([5e-324] + [_least_double_from(k) for k in range(-6, 18)])
_CSV_X_ROW = 2
_CSV_SCALE = np.array([10.0 ** (16 - x) for x in _CSV_EXPONENTS])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_CSV_SCALE_HI = np.array([p * _SPLIT - (p * _SPLIT - p) for p in _CSV_SCALE.tolist()])
_CSV_SCALE_LO = _CSV_SCALE - _CSV_SCALE_HI
# The point follows digit _CSV_POINT of the 17, so q // _CSV_UNIT is the
# part of the digits q before the point.  _CSV_MARK is _CSV_UNIT where the
# point is among the digits or there is an exponent suffix, else 0.
_CSV_POINT = np.array([_point_digit(x) for x in _CSV_EXPONENTS], np.int64)
_CSV_UNIT = np.array([10 ** (16 - _point_digit(x)) for x in _CSV_EXPONENTS], np.int64)
_CSV_MARK = np.array(
    [0 if -4 <= x < 0 else 10 ** (16 - _point_digit(x)) for x in _CSV_EXPONENTS], np.int64
)
# A cell: sign, a 5-byte "0.000" lead, 18 digit-and-point bytes, an "e-0X"
# suffix and the separator; _write_csv drops its NUL bytes.  _CSV_TEMPLATE
# holds the cell of each row above.  A value that % formats has its
# conversion in its cell.
_CELL = 29


def _cell_template(x):
    lead = b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""
    suffix = b"e-%02d" % -x if x < -4 else b""
    return lead.rjust(6, b"\0") + b"\0" * 18 + suffix


_CSV_TEMPLATE = np.frombuffer(
    b"".join(
        cell.ljust(_CELL - 1, b"\0") + b","
        for cell in [b"\0" * 6 + b"0", b"\0%.17g"]
        + [_cell_template(x) for x in _CSV_EXPONENTS]
        + [b"\0%.17g"]
    ),
    np.uint8,
).reshape(-1, _CELL)
_CSV_SLOT_ROW = np.array([False, True] + [False] * len(_CSV_EXPONENTS) + [True])
# uint8 bytes, so that a 0/1 byte times one of them is a uint8, not an int64
_POINT, _MINUS = np.uint8(ord(".")), np.uint8(ord("-"))


def _digit_words():
    """The ASCII digits of 0 .. 99 and of 0 .. 9999, right-aligned in 4-byte words.

    Entry 100 + i of the first table and 10000 + i of the second are entry
    i with its trailing zeros as NUL bytes.  Both are copied together from
    the 100 digit pairs, with no wider temporaries than the tables.
    """
    pairs = [b"%02d" % i for i in range(100)]
    full = np.frombuffer(b"".join(pairs), np.uint8).reshape(100, 2)
    stripped = np.frombuffer(b"".join(p.rstrip(b"0").ljust(2, b"\0") for p in pairs), np.uint8)
    stripped = stripped.reshape(100, 2)
    words2 = np.zeros((2, 100, 4), np.uint8)
    words2[0, :, 2:] = full
    words2[1, :, 2:] = stripped
    words4 = np.empty((2, 100, 100, 4), np.uint8)
    words4[:, :, :, :2] = full[:, None]
    words4[1, :, 0, :2] = stripped  # a zero low pair strips the high pair too
    words4[0, :, :, 2:] = full
    words4[1, :, :, 2:] = stripped
    return words2.view(np.uint32).ravel(), words4.view(np.uint32).ravel()


_DIGITS2, _DIGITS4 = _digit_words()


def _exact_digits(a, x):
    """The 17 significant digits of values ``a`` in [1e-6, 1e17), rounded half to even.

    ``x`` is X + 6.  Returns them as int64 integers in [1e16, 1e17).  The
    steps work in place, to keep the temporaries of a chunk few.
    """
    # Dekker's TwoProduct: hi + lo == a * 10**(16 - X) exactly
    hi = a * _CSV_SCALE[x]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p_hi, p_lo = _CSV_SCALE_HI[x], _CSV_SCALE_LO[x]
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    q = hi.astype(np.int64)
    q += np.rint(lo, out=lo).astype(np.int64)
    return q


def _digit_bytes(a, x):
    """The 18 digit-and-point bytes of the cells of values ``a`` in [1e-6, 1e17).

    ``x`` is X + 6.  Returns a (len(a), 18) uint8 array: the 17 significant
    digits of ``a``, with the point among them and the trailing zeros of
    the fraction as NUL bytes.
    """
    q = _exact_digits(a, x)
    # z is q with one more digit after the point's place: a 1 that keeps the
    # integer part's zeros from being stripped and is then overwritten by the
    # point (or by NUL if no fraction digit is left), or a 0 where the point
    # is not among the digits
    frac = q % _CSV_UNIT[x]
    z = q - frac
    z *= 10
    z += _CSV_MARK[x]
    z += frac
    words = np.empty((len(a), 5), np.uint32)
    # 10000 while every digit after this word is a trailing zero, then 0
    strip = np.full(len(a), 10000, np.int64)
    for i in (4, 3, 2, 1):
        high = z // 10000
        z -= high * 10000
        words[:, i] = _DIGITS4[z + strip]
        strip[z != 0] = 0
        z = high
    words[:, 0] = _DIGITS2[z + strip // 100]
    digits = words.view(np.uint8)[:, 2:]
    digits[np.arange(len(a)), 1 + _CSV_POINT[x]] = (frac != 0).view(np.uint8) * _POINT
    return digits


def _csv_text(chunk):
    """The text of the rows ``chunk``, as bytes or a uint8 array."""
    # each temporary is deleted once used, to keep the chunk's peak memory low
    flat = chunk.ravel()
    row = np.searchsorted(_CSV_BOUNDS, np.abs(flat), side="right")
    fast_at = np.flatnonzero((row >= _CSV_X_ROW) & (row < _CSV_X_ROW + len(_CSV_EXPONENTS)))
    digits = _digit_bytes(np.abs(flat[fast_at]), row[fast_at] - _CSV_X_ROW)
    cells = _CSV_TEMPLATE[row]
    cells[fast_at, 6:24] = digits
    del digits, fast_at
    slot = _CSV_SLOT_ROW[row]
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

    The rows go out in chunks of about ``_CSV_CHUNK_VALUES`` values, each
    value in a fixed-width cell whose NUL bytes are dropped on writing.  A
    finite nonzero value whose decimal exponent X is in [-6, 16] gets its
    digits from numpy arithmetic that is exact:

    * X is found by comparing |x| with the smallest double >= 10**k.
    * With s = 16 - X <= 22, 10**s is an exact double, so Dekker's
      TwoProduct splits |x| * 10**s into hi + lo with no error.  hi >= 1e16
      > 2**53 is an even integer, so hi + rint(lo) is the 17-digit integer
      rounded half to even, as CPython's ``%.17g`` rounds.
    * The result is below 1e17: rounding up to 1e17, a carry into X + 1,
      needs |x| within 5e-18, relatively, below a power of ten.  No double
      in this range is (the tests write the doubles around each power of
      ten).

    The digits, the point, the "0.000" lead of X in [-4, -1] and the "e-0X"
    of X in [-6, -5] then go into the cell as table lookups, with trailing
    zeros of the fraction as NUL bytes.  Zeros are "0" and "-0".  Every
    other value (nan, +-inf, |x| < 1e-6, |x| >= 1e17) gets a ``%.17g``
    conversion in its cell instead, and the chunk's text is formatted with
    one ``%`` on those values.
    """
    chunk_rows = max(1, _CSV_CHUNK_VALUES // table.shape[1])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), chunk_rows):
            fh.write(_csv_text(table[start : start + chunk_rows]))


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
