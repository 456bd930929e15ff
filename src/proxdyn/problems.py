"""Catalog of composite objectives f + g.

Every entry pairs a convex nonsmooth part f with a closed-form proximal map
and a smooth part g with an exact gradient and a certified Lipschitz constant
for that gradient.  Oracles accept a single point of shape (dim,) or a stack
of points with coordinates on the last axis, and are immutable after
construction, so they are safe to evaluate concurrently.  Two values are
set later.  ``SmoothFn.beta`` is computed on its first read and then kept,
so a concurrent first read may compute the same value twice.  The l1 prox
keeps the last float lam it was called with and that lam's threshold, as
one tuple that a call reads once and replaces whole, so a concurrent call
with another lam forms its own threshold again and never reads another's.

Soft thresholding, sign(x) * max(|x| - t, 0), is five ufunc calls, and a
Python float operand costs the call that takes it a conversion.  So the l1
prox hands them none: its zero is a read-only 0-d float64 array, and its
threshold lam * mu a 0-d float64 array, formed once for a run's float lam.
On one thread of an Intel Xeon (numpy 2.4.6, best of 9 repeats), a dim-1
subtract took 0.53 us against a Python float and 0.35 us against a 0-d
array, and the dim-1 prox 2.33 us with Python float operands and 1.96 us
with 0-d ones.  The public ``soft_threshold`` calls the same formula with
Python scalars, since a 0-d float64 operand would make numpy 2 promote a
float32 x to float64.

Every row of a batched result equals, bitwise, the call on that row alone:
a point's value does not depend on whether it was evaluated by itself or as
part of a stack, nor on the memory layout of the stack (C- or
Fortran-ordered, transposed, strided).  Matrix contractions therefore go
through ``_rowwise_matmul``, which runs each row through the same
vector-matrix kernel as a single point, and sums over coordinates go through
``_rowwise_sum``, which reduces each row of a C-ordered array the same way as
a lone row.  The quadratic gradient of a lone point, the integrator's
per-stage call, skips the helper: it is ``x.dot(Q) - b``, which runs the
BLAS gemv of the helper's (1, n) @ Q without the matmul dispatch around it.
On one thread of an Intel Xeon (numpy 2.4.6, OpenBLAS 0.3.31, best of 7
repeats), ``x.dot(Q)`` took 0.34 us at 1 x 1 and 0.75 us at 64 x 64, where
``x @ Q`` took 0.73 and 1.24 us.  The two round alike only on a C-ordered
Q, so the quadratics hold Q C-ordered, as the lasso holds its Gram matrix.
``_rowwise_sqnorm`` is the package's one per-row sum of squares and
``_rownorm`` its one Euclidean norm, which rescales a row whose squares
overflow or underflow.  Every squared norm and norm of a row, here and in
the energy, bound, rate, third-derivative, summary and iteration code, goes
through them, so those too give a row of a stack in any layout the bits of
the row alone.

The promise covers row blocks too.  A sweep over the samples of a run
(``lyapunov.monitor``, the row norms, the rate fit's distances, the
iterate history's objective values) cuts the stack with ``_row_blocks``
into blocks of as many rows as fit ``_SWEEP_BYTES`` per temporary, one row
at least, and evaluates one block at a time into preallocated outputs.
Every row has the bits of that row alone, so the cut changes no bit, and a
run holds its samples, its problem and this fixed budget, whatever the
number of samples times dim.  The budget, 256 KB or 32 768 float64 values,
is about a core's L2 cache, and large enough that a block's few dozen numpy
calls cost little beside its rows.  On one thread of a shared 2-core Intel
Xeon (numpy 2.4.6, OpenBLAS 0.3.31, best of 7 repeats in each of three
processes), ``monitor`` on a 501-sample trajectory of a 400 x 400 lasso
took 16.0-17.0 ms as one block, 17.0-18.9 ms in the 7 blocks of 256 KB,
19.8-20.3 ms at 64 KB and 30-41 ms at 16 KB.

``beta`` of the quadratic entries bounds the top eigenvalue of the Hessian
H (Q for zero_quad and box_quad, M^T M for lasso) from above, from one
``np.linalg.eigvalsh`` call.  A quadratic makes that call when it is built,
as its check that Q is positive semidefinite; lasso makes it on the first
read of ``beta``, which ``discrete`` never makes.  LAPACK's symmetric
eigensolvers are backward stable: the computed eigenvalues are the exact
ones of H + E, where the classical analysis of Householder
tridiagonalization bounds ||E||_2 by a modest multiple of n^2 u ||H||_2
(n the dimension, u = 2**-53 the unit roundoff) without fixing the
constant.  By Weyl's inequality each computed
eigenvalue is then within ||E||_2 of the exact one.  Taking
||E||_2 <= k ||H||_2 with k = n^2 eps (eps = 2u), and
||H||_2 <= max|computed eigenvalue| + ||E||_2, gives

    beta = max(eigvalsh(H)) + k / (1 - k) * max|eigvalsh(H)| >= lambda_max(H).

With numpy 2.4.6 and OpenBLAS 0.3.31 (Haswell kernels), the largest error
measured on random PSD matrices of dims 2-50 was 8.7 eps ||H||_2, at dim 4,
where k is 16 eps; a 1x1 matrix is exact.

For lasso, H is the Gram product M^T M formed in floating point, which
differs from the exact one by F with |F| <= gamma_m |M|^T |M| elementwise,
gamma_m = m u / (1 - m u) for the m rows of M.  Hence
||F||_2 <= gamma_m ||M||_F^2, and a second use of Weyl's inequality adds
that to the allowance.  beta exceeds lambda_max by at most about
n^2 eps lambda_max, plus m min(m, n) u lambda_max for lasso.

Lasso's gradient M^T (Mx - y) is taken as Gx - M^T y, from the Gram matrix
G = M^T M and the vector M^T y, both formed once, so it costs one n x n
product per point where the factored form costs two m x n ones: the
"covariance update" of Friedman, Hastie and Tibshirani's coordinate-descent
lasso.  Its value stays ||Mx - y||^2 / 2, since the terms of the expanded
quadratic x^T G x / 2 - (M^T y)^T x + ||y||^2 / 2 cancel when the residual
Mx - y is small against y.

M and G are held C-ordered on 64-byte boundaries, where numpy's allocator
gives 16 bytes.  The order is always C, since the bits of ``x @ M.T`` and
``y @ M`` depend on it, so a Fortran-ordered M gives the gradients and
values of the same M in C order.  The boundary matters because OpenBLAS's
vector-matrix kernel is slower on a matrix that does not start on a cache
line.  On one thread of an Intel Xeon (numpy
2.4.6, OpenBLAS 0.3.31, Haswell kernels, best of 7 repeats), a 400 x 400
gradient product took 12.5-12.9 us with G aligned and 23.2-23.7 us with G
16, 32 or 48 bytes past a boundary; the value of a 501-point stack at
400 x 400 took 9.0-9.1 ms with M aligned and up to 13.0-16.0 ms off it.
The bits do not depend on the alignment.  A quadratic's Q is held C-ordered
but left where the allocator puts it: no benchmarked problem has a large one.

For an M with fewer than n/2 rows the one n x n product costs more than the
two m x n ones.  Timed as above with M and G aligned, a point took 14 us
against 9 us at 100 x 400 and 310 us against 90 us at 250 x 1000, but 12 us
against 27 us at 400 x 400.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "SmoothFn",
    "ProxFn",
    "Objective",
    "make_problem",
    "problem_from_json",
    "prox_grad_map",
    "prox_grad_residual",
    "soft_threshold",
    "box_project",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# A sweep over a stack of samples makes temporaries of at most this many
# bytes each, 32 768 float64 values: see _row_blocks and the module docstring.
_SWEEP_BYTES = 256 * 2**10


# Soft thresholding's zero in the l1 prox: a 0-d float64 operand spares the
# ufunc the conversion of a Python float on every call.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _shrink(x, thresh, zero):
    """sign(x) * max(|x| - thresh, zero): soft thresholding, for the l1 prox and soft_threshold."""
    return np.sign(x) * np.maximum(np.abs(x) - thresh, zero)


def soft_threshold(x, thresh):
    """Soft thresholding, the proximal map of thresh*|.|_1 at unit step.

    Returns sign(x) * max(|x| - thresh, 0), with that formula's signed zeros:
    x = -0 gives +0, and a negative x inside the threshold gives -0.  The
    result has the dtype numpy gives ``x`` against a Python float, so a
    float32 x stays float32 under a float ``thresh``.  A negative or nan
    ``thresh``, the threshold of no convex f's prox, and an infinite one
    are rejected with a ValueError that names ``thresh``.
    """
    _check_real(thresh, "thresh", "nonnegative")
    return _shrink(x, thresh, 0.0)


def box_project(x, lower, upper):
    """Euclidean projection onto the box [lower, upper].

    The bytes of ``np.clip(x, lower, upper)`` with bounds of x's shape,
    without its Python wrapper.  Unlike ``np.clip``, whose loop with a
    broadcast bound keeps +0 against a bound of -0, it gives a row of a
    stack the bits of the row alone at that tie too.
    """
    return np.minimum(np.maximum(x, lower), upper)


def _rowwise_matmul(x, mat):
    """``x @ mat`` for a point or a stack of points, rounded the same per row.

    Every row, a lone point included, is a ``(1, n) @ mat`` product of a
    broadcast, so each goes through the same vector-matrix kernel rather
    than a matrix-matrix kernel that may sum in another order.
    """
    return (np.ascontiguousarray(x)[..., None, :] @ mat)[..., 0, :]


def _rowwise_sum(a, out=None):
    """Sum over the last axis, rounded the same per row for any layout.

    numpy sums a C-ordered row pairwise but accumulates a Fortran-ordered
    stack one column at a time, and the two orders round differently.
    ``out``, when given, receives the sums.
    """
    return np.add.reduce(np.ascontiguousarray(a), axis=-1, out=out)  # np.sum without its wrapper


def _row_blocks(stack):
    """Slices of the first axis of ``stack`` whose blocks hold at most ``_SWEEP_BYTES`` of float64.

    A block holds one row at least.  A sweep over samples takes its rows a
    block at a time, so that each temporary it makes has the size of one
    block, not of the stack; see the module docstring.
    """
    width = math.prod(stack.shape[1:])
    step = max(1, _SWEEP_BYTES // (8 * max(width, 1)))
    return (slice(start, start + step) for start in range(0, len(stack), step))


def _per_row(fn, stack, dtype=float):
    """``fn(stack)`` as a ``dtype`` array, for an ``fn`` that reduces the last axis.

    ``fn`` is called on one row block at a time.
    """
    out = np.empty(stack.shape[:-1], dtype)
    for rows in _row_blocks(stack):
        out[rows] = fn(stack[rows])
    return out


def _rowwise_sqnorm(x):
    """Squared Euclidean norm over the last axis, through :func:`_rowwise_sum`.

    A stack's sums go straight into the result, one row block at a time.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:  # a lone point has no rows to cut
        return _rowwise_sum(x * x)
    out = np.empty(x.shape[:-1])
    for rows in _row_blocks(x):
        block = x[rows]
        _rowwise_sum(block * block, out=out[rows])
    return out


@np.errstate(over="ignore")  # a row whose squares overflow is rescaled, not warned about
def _rownorm(x, sq=None):
    """Euclidean norm over the last axis of a point or a stack of any rank.

    ``sq`` may hold ``_rowwise_sqnorm(x)`` when the caller has it already.  A
    row whose sum of squares overflows or underflows is divided by its
    largest magnitude before squaring; every other row keeps the bits of
    sqrt(_rowwise_sqnorm(row)).
    """
    x = np.asarray(x, dtype=float)
    if sq is None:
        sq = _rowwise_sqnorm(x)
    if x.ndim < 2:  # a lone point's one sum is tested as a float, not through a mask
        return np.sqrt(sq) if _TINY <= float(sq) < math.inf else _rescaled_norm(x[None])[0]
    norm = np.sqrt(sq)
    redo = ~((sq >= _TINY) & (sq < np.inf))  # nan fails both
    if redo.any():
        for rows in _row_blocks(x):
            mask = redo[rows]
            if mask.any():  # norm[rows] is a view, so this writes into norm
                norm[rows][mask] = _rescaled_norm(x[rows][mask])
    return norm


def _rescaled_norm(rows):
    """The norms of a (k, n) stack of rows, each divided by its largest magnitude before squaring."""
    scale = np.max(np.abs(rows), axis=-1, initial=0.0)
    scale[~(scale > 0.0) | (scale == np.inf)] = 1.0  # a zero, inf or nan row is already right
    return scale * np.sqrt(_rowwise_sqnorm(rows / scale[:, None]))


def _top_eigenvalue_bound(eigenvalues, extra=0.0):
    """An upper bound on the top eigenvalue of a symmetric matrix.

    ``eigenvalues`` are the matrix's ``np.linalg.eigvalsh`` values, and
    ``extra`` bounds the 2-norm distance of that matrix from the exact one;
    see the module docstring.
    """
    k = len(eigenvalues) ** 2 * _EPS
    return float(eigenvalues.max() + k / (1.0 - k) * np.abs(eigenvalues).max() + extra)


def _aligned_empty(shape):
    """An uninitialised C-ordered float array of ``shape`` whose data starts on a 64-byte boundary.

    numpy places data on a 16-byte boundary, and OpenBLAS's vector-matrix
    kernel is slower on a matrix off a 64-byte one (see the module
    docstring).  The array is laid over an oversized buffer through
    ``np.ndarray``'s offset, not a slice: an empty slice ``buf[k:k]`` keeps
    ``buf``'s pointer.
    """
    buf = np.empty(math.prod(shape) + 7)
    return np.ndarray(shape, buffer=buf, offset=-buf.ctypes.data % 64)


@dataclass(frozen=True)
class SmoothFn:
    """Smooth part g: value, gradient, and gradient Lipschitz constant.

    ``lipschitz()`` returns the Lipschitz constant ``beta``.  It is called on
    the first read of ``beta`` and its result kept, so a run that never reads
    ``beta`` never pays for it.
    """

    eval: Callable
    grad: Callable
    lipschitz: Callable
    dim: int

    @functools.cached_property
    def beta(self):
        return self.lipschitz()


@dataclass(frozen=True)
class ProxFn:
    """Nonsmooth convex part f: value (may be +inf) and proximal map.

    ``prox(lam, x)`` returns argmin_y f(y) + ||y - x||^2 / (2*lam).
    """

    eval: Callable
    prox: Callable
    dim: int


@dataclass(frozen=True)
class Objective:
    """Composite objective f + g on R^dim."""

    f: ProxFn
    g: SmoothFn
    dim: int
    name: str = ""

    def __post_init__(self):
        if self.f.dim != self.dim or self.g.dim != self.dim:
            raise ValueError(
                "dimension mismatch: f.dim=%d, g.dim=%d, dim=%d"
                % (self.f.dim, self.g.dim, self.dim)
            )

    def value(self, x):
        return self.f.eval(x) + self.g.eval(x)


def _zero_value(x):
    return np.zeros(np.asarray(x).shape[:-1])


def _zero_prox_fn(dim):
    return ProxFn(eval=_zero_value, prox=lambda lam, x: np.asarray(x, dtype=float), dim=dim)


def _l1_prox_fn(mu, dim):
    # the last float lam and its threshold lam * mu as a 0-d float64 array: one
    # tuple, read once and replaced whole, so that threads never mix two pairs
    last = (None, None)

    def value(x):
        return mu * _rowwise_sum(np.abs(x))

    def prox(lam, x):
        nonlocal last
        cached, thresh = last
        if lam is not cached:
            thresh = lam * mu  # an array lam, which may change in place, is multiplied per call
            if isinstance(lam, float):  # immutable: a run's one lam forms its threshold once
                thresh = np.array(thresh, dtype=float)
                last = lam, thresh
        return _shrink(np.asarray(x, dtype=float), thresh, _ZERO)

    return ProxFn(eval=value, prox=prox, dim=dim)


def _box_prox_fn(lower, upper, dim):
    def value(x):
        inside = np.all((x >= lower) & (x <= upper), axis=-1)
        return np.where(inside, 0.0, np.inf)

    def prox(lam, x):
        # projection onto a box does not depend on the prox step
        return box_project(np.asarray(x, dtype=float), lower, upper)

    return ProxFn(eval=value, prox=prox, dim=dim)


def _quadratic_grad(Q, b):
    """The gradient x -> Qx - b of a quadratic with symmetric Hessian Q."""

    def grad(x):
        x = np.ascontiguousarray(x)
        if x.ndim == 1:  # the integrator's per-step call: the helper's gemv, without its overhead
            return x.dot(Q) - b
        return _rowwise_matmul(x, Q) - b

    return grad


def _quadratic_smooth(Q, b):
    Q = _check_real(Q, "each entry of Q", "finite")
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    n = Q.shape[0]
    if n == 0:
        raise ValueError("Q must have at least one row, got shape %s" % (Q.shape,))
    # C-ordered, as the lasso's G: a lone point's x.dot(Q) has the bits of a stack's rows only then
    Q = np.ascontiguousarray(Q)
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12):
        raise ValueError("Q must be symmetric")
    if b is None:
        b = np.zeros(n)
    b = _check_real(b, "each entry of b", "finite")
    if b.shape != (n,):
        raise ValueError("b has shape %s, expected (%d,)" % (b.shape, n))
    eigenvalues = np.linalg.eigvalsh(Q)
    if eigenvalues.min() < -1e-10:
        raise ValueError("Q must be positive semidefinite")
    beta = _top_eigenvalue_bound(eigenvalues)

    def value(x):
        x = np.asarray(x)
        return _rowwise_sum(x * (0.5 * _rowwise_matmul(x, Q) - b))

    # eigvalsh is also the PSD check above, so a quadratic's beta is found when it is built
    return SmoothFn(eval=value, grad=_quadratic_grad(Q, b), lipschitz=lambda: beta, dim=n)


def _make_zero_quad(Q, b=None):
    g = _quadratic_smooth(Q, b)
    return Objective(f=_zero_prox_fn(g.dim), g=g, dim=g.dim, name="zero_quad")


def _make_lasso(M, y, mu):
    M = _check_real(M, "each entry of M", "finite")
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    if M.shape[1] == 0:
        raise ValueError("M must have at least one column, got shape %s" % (M.shape,))
    y = _check_real(y, "each entry of y", "finite")
    if y.shape != (M.shape[0],):
        raise ValueError("y has shape %s, expected (%d,)" % (y.shape, M.shape[0]))
    _check_real(mu, "mu", "nonnegative")
    n = M.shape[1]
    # M and G on 64-byte boundaries, M always C-ordered, since the bits of x @ M.T and y @ M
    # depend on its memory order; out= forms G in place
    aligned = _aligned_empty(M.shape)
    aligned[...] = M
    M, Mt = aligned, aligned.T
    gram = np.matmul(Mt, M, out=_aligned_empty((n, n)))

    def lipschitz():
        m_u = M.shape[0] * _EPS / 2.0
        gram_error = m_u / (1.0 - m_u) * np.linalg.norm(M) ** 2  # gamma_m ||M||_F^2
        return _top_eigenvalue_bound(np.linalg.eigvalsh(gram), gram_error)

    def value(x):  # not the expanded quadratic, whose terms cancel when the residual is small
        return 0.5 * _rowwise_sqnorm(_rowwise_matmul(x, Mt) - y)

    g = SmoothFn(eval=value, grad=_quadratic_grad(gram, y @ M), lipschitz=lipschitz, dim=n)
    return Objective(f=_l1_prox_fn(mu, n), g=g, dim=n, name="lasso")


def _make_box_quad(Q, b, lower, upper):
    g = _quadratic_smooth(Q, b)
    n = g.dim
    lower = np.broadcast_to(_check_real(lower, "each entry of lower", "extended"), (n,)).copy()
    upper = np.broadcast_to(_check_real(upper, "each entry of upper", "extended"), (n,)).copy()
    if np.any(lower > upper):
        raise ValueError("box is empty: lower > upper somewhere")
    return Objective(f=_box_prox_fn(lower, upper, n), g=g, dim=n, name="box_quad")


def _make_cos_quad(dim, mu=0.0):
    dim = _as_int(dim, "dim", least=1)
    _check_real(mu, "mu", "nonnegative")

    def value(x):
        x = np.asarray(x)
        return _rowwise_sum(0.5 * x * x + 2.0 * np.cos(x))

    def grad(x):
        x = np.asarray(x)
        return x - 2.0 * np.sin(x)

    # second derivative per coordinate is 1 - 2*cos(x_i), contained in [-1, 3]
    g = SmoothFn(eval=value, grad=grad, lipschitz=lambda: 3.0, dim=dim)
    f = _zero_prox_fn(dim) if mu == 0.0 else _l1_prox_fn(mu, dim)
    return Objective(f=f, g=g, dim=dim, name="cos_quad")


# name -> (builder, required spec keys, optional spec keys)
_CATALOG = {
    "zero_quad": (_make_zero_quad, ("Q",), ("b",)),
    "lasso": (_make_lasso, ("M", "y", "mu"), ()),
    "box_quad": (_make_box_quad, ("Q", "b", "lower", "upper"), ()),
    "cos_quad": (_make_cos_quad, ("dim",), ("mu",)),
}


def make_problem(name, **spec):
    """Instantiate a catalog objective.

    Entries: zero_quad(Q, b=None), lasso(M, y, mu), box_quad(Q, b, lower,
    upper), cos_quad(dim, mu=0).
    """
    try:
        builder = _CATALOG[name][0]
    except KeyError:
        raise ValueError(
            "unknown problem %r; catalog: %s" % (name, ", ".join(sorted(_CATALOG)))
        ) from None
    return builder(**spec)


def problem_from_json(source):
    """Build an Objective from a JSON problem spec (dict, path, or JSON text).

    A string whose first non-blank character is ``{`` is parsed as JSON;
    any other string or a Path names a JSON file.  Keys: name (required),
    dim, Q or M (row-major), b or y, mu, lower, upper; a key that the named
    entry does not take is rejected.
    """
    spec = source
    if isinstance(source, str) and source.lstrip().startswith("{"):
        spec = json.loads(source)
    elif isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise ValueError("problem file not found: %s" % path)
        spec = json.loads(path.read_text())
    if not isinstance(spec, dict):
        raise ValueError("problem must be an inline JSON object or a file path")
    if "name" not in spec:
        raise ValueError("problem spec is missing the 'name' key")
    name = spec["name"]
    # an unknown name gets no keys here and is rejected by make_problem
    _, required, optional = _CATALOG.get(name, (None, (), ()))
    if name in _CATALOG:
        _check_keys(spec, ("name", "dim") + required + optional, "problem spec %r" % (name,))
    for key in required:
        if key not in spec:
            raise ValueError("problem spec %r is missing the %r key" % (name, key))
    kwargs = {key: spec[key] for key in required + optional if key in spec}
    obj = make_problem(name, **kwargs)
    if "dim" in spec:
        dim = _as_int(spec["dim"], "dim", least=1)
        if dim != obj.dim:
            raise ValueError("spec says dim=%d but problem data has dim=%d" % (dim, obj.dim))
    return obj


_INTEGER_KINDS = {0: "a nonnegative integer", 1: "a positive integer"}


def _as_int(value, what, least):
    """``value`` as an int, which must be at least ``least``, 0 or 1.

    An integer spelled as a float (2.0) is taken; a bool, a string, a
    fraction (2.5), nan and inf are rejected with ValueError.
    """
    integral = not isinstance(value, (bool, np.bool_)) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if not integral or value < least:
        raise ValueError("%s must be %s, got %r" % (what, _INTEGER_KINDS[least], value))
    return int(value)


_REAL_KINDS = {"positive": "a positive finite real", "nonnegative": "a nonnegative finite real",
               "finite": "a finite real", "extended": "a real or an infinity"}


def _check_type(value, what, kind):
    """``np.asarray(value)``, else :func:`_check_real`'s ValueError naming a bool, a string or a non-real.

    ``np.asarray`` makes a bool among the numbers of a list 0 or 1, so only entries equal to
    0 or 1 have their type looked at: a dense matrix costs two comparisons, and a 0/1 one a
    scan of its entries' types at C speed.
    """
    array = np.asarray(value)
    entries = ()
    if array.dtype.kind not in "iuf":
        entries = np.asarray(value, dtype=object).ravel()
    elif isinstance(value, (list, tuple)):
        suspects = (array == 0) | (array == 1)
        if suspects.any():
            entries = np.asarray(value, dtype=object)[suspects]
    types = set(map(type, entries))  # a few types, whatever the number of entries
    if types and not all(issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_)) for t in types):
        entry = next(e for e in entries if isinstance(e, (bool, np.bool_)) or not isinstance(e, numbers.Real))
        raise ValueError("%s must be %s, got %r" % (what, _REAL_KINDS[kind], entry))
    return array


def _check_real(value, what, kind="positive"):
    """``value`` as a float array whose entries are reals of ``kind``, else ValueError.

    ``kind`` is "positive" or "nonnegative" (and finite), "finite", or "extended" (±inf
    too).  A bool, a string or nan anywhere is rejected, naming the first bad entry.
    """
    array = _check_type(value, what, kind).astype(float, copy=False)
    ok = ~np.isnan(array) if kind == "extended" else np.isfinite(array)
    if kind in ("positive", "nonnegative"):
        ok &= array > 0 if kind == "positive" else array >= 0
    if not ok.all():  # a number of kind "finite" fails only by not being finite, and is told so
        raise ValueError("%s must be %s, got %r" % (
            what, "finite" if kind == "finite" else _REAL_KINDS[kind], float(array.flat[np.argmin(ok)])))
    return array


def _check_keys(spec, valid, what):
    """Reject a dict holding any key outside ``valid``, naming the valid ones."""
    unknown = sorted(set(spec) - set(valid))
    if unknown:
        raise ValueError(
            "unknown key%s %s in %s; valid keys: %s"
            % ("s" if len(unknown) > 1 else "", ", ".join(map(repr, unknown)), what,
               ", ".join(sorted(set(valid))))
        )


def prox_grad_map(obj, lam, x):
    """The prox-gradient map T(x) = prox_{lam*f}(x - lam*grad g(x)).

    The flow and the discrete iteration are both driven by T.  Batched over
    the leading axes of x, which must be a float array.  ``lam`` must be
    positive and finite, a number or an array that broadcasts against x;
    else ValueError.
    """
    _check_real(lam, "lambda")
    return _prox_grad(obj, lam)(x)


def _prox_grad(obj, lam):
    """T of :func:`prox_grad_map` as a function of x alone, for a run's many calls.

    ``obj.g.grad`` and ``obj.f.prox`` are looked up once, here, and called
    once per evaluation, so a wrapper swapped into either field sees every
    call.  ``lam`` is not checked here, on a run's path: the public
    functions that bind T check it.  The gradient step takes ``lam`` as a
    float array (0-d for a number), which its multiply need not convert.
    The prox takes ``lam`` as given, so that the l1 prox can keep a float
    lam's threshold from call to call (see the module docstring).
    """
    grad, prox = obj.g.grad, obj.f.prox
    step = np.asarray(lam, dtype=float)

    def T(x):
        return prox(lam, x - step * grad(x))

    return T


def prox_grad_residual(obj, lam, x):
    """Criticality residual ||x - T(x)|| / lam, with T from :func:`prox_grad_map`.

    Vanishes exactly at critical points of f + g.  Batched over the leading
    axes of x.
    """
    x = np.asarray(x, dtype=float)
    return _map_residual(x, prox_grad_map(obj, lam, x), lam)  # prox_grad_map checks lam


def _map_residual(x, mapped, lam, out=None):
    """||x - mapped|| / lam over the last axis, given mapped = T(x).  ``out``, when given, receives it."""
    norm = _rownorm(x - mapped)
    return norm / lam if out is None else np.divide(norm, lam, out=out)
