"""Catalog of composite objectives f + g.

Every entry pairs a convex nonsmooth part f with a closed-form proximal map
and a smooth part g with an exact gradient and a certified Lipschitz constant
for that gradient.  Oracles accept a single point of shape (dim,) or a stack
of points with coordinates on the last axis, and are immutable after
construction, so they are safe to evaluate concurrently.

Every row of a batched result equals, bitwise, the call on that row alone:
a point's value does not depend on whether it was evaluated by itself or as
part of a stack, nor on the memory layout of the stack (C- or
Fortran-ordered, transposed, strided).  Matrix contractions therefore go
through ``_rowwise_matmul``, which runs each row through the same
vector-matrix kernel as a single point, and sums over coordinates go through
``_rowwise_sum``, which reduces each row of a C-ordered array the same way as
a lone row.  ``_rowwise_sqnorm`` is the package's one per-row sum of squares
and ``_rownorm`` its one Euclidean norm, which rescales a row whose squares
overflow or underflow.  Every squared norm and norm of a row, here and in
the energy, bound, rate, third-derivative, summary and iteration code, goes
through them, so those too give a row of a stack in any layout the bits of
the row alone.

``beta`` of the quadratic entries bounds the top eigenvalue of the Hessian
H (Q for zero_quad and box_quad, M^T M for lasso) from above, from one
``np.linalg.eigvalsh`` call.  LAPACK's symmetric eigensolvers are backward
stable: the computed eigenvalues are the exact ones of H + E, where the
classical analysis of Householder tridiagonalization bounds ||E||_2 by a
modest multiple of n^2 u ||H||_2 (n the dimension, u = 2**-53 the unit
roundoff) without fixing the constant.  By Weyl's inequality each computed
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
"""

from __future__ import annotations

import json
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


def soft_threshold(x, thresh):
    """Soft thresholding, the proximal map of thresh*|.|_1 at unit step."""
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def box_project(x, lower, upper):
    """Euclidean projection onto the box [lower, upper]."""
    return np.clip(x, lower, upper)


def _rowwise_matmul(x, mat):
    """``x @ mat`` for a point or a stack of points, rounded the same per row.

    Every row, a lone point included, is a ``(1, n) @ mat`` product of a
    broadcast, so each goes through the same vector-matrix kernel rather
    than a matrix-matrix kernel that may sum in another order.
    """
    return (np.ascontiguousarray(x)[..., None, :] @ mat)[..., 0, :]


def _rowwise_sum(a):
    """Sum over the last axis, rounded the same per row for any layout.

    numpy sums a C-ordered row pairwise but accumulates a Fortran-ordered
    stack one column at a time, and the two orders round differently.
    """
    return np.sum(np.ascontiguousarray(a), axis=-1)


def _rowwise_sqnorm(x):
    """Squared Euclidean norm over the last axis, through :func:`_rowwise_sum`."""
    x = np.asarray(x, dtype=float)
    return _rowwise_sum(x * x)


def _rownorm(x, sq=None):
    """Euclidean norm over the last axis of a point or a stack of any rank.

    ``sq`` may hold ``_rowwise_sqnorm(x)`` when the caller has it already.  A
    row whose sum of squares overflows or underflows is divided by its
    largest magnitude before squaring; every other row keeps the bits of
    sqrt(_rowwise_sqnorm(row)).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        if sq is None:
            sq = _rowwise_sqnorm(x)
        norm = np.sqrt(sq)
        redo = ~((sq >= _TINY) & (sq < np.inf))  # nan fails both
        if redo.any():
            norm, rows = np.array(norm), x[redo]  # a lone point's 0-d redo adds a row axis
            scale = np.max(np.abs(rows), axis=-1, initial=0.0)
            scale[~(scale > 0.0) | (scale == np.inf)] = 1.0  # a zero, inf or nan row is already right
            norm[redo] = scale * np.sqrt(_rowwise_sqnorm(rows / scale[:, None]))
    return norm[()]


def _top_eigenvalue_bound(eigenvalues, extra=0.0):
    """An upper bound on the top eigenvalue of a symmetric matrix.

    ``eigenvalues`` are the matrix's ``np.linalg.eigvalsh`` values, and
    ``extra`` bounds the 2-norm distance of that matrix from the exact one;
    see the module docstring.
    """
    k = len(eigenvalues) ** 2 * _EPS
    return float(eigenvalues.max() + k / (1.0 - k) * np.abs(eigenvalues).max() + extra)


@dataclass(frozen=True)
class SmoothFn:
    """Smooth part g: value, gradient, and gradient Lipschitz constant."""

    eval: Callable
    grad: Callable
    beta: float
    dim: int


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
    def value(x):
        return mu * _rowwise_sum(np.abs(x))

    def prox(lam, x):
        return soft_threshold(np.asarray(x, dtype=float), lam * mu)

    return ProxFn(eval=value, prox=prox, dim=dim)


def _box_prox_fn(lower, upper, dim):
    def value(x):
        inside = np.all((x >= lower) & (x <= upper), axis=-1)
        return np.where(inside, 0.0, np.inf)

    def prox(lam, x):
        # projection onto a box does not depend on the prox step
        return box_project(np.asarray(x, dtype=float), lower, upper)

    return ProxFn(eval=value, prox=prox, dim=dim)


def _quadratic_smooth(Q, b):
    Q = _check_real(Q, "each entry of Q", "finite")
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    n = Q.shape[0]
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

    def grad(x):
        x = np.ascontiguousarray(x)
        if x.ndim == 1:  # the integrator's per-step call skips the helper's overhead
            return x @ Q - b
        return _rowwise_matmul(x, Q) - b

    return SmoothFn(eval=value, grad=grad, beta=beta, dim=n)


def _make_zero_quad(Q, b=None):
    g = _quadratic_smooth(Q, b)
    return Objective(f=_zero_prox_fn(g.dim), g=g, dim=g.dim, name="zero_quad")


def _make_lasso(M, y, mu):
    M = _check_real(M, "each entry of M", "finite")
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    y = _check_real(y, "each entry of y", "finite")
    if y.shape != (M.shape[0],):
        raise ValueError("y has shape %s, expected (%d,)" % (y.shape, M.shape[0]))
    _check_real(mu, "mu", "nonnegative")
    n = M.shape[1]
    Mt = M.T
    gram = Mt @ M
    m_u = M.shape[0] * _EPS / 2.0
    gram_error = m_u / (1.0 - m_u) * np.linalg.norm(M) ** 2  # gamma_m ||M||_F^2
    beta = _top_eigenvalue_bound(np.linalg.eigvalsh(gram), gram_error)

    def value(x):
        return 0.5 * _rowwise_sqnorm(_rowwise_matmul(x, Mt) - y)

    def grad(x):
        x = np.ascontiguousarray(x)
        if x.ndim == 1:  # the integrator's per-step call skips the helper's overhead
            return (x @ Mt - y) @ M
        return _rowwise_matmul(_rowwise_matmul(x, Mt) - y, M)

    g = SmoothFn(eval=value, grad=grad, beta=beta, dim=n)
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
    g = SmoothFn(eval=value, grad=grad, beta=3.0, dim=dim)
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


def _check_real(value, what, kind="positive"):
    """``value`` as a float array whose entries are reals of ``kind``, else ValueError.

    ``kind`` is "positive" or "nonnegative" (and finite), "finite", or
    "extended" (±inf too).  A bool, a string or nan anywhere is rejected,
    naming the first bad entry.  ``np.asarray`` makes a bool among the
    numbers of a list 0 or 1, so only entries equal to 0 or 1 have their
    type looked at: a dense matrix costs two comparisons, and a 0/1 one a
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
    array = array.astype(float, copy=False)
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
    the leading axes of x, which must be a float array.
    """
    return obj.f.prox(lam, x - lam * obj.g.grad(x))


def prox_grad_residual(obj, lam, x):
    """Criticality residual ||x - T(x)|| / lam, with T from :func:`prox_grad_map`.

    Vanishes exactly at critical points of f + g.  Batched over the leading
    axes of x.
    """
    _check_real(lam, "lambda")
    x = np.asarray(x, dtype=float)
    return _map_residual(x, prox_grad_map(obj, lam, x), lam)


def _map_residual(x, mapped, lam):
    """||x - mapped|| / lam over the last axis, given mapped = T(x)."""
    return _rownorm(x - mapped) / lam
