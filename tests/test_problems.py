"""Tests for the objective catalog: prox maps, gradients, and constructors.

The proximal maps and gradients are checked against their defining
properties (optimality conditions, finite differences, dense eigensolvers)
rather than against reimplementations of the same formulas.
"""

import inspect
import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest

import proxdyn
from proxdyn import (
    box_project,
    make_problem,
    problem_from_json,
    prox_grad_map,
    prox_grad_residual,
)


def test_l1_prox_hand_values():
    # the lasso's prox at step lam soft-thresholds by lam * mu, here 0.5 * 2 = 1
    prox = make_problem("lasso", M=[[1.0]], y=[0.0], mu=2.0).f.prox
    x = np.array([3.0, -0.2, 0.5, -2.0, 0.0])
    out = prox(0.5, x)
    assert np.array_equal(out, np.array([2.0, 0.0, 0.0, -1.0, 0.0]))


def test_l1_prox_optimality_condition():
    # y = prox of tau*|.|_1 iff  x - y = tau*sign(y) where y != 0, |x - y| <= tau at y = 0,
    # with tau = lam * mu for the lasso's prox at step lam
    rng = np.random.default_rng(101)
    for _ in range(50):
        x = rng.standard_normal(6) * 3.0
        mu = float(rng.uniform(0.1, 1.0))
        lam = float(rng.uniform(0.5, 2.0))
        tau = lam * mu
        y = make_problem("lasso", M=np.eye(6), y=np.zeros(6), mu=mu).f.prox(lam, x)
        nz = y != 0.0
        assert np.all(np.abs((x - y)[nz] - tau * np.sign(y[nz])) <= 1e-12)
        assert np.all(np.abs(x[~nz]) <= tau + 1e-12)


def _moreau_formula(x, t):
    return x - np.clip(x, -t, t)


@pytest.mark.parametrize("lam", [np.array(0.5), 0.5])
def test_l1_prox_keeps_the_bits_of_the_sign_formula(lam):
    # the prox is the sign formula's map, sign(x) * max(|x| - t, 0), held to the bits of
    # Moreau's form x - clip(x, -t, t), which gives +0 on the whole dead zone: signed zeros,
    # subnormals, infinities and nan included, whether lam is 0-d or a float
    mu = 0.8
    t = 0.5 * mu
    prox = make_problem("lasso", M=[[1.0]], y=[0.0], mu=mu).f.prox
    x = np.array([0.0, -0.0, 5e-324, -5e-324, t, -t, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan])
    assert np.signbit(x[-1])
    want = _moreau_formula(x, t)
    assert prox(lam, x).tobytes() == want.tobytes()
    for i in range(len(x)):
        assert prox(lam, x[i : i + 1]).tobytes() == want[i : i + 1].tobytes(), x[i]
    assert not np.signbit(prox(lam, np.array([-0.0]))[0])  # -0.0 maps to +0.0


def test_l1_prox_forms_the_threshold_of_each_lam():
    # a prox that kept one lam's threshold too long gives another lam's bits
    mu = 0.8
    prox = make_problem("lasso", M=[[1.0]], y=[0.0], mu=mu).f.prox
    x = np.array([[-1.0, -0.3, -0.0, 0.2, 0.45, 2.0]] * 3)
    col = np.array([[0.5], [0.25], [1.0]])
    lams = [0.5, 0.25, np.array(0.25), col]
    for lam in lams:
        assert prox(lam, x).tobytes() == _moreau_formula(x, lam * mu).tobytes(), lam
    col *= 2.0  # the same array, changed in place
    assert prox(col, x).tobytes() == _moreau_formula(x, col * mu).tobytes()
    assert prox(0.5, x[0]).tobytes() == _moreau_formula(x[0], 0.5 * mu).tobytes()


def test_l1_prox_gives_plus_zero_on_the_dead_zone_and_x_itself_at_mu_0():
    # every x in [-t, t], signed zeros and subnormals included, maps to +0 for a float, a 0-d
    # and a (B, 1) lam; at mu = 0 the prox is the identity, bit for bit, -0 included
    mu = 0.8
    prox = make_problem("lasso", M=[[1.0]], y=[0.0], mu=mu).f.prox
    for lam in (0.5, np.array(0.5), np.array([[0.5], [0.25]])):
        t = np.asarray(lam * mu)
        span = np.linspace(-1.0, 1.0, 21) * t.reshape(-1, 1)  # -t, ..., t in each row
        dead = np.hstack([span, np.tile([0.0, -0.0, 5e-324, -5e-324], (len(span), 1))])
        dead = dead if t.ndim == 2 else dead[0]
        assert prox(lam, dead).tobytes() == np.zeros(dead.shape).tobytes(), lam
    identity = make_problem("lasso", M=[[1.0]], y=[0.0], mu=0.0).f.prox
    x = np.array([0.0, -0.0, 0.3, -0.3, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan])
    for lam in (0.5, np.array(0.5)):
        assert identity(lam, x).tobytes() == x.tobytes(), lam


def test_l1_prox_gives_a_row_of_a_stack_the_bits_of_the_row_alone_at_minus_nan():
    # numpy's multiply gave -nan * +nan the sign of either operand by the loop an entry fell in,
    # so the sign formula gave row 0 of this stack -nan where row 0 alone gave +nan
    prox = make_problem("lasso", M=np.eye(9), y=np.zeros(9), mu=0.5).f.prox
    x = np.zeros((2, 9))
    x[:, :8] = np.linspace(-1.0, 1.0, 16).reshape(2, 8)
    x[:, 8] = -np.nan
    stack = prox(0.5, x)
    for row, alone in zip(stack, x):
        assert row.tobytes() == prox(0.5, alone).tobytes()


def test_l1_prox_gives_each_thread_its_own_lam():
    # the threads take turns replacing the prox's kept (lam, threshold) pair; a call that
    # read one thread's lam with the other's threshold would give other bytes
    prox = make_problem("lasso", M=[[1.0]], y=[0.0], mu=0.8).f.prox
    x = np.array([-1.0, -0.3, 0.2, 0.45, 2.0])
    lams = (0.5, 0.25)
    want = {lam: prox(lam, x).tobytes() for lam in lams}
    bad = {lam: 0 for lam in lams}

    def work(lam):
        for _ in range(10**4):
            if prox(lam, x).tobytes() != want[lam]:
                bad[lam] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(lam,)) for lam in lams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == {lam: 0 for lam in lams}


def test_prox_maps_give_float64_for_a_float32_x():
    # each prox converts its input to float64, as the integrator's states are
    x = np.array([1.0, -0.25, -2.0], dtype=np.float32)
    lasso = make_problem("lasso", M=np.eye(3), y=np.zeros(3), mu=1.0)
    out = lasso.f.prox(0.5, x)
    assert out.dtype == np.float64
    assert out.tobytes() == np.array([0.5, 0.0, -1.5]).tobytes()
    box = make_problem("box_quad", Q=np.eye(3), b=np.zeros(3), lower=-1.0, upper=1.0)
    assert box.f.prox(0.5, x).tobytes() == np.array([1.0, -0.25, -1.0]).tobytes()
    zero = make_problem("zero_quad", Q=np.eye(3))
    assert zero.f.prox(0.5, x).tobytes() == x.astype(np.float64).tobytes()


def test_box_project_componentwise():
    lower = np.array([-1.0, 0.0])
    upper = np.array([1.0, 2.0])
    assert np.array_equal(
        box_project(np.array([-3.0, 5.0]), lower, upper), np.array([-1.0, 2.0])
    )
    inside = np.array([0.5, 1.5])
    assert np.array_equal(box_project(inside, lower, upper), inside)


def test_box_project_has_the_bytes_of_np_clip():
    # every value against every box lower <= upper of the bounds: signed zeros, the least
    # subnormal, the infinities and a nan of either sign bit
    values = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.inf, -math.inf,
              math.nan, -math.nan]
    assert math.copysign(1.0, values[-1]) == -1.0
    bounds = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf]
    boxes = [(lo, hi) for lo, hi in itertools.product(bounds, bounds) if lo <= hi]
    x, lower, upper = (np.array(c) for c in zip(*((v, lo, hi) for v in values for lo, hi in boxes)))
    assert box_project(x, lower, upper).tobytes() == np.clip(x, lower, upper).tobytes()
    # and the box prox gives a row of a stack, its bounds broadcast along the rows, the bytes of
    # the row alone, where np.clip keeps +0 against a lower bound of -0 on that route only
    pts = np.array(values)[:, None]
    for lo, hi in boxes:
        prox = make_problem("box_quad", Q=[[1.0]], b=[0.0], lower=lo, upper=hi).f.prox
        stack = prox(0.5, pts)
        for i, row in enumerate(pts):
            assert prox(0.5, row).tobytes() == stack[i].tobytes(), (row, lo, hi)


def test_zero_matrix_has_beta_zero():
    assert make_problem("zero_quad", Q=np.zeros((4, 4))).g.beta == 0.0
    assert make_problem("lasso", M=np.zeros((3, 4)), y=np.zeros(3), mu=0.1).g.beta == 0.0


def test_quadratic_gradient_finite_difference():
    rng = np.random.default_rng(20)
    q = rng.standard_normal((4, 4))
    q = q @ q.T
    b = rng.standard_normal(4)
    obj = make_problem("zero_quad", Q=q, b=b)
    for _ in range(20):
        x = rng.standard_normal(4)
        grad = obj.g.grad(x)
        eps = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = eps
            fd = (obj.g.eval(x + e) - obj.g.eval(x - e)) / (2.0 * eps)
            assert abs(grad[i] - fd) <= 1e-5 * (1.0 + abs(fd))


def test_lasso_value_and_gradient_hand_case():
    obj = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    x = np.array([2.0])
    # g = 0.5*(2-1)^2 = 0.5, f = 0.5*|2| = 1.0
    assert obj.g.eval(x) == 0.5
    assert obj.f.eval(x) == 1.0
    assert obj.value(x) == 1.5
    assert np.array_equal(obj.g.grad(x), np.array([1.0]))


def test_lasso_beta_matches_gram_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(8):
        m = rng.standard_normal((8, 5))
        obj = make_problem("lasso", M=m, y=rng.standard_normal(8), mu=0.3)
        dense = float(np.linalg.eigvalsh(m.T @ m).max())
        assert abs(obj.g.beta - dense) <= 1e-8 * max(1.0, dense)


def test_lasso_gradient_finite_difference():
    rng = np.random.default_rng(32)
    m = rng.standard_normal((6, 4))
    obj = make_problem("lasso", M=m, y=rng.standard_normal(6), mu=0.2)
    x = rng.standard_normal(4)
    grad = obj.g.grad(x)
    eps = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = eps
        fd = (obj.g.eval(x + e) - obj.g.eval(x - e)) / (2.0 * eps)
        assert abs(grad[i] - fd) <= 1e-5 * (1.0 + abs(fd))


def test_cos_quad_gradient_and_curvature_bound():
    obj = make_problem("cos_quad", dim=3)
    assert obj.g.beta == 3.0
    rng = np.random.default_rng(40)
    x = rng.uniform(-6.0, 6.0, size=3)
    grad = obj.g.grad(x)
    eps = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = eps
        fd = (obj.g.eval(x + e) - obj.g.eval(x - e)) / (2.0 * eps)
        assert abs(grad[i] - fd) <= 1e-5 * (1.0 + abs(fd))
    # the per-coordinate curvature 1 - 2*cos(t) really is bounded by beta = 3
    t = np.linspace(-10.0, 10.0, 20001)
    curv = 1.0 - 2.0 * np.cos(t)
    assert curv.max() <= 3.0 and curv.min() >= -1.0


def test_cos_quad_critical_point_bisection():
    """The positive nonzero critical point solves x = 2 sin x.

    Certified here by bisection on grad g over [1.8, 2.0] and frozen to its
    full double value; other tests compare trajectory limits against it.
    """
    obj = make_problem("cos_quad", dim=1)

    def dg(t):
        return float(obj.g.grad(np.array([t]))[0])

    lo, hi = 1.8, 2.0
    assert dg(lo) < 0.0 < dg(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dg(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 1.8954942670339809) <= 1e-14
    assert abs(dg(1.8954942670339809)) <= 1e-14


def test_box_eval_indicator():
    obj = make_problem("box_quad", Q=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.0], lower=-1.0, upper=1.0)
    assert obj.f.eval(np.array([0.0, 0.5])) == 0.0
    assert obj.f.eval(np.array([1.0, -1.0])) == 0.0  # boundary included
    assert obj.f.eval(np.array([1.0000001, 0.0])) == np.inf


def test_box_prox_ignores_step():
    obj = make_problem("box_quad", Q=[[1.0]], b=[0.0], lower=[-0.5], upper=[0.5])
    x = np.array([3.0])
    for lam in (0.1, 1.0, 7.0):
        assert np.array_equal(obj.f.prox(lam, x), np.array([0.5]))


def test_prox_grad_residual_vanishes_at_minimizers():
    # unconstrained quadratic: solve Qx = b
    obj = make_problem("zero_quad", Q=[[2.0, 0.0], [0.0, 1.0]], b=[2.0, 1.0])
    assert prox_grad_residual(obj, 0.125, np.array([1.0, 1.0])) == 0.0
    # lasso closed form: y soft-thresholded by mu for M = I
    lasso = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    assert prox_grad_residual(lasso, 0.5, np.array([0.5])) == 0.0
    # box-constrained quadratic, active constraint at the upper bound
    box = make_problem("box_quad", Q=[[1.0]], b=[2.0], lower=[-1.0], upper=[1.0])
    assert prox_grad_residual(box, 0.25, np.array([1.0])) == 0.0
    # and positive away from the solution
    assert prox_grad_residual(obj, 0.125, np.array([0.0, 0.0])) > 0.1


def test_residual_batched_matches_scalar():
    obj = make_problem("lasso", M=[[1.0, 0.5], [0.0, 2.0]], y=[1.0, -1.0], mu=0.4)
    rng = np.random.default_rng(55)
    pts = rng.standard_normal((9, 2))
    batched = prox_grad_residual(obj, 0.07, pts)
    assert batched.shape == (9,)
    for i in range(9):
        assert batched[i] == prox_grad_residual(obj, 0.07, pts[i])


def test_batched_oracles_match_per_row():
    cases = [
        make_problem("zero_quad", Q=[[1.5, 0.2], [0.2, 1.0]], b=[0.5, -1.0]),
        make_problem("lasso", M=[[1.0, 0.0], [0.3, 2.0]], y=[0.5, 1.0], mu=0.2),
        make_problem("box_quad", Q=[[1.0, 0.0], [0.0, 2.0]], b=[1.0, 1.0], lower=-0.7, upper=0.7),
        make_problem("cos_quad", dim=2, mu=0.1),
    ]
    rng = np.random.default_rng(60)
    pts = rng.standard_normal((7, 2)) * 2.0
    for obj in cases:
        ge = obj.g.eval(pts)
        gg = obj.g.grad(pts)
        fe = obj.f.eval(pts)
        px = obj.f.prox(0.3, pts)
        assert ge.shape == (7,) and fe.shape == (7,)
        assert gg.shape == (7, 2) and px.shape == (7, 2)
        for i in range(7):
            assert ge[i] == obj.g.eval(pts[i])
            assert np.array_equal(gg[i], obj.g.grad(pts[i]))
            assert fe[i] == obj.f.eval(pts[i])
            assert np.array_equal(px[i], obj.f.prox(0.3, pts[i]))


@pytest.mark.parametrize("dim", [5, 9, 33])
def test_batched_oracles_match_per_row_wide_stacks(dim):
    # a stack goes through matrix-matrix kernels unless every row is routed
    # through the single-point kernel, and at these sizes those round differently
    rng = np.random.default_rng(61 + dim)
    a = rng.standard_normal((dim, dim))
    q = a @ a.T
    m = rng.standard_normal((dim + 4, dim))  # more rows than columns
    cases = [
        make_problem("zero_quad", Q=q, b=rng.standard_normal(dim)),
        make_problem("lasso", M=m, y=rng.standard_normal(dim + 4), mu=0.2),
        # fewer rows than columns, so a singular Gram matrix
        make_problem("lasso", M=m[: dim - 2], y=np.linspace(-1.0, 1.0, dim - 2), mu=0.2),
        make_problem("box_quad", Q=q, b=rng.standard_normal(dim), lower=-0.7, upper=0.7),
        make_problem("cos_quad", dim=dim, mu=0.1),
    ]
    rows = 64
    c_pts = rng.standard_normal((rows, dim)) * 2.0
    # a Fortran-ordered stack is reduced one column at a time unless the
    # oracle restores the row-by-row order of a lone point
    for pts, obj in itertools.product((c_pts, np.asfortranarray(c_pts)), cases):
        ge = obj.g.eval(pts)
        gg = obj.g.grad(pts)
        fe = obj.f.eval(pts)
        px = obj.f.prox(0.3, pts)
        assert ge.shape == (rows,) and fe.shape == (rows,)
        assert gg.shape == (rows, dim) and px.shape == (rows, dim)
        for i in range(rows):
            assert ge[i] == obj.g.eval(pts[i]), (obj.name, i)
            assert np.array_equal(gg[i], obj.g.grad(pts[i])), (obj.name, i)
            assert fe[i] == obj.f.eval(pts[i]), (obj.name, i)
            assert np.array_equal(px[i], obj.f.prox(0.3, pts[i])), (obj.name, i)
        res = prox_grad_residual(obj, 0.3, pts)
        for i in range(rows):
            assert res[i] == prox_grad_residual(obj, 0.3, pts[i]), (obj.name, i)


def _layouts(a):
    """``a`` C-ordered, Fortran-ordered, strided, and as the transpose of a C-ordered array."""
    strided = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
    strided[::2, ::2] = a
    return {"C": np.ascontiguousarray(a), "Fortran": np.asfortranarray(a),
            "strided": strided[::2, ::2], "transposed": np.ascontiguousarray(a.T).T}


@pytest.mark.parametrize("layout", ["C", "Fortran", "strided", "transposed"])
@pytest.mark.parametrize("dim", [1, 2, 7, 64])
def test_lone_gradient_has_the_bytes_of_its_row_in_a_stack(dim, layout):
    # a lone point's x.dot(Q) and a stack's (1, n) @ Q per row are one gemv each, and round
    # alike only on a C-ordered Q: the quadratics hold Q so, as the lasso holds its Gram matrix
    rng = np.random.default_rng(65 + dim)
    a = rng.standard_normal((dim, dim))
    q = a @ a.T
    q = (q + q.T) / 2.0  # exactly symmetric, so that its transpose is the same matrix
    q, m = _layouts(q)[layout], _layouts(rng.standard_normal((dim + 3, dim)))[layout]
    b = rng.standard_normal(dim)
    cases = [
        make_problem("zero_quad", Q=q, b=b),
        make_problem("box_quad", Q=q, b=b, lower=-0.7, upper=0.7),
        make_problem("lasso", M=m, y=rng.standard_normal(dim + 3), mu=0.2),
    ]
    pts = rng.standard_normal((9, dim)) * 2.0
    for obj in cases:
        stack = obj.g.grad(pts)
        for i, x in enumerate(pts):
            assert obj.g.grad(x).tobytes() == stack[i].tobytes(), (obj.name, i)


def test_single_point_gradient_is_plain_matmul():
    # integrated trajectories step one point at a time; their bits depend on
    # the single-point gradient staying the plain vector-matrix product
    rng = np.random.default_rng(62)
    dim = 7
    a = rng.standard_normal((dim, dim))
    q = a @ a.T
    b = rng.standard_normal(dim)
    m = rng.standard_normal((dim + 4, dim))
    y = rng.standard_normal(dim + 4)
    quad = make_problem("zero_quad", Q=q, b=b)
    lasso = make_problem("lasso", M=m, y=y, mu=0.2)
    for _ in range(20):
        x = rng.standard_normal(dim)
        assert np.array_equal(quad.g.grad(x), x @ q - b)
        assert np.array_equal(lasso.g.grad(x), x @ (m.T @ m) - y @ m)


def _past_a_cache_line(a, offset):
    """A C-ordered copy of ``a`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(a.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start : start + a.size].reshape(a.shape)
    out[...] = a
    return out


def _lasso_matrices(obj):
    """The lasso's M and Gram matrix G, as its value and gradient hold them."""
    value, grad = inspect.getclosurevars(obj.g.eval), inspect.getclosurevars(obj.g.grad)
    return value.nonlocals["Mt"].T, grad.nonlocals["Q"]


_M_SOURCES = {
    "json list": lambda m: json.loads(json.dumps(m.tolist())),
    "C array": np.ascontiguousarray,
    "Fortran array": np.asfortranarray,
    "view 8 bytes in": lambda m: _past_a_cache_line(m, 8),
}


@pytest.mark.parametrize("source", sorted(_M_SOURCES))
def test_lasso_matrices_start_on_a_cache_line(source):
    # OpenBLAS's vector-matrix kernel is slower on a matrix off a 64-byte boundary
    m = np.random.default_rng(63).standard_normal((9, 7))
    M, G = _lasso_matrices(make_problem("lasso", M=_M_SOURCES[source](m), y=np.zeros(9), mu=0.1))
    assert M.ctypes.data % 64 == 0 and G.ctypes.data % 64 == 0
    assert np.array_equal(M, m)
    assert np.array_equal(G, m.T @ m)


@pytest.mark.parametrize("order", ["C", "F"])
def test_lasso_value_keeps_the_bits_of_an_unaligned_m(order):
    # x @ M.T rounds differently for a C- and a Fortran-ordered M; the aligned copy is always
    # C-ordered, so both orders give the bits of the C-ordered M
    rng = np.random.default_rng(64)
    c = rng.standard_normal((11, 6))
    m = _past_a_cache_line(c, 8) if order == "C" else _past_a_cache_line(c.T, 8).T
    y = rng.standard_normal(11)
    g = make_problem("lasso", M=m, y=y, mu=0.1).g
    pts = rng.standard_normal((20, 6))  # enough that some value tells the two orders apart
    for x in pts:
        assert g.eval(x).tobytes() == (0.5 * np.sum((x @ c.T - y) ** 2)).tobytes()
    want = [0.5 * np.sum((x @ c.T - y) ** 2) for x in pts]
    assert g.eval(pts).tobytes() == np.array(want).tobytes()


def test_lasso_beta_is_solved_for_once_on_its_first_read(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    g = make_problem("lasso", M=[[1.0, 2.0], [3.0, 4.0]], y=[1.0, 1.0], mu=0.1).g
    assert calls == []
    assert g.beta == g.beta
    assert len(calls) == 1


def test_lasso_and_quadratic_without_columns_are_rejected():
    with pytest.raises(ValueError) as info:
        problem_from_json({"name": "lasso", "M": [[], []], "y": [0, 0], "mu": 0.1})
    assert str(info.value) == "M must have at least one column, got shape (2, 0)"
    with pytest.raises(ValueError) as info:
        make_problem("zero_quad", Q=np.zeros((0, 0)))
    assert str(info.value) == "Q must have at least one row, got shape (0, 0)"


def test_problem_from_json_dict_text_and_file(tmp_path):
    spec = {"name": "lasso", "dim": 2, "M": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 2.0], "mu": 0.5}
    from_dict = problem_from_json(spec)
    from_text = problem_from_json(json.dumps(spec))
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    from_file = problem_from_json(path)
    x = np.array([0.3, -0.4])
    for obj in (from_dict, from_text, from_file):
        assert obj.name == "lasso"
        assert obj.dim == 2
        assert obj.value(x) == from_dict.value(x)
        assert np.array_equal(obj.g.grad(x), from_dict.g.grad(x))


def test_problem_from_json_long_inline_text():
    # inline text longer than the OS file-name limit must parse, not be
    # tried as a path first
    rng = np.random.default_rng(7)
    m = rng.standard_normal((20, 20))
    spec = {"name": "lasso", "M": m.tolist(), "y": [1.0] * 20, "mu": 0.1}
    text = json.dumps(spec)
    assert len(text) > 5000
    obj = problem_from_json(text)
    assert obj.dim == 20
    x = rng.standard_normal(20)
    assert np.array_equal(obj.g.grad(x), problem_from_json(spec).g.grad(x))


def test_problem_from_json_missing_file(tmp_path):
    with pytest.raises(ValueError, match="problem file not found"):
        problem_from_json(str(tmp_path / "absent.json"))


def test_problem_from_json_validation():
    with pytest.raises(ValueError, match="name"):
        problem_from_json({"Q": [[1.0]]})
    with pytest.raises(ValueError, match="unknown problem"):
        problem_from_json({"name": "mystery"})
    with pytest.raises(ValueError, match="missing"):
        problem_from_json({"name": "lasso", "M": [[1.0]]})
    with pytest.raises(ValueError, match="dim"):
        problem_from_json({"name": "zero_quad", "dim": 3, "Q": [[1.0]]})
    with pytest.raises(ValueError, match="JSON object"):
        problem_from_json([1, 2])


def test_problem_from_json_rejects_unknown_keys():
    # "muu" used to be dropped, leaving f = 0 where mu = 0.5 was meant
    with pytest.raises(ValueError) as exc:
        problem_from_json({"name": "cos_quad", "dim": 2, "muu": 0.5})
    assert str(exc.value) == (
        "unknown key 'muu' in problem spec 'cos_quad'; valid keys: dim, mu, name")
    with pytest.raises(ValueError, match="unknown keys 'Q', 'extra' in problem spec 'lasso'"):
        problem_from_json({"name": "lasso", "M": [[1.0]], "y": [1.0], "mu": 0.5,
                           "Q": [[1.0]], "extra": 1})
    # every key the entry takes, and dim, still loads
    obj = problem_from_json({"name": "zero_quad", "dim": 1, "Q": [[1.0]], "b": [0.5]})
    assert obj.dim == 1


def test_make_problem_validation():
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("nope")
    with pytest.raises(ValueError, match="semidefinite"):
        make_problem("zero_quad", Q=[[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        make_problem("zero_quad", Q=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="empty"):
        make_problem("box_quad", Q=[[1.0]], b=[0.0], lower=[1.0], upper=[-1.0])
    with pytest.raises(ValueError, match="^Q must be a square matrix$"):
        make_problem("zero_quad", Q=[[1.0, 0.0]])
    with pytest.raises(ValueError, match=r"^b has shape \(2,\), expected \(1,\)$"):
        make_problem("zero_quad", Q=[[1.0]], b=[0.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        make_problem("lasso", M=[[1.0, 0.0]], y=[1.0, 2.0], mu=0.1)
    with pytest.raises(ValueError, match="^M must be a matrix$"):
        make_problem("lasso", M=[1.0], y=[1.0], mu=0.1)
    obj = make_problem("zero_quad", Q=[[1.0]])
    with pytest.raises(ValueError, match="^dimension mismatch: f.dim=1, g.dim=1, dim=2$"):
        proxdyn.Objective(f=obj.f, g=obj.g, dim=2)
    with pytest.raises(ValueError, match="nonnegative"):
        make_problem("lasso", M=[[1.0]], y=[1.0], mu=-0.1)
    with pytest.raises(ValueError, match="positive"):
        make_problem("cos_quad", dim=0)
    for name, spec in (("lasso", {"M": [[1.0]], "y": [1.0]}), ("cos_quad", {"dim": 1})):
        for mu in (math.nan, math.inf, "0.5", True):
            with pytest.raises(ValueError) as info:
                make_problem(name, mu=mu, **spec)
            assert str(info.value) == "mu must be a nonnegative finite real, got %r" % (mu,)


# dim-2 specs whose arrays hold numbers only
_ARRAY_SPECS = {
    "Q": ("zero_quad", {"Q": [[2.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0]}),
    "b": ("zero_quad", {"Q": [[2.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0]}),
    "M": ("lasso", {"M": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 1.0], "mu": 0.5}),
    "y": ("lasso", {"M": [[1.0, 0.0], [0.0, 1.0]], "y": [1.0, 1.0], "mu": 0.5}),
    "lower": ("box_quad", {"Q": [[2.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0], "lower": [-1.0, -1.0],
                           "upper": [1.0, 1.0]}),
    "upper": ("box_quad", {"Q": [[2.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0], "lower": [-1.0, -1.0],
                           "upper": [1.0, 1.0]}),
}


@pytest.mark.parametrize("key", sorted(_ARRAY_SPECS))
@pytest.mark.parametrize("bad", [True, False, "1", math.nan])
def test_problem_arrays_reject_bool_string_and_nan(key, bad):
    name, spec = _ARRAY_SPECS[key]
    spec = json.loads(json.dumps(spec))
    row = spec[key][-1] if isinstance(spec[key][-1], list) else spec[key]
    row[-1] = bad  # among numbers, where np.asarray would make a bool 1.0 or 0.0
    kind = "a real or an infinity" if key in ("lower", "upper") else "a finite real"
    if isinstance(bad, float) and key not in ("lower", "upper"):
        kind = "finite"
    with pytest.raises(ValueError) as info:
        problem_from_json(dict(spec, name=name))
    assert str(info.value) == "each entry of %s must be %s, got %r" % (key, kind, bad)


def test_box_bounds_may_be_infinite():
    obj = problem_from_json('{"name": "box_quad", "Q": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], '
                            '"lower": [-Infinity, 0.0], "upper": [2.0, Infinity]}')
    assert np.array_equal(obj.f.prox(1.0, np.array([-5.0, 5.0])), [-5.0, 5.0])
    assert np.array_equal(obj.f.prox(1.0, np.array([5.0, -5.0])), [2.0, 0.0])


def test_prox_grad_residual_rejects_bad_step():
    obj = make_problem("cos_quad", dim=1)
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            prox_grad_residual(obj, lam, np.array([1.0]))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf, np.array([[0.5], [-0.5]])])
def test_prox_grad_map_rejects_bad_step(lam):
    # a negative threshold widens instead of shrinking: at lam -1 the lasso's T(1) would be 1.5
    lasso = make_problem("lasso", M=[[1.0]], y=[1.0], mu=0.5)
    with pytest.raises(ValueError, match="^lambda must be a positive finite real"):
        prox_grad_map(lasso, lam, [1.0])


def test_package_exports_each_module_all_once():
    modules = (proxdyn.problems, proxdyn.params, proxdyn.dynamics, proxdyn.lyapunov,
               proxdyn.discrete, proxdyn.rates)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert proxdyn.__all__ == names + ["__version__"]
    for name in proxdyn.__all__:
        assert hasattr(proxdyn, name), name
