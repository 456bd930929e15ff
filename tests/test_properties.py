"""Property tests on random inputs.

- ``integrate`` and ``integrate_ensemble`` give the bits of the reference
  RK4 loop in ``tests/oracles.py``, which allocates every stage, on every
  catalog problem, also when an ensemble row overflows and is dropped.
  Runs abort where the reference loop does, on states that reach +inf,
  -inf or nan, and never on finite states near 1e308 or subnormal.
- Stacked evaluation gives each row what a lone call gives.  The ensemble
  integrator steps many trajectories as one stack, with gamma and lambda as
  per-row columns, and promises each row the bits of a separate run.  That
  rests on every catalog oracle rounding a row of a stack exactly like the
  same point alone, which the second property checks on random stacks and
  steps.  The energy, H, bound and witness functions keep the same promise
  for stacks in any memory layout, and a Fortran-ordered trajectory gives
  the monitor, third-derivative, sigma and rate results of a C-ordered one.
- ``beta`` of a quadratic bounds every Rayleigh quotient of its Hessian,
  computed exactly in integers, and exceeds the computed top eigenvalue by
  a rounding allowance only.
- Lasso's gradient, taken from the rounded Gram matrix, is within the
  standard forward-error bound of M^T (Mx - y); the exact gradient and the
  bound are computed in integers and fractions.
- Every prox of the catalog satisfies its optimality condition: the
  residual (x - prox_{lam f}(x))/lam is a subgradient of f at the prox.
- The feasibility verdicts imply each other as the paper states.
- ``derive_params`` on arrays gives, per element, the bits of the scalar
  formulas in ``tests/oracles.py`` and of a scalar call, and rejects a bad
  array with the message a loop of scalar calls would stop at.
- Every CSV writer's output reads back bit for bit, and is byte for byte
  what ``np.savetxt`` writes: on arbitrary doubles, and on doubles around
  every power of ten of the double range, at the subnormal edges and on
  exact rounding ties, where the writer's digit arithmetic could go wrong.
  That arithmetic leaves no random double of any decade to ``%``, and no
  tie of a decade where it is exact.
"""

import itertools
import math
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from proxdyn import (
    IntegrationAborted,
    EnergyTrace,
    IterateHistory,
    RateReport,
    Trajectory,
    classify_rate,
    derive_params,
    h_value,
    integrate,
    integrate_ensemble,
    make_problem,
    monitor,
    prox_grad_map,
    read_trajectory_csv,
    sigma_estimate,
    subgradient_witness,
    third_derivative_check,
    w_bound,
    write_energy_csv,
    write_history_csv,
    write_trajectory_csv,
)
from proxdyn.dynamics import (_CSV_CHUNK_VALUES, _CSV_LO, _CSV_MARK, _CSV_NAN, _CSV_POINT, _CSV_SLOT,
                              _CSV_UNIT, _CSV_X_ROW, _check_run, _csv_rows, _csv_text, _digits,
                              _write_csv)
from proxdyn.problems import _CATALOG
from oracles import derive_params_scalar, rk4_reference, rk4_step, savetxt_csv

_SETTINGS = dict(deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])

_ENSEMBLE_PROBLEMS = {
    "lasso": make_problem("lasso", M=[[1.0, 0.5, 0.0], [0.2, -1.0, 0.3]], y=[0.5, -0.2], mu=0.3),
    "box_quad": make_problem("box_quad", Q=[[2.0, 0.5], [0.5, 1.0]], b=[1.0, -0.5],
                             lower=-0.3, upper=0.4),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=25, **_SETTINGS)
@given(
    name=st.sampled_from(sorted(_ENSEMBLE_PROBLEMS)),
    pairs=st.lists(st.tuples(st.floats(0.3, 1.6), st.floats(5e-4, 0.02)), min_size=1, max_size=5),
    sample_every=st.sampled_from([1, 3, 7]),
    start=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
)
def test_ensemble_rows_equal_integrate(name, pairs, sample_every, start):
    obj = _ENSEMBLE_PROBLEMS[name]
    params_seq = [derive_params(g, lam, obj.g.beta) for g, lam in pairs]
    params_seq = [p for p in params_seq if p.rho_feasible]
    assume(params_seq)
    u0, v0 = start[: obj.dim], start[3 : 3 + obj.dim]
    h = 0.05  # below every 1/L1 these ranges give; 50 steps
    ensemble = list(integrate_ensemble(obj, params_seq, u0, v0, 50 * h, h, sample_every))
    assert len(ensemble) == len(params_seq)
    for params, got in zip(params_seq, ensemble):
        want = integrate(obj, params, u0, v0, 50 * h, h, sample_every)
        assert got.params == want.params and got.step == want.step
        for field in ("times", "xs", "vs", "accs"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field
            assert getattr(got, field).flags.c_contiguous


def _reference_runs(obj, params_seq, u0, v0, t_end, h, sample_every, stack):
    """What the reference loop gives each parameter set: (xs, vs, accs) or its abort.

    With ``stack`` the sets step together as one (B, dim) state, as in
    ``integrate_ensemble``; without it each set steps alone, as in ``integrate``.
    """
    u, v, n_steps, sample_every, n_samples = _check_run(obj, params_seq, u0, v0, t_end, h, sample_every)
    groups = [params_seq] if stack else [[params] for params in params_seq]
    runs = []
    for group in groups:
        b = len(group)
        xs, vs, accs = (np.empty((b, n_samples, obj.dim)) for _ in range(3))
        gamma = np.array([[params.gamma] for params in group])
        lam = np.array([[params.lam] for params in group])
        if stack:
            args = (gamma, lam, np.tile(u, (b, 1)), np.tile(v, (b, 1)))
        else:
            args = (group[0].gamma, group[0].lam, u, v)
        try:
            aborted = rk4_reference(obj, *args, h, n_steps, sample_every, xs, vs, accs)
        except IntegrationAborted as exc:
            aborted = {0: exc}
        runs += [aborted.get(row, (xs[row], vs[row], accs[row])) for row in range(b)]
    return runs


def _assert_reference_bits(got, want):
    """``got``, a Trajectory or IntegrationAborted, has the bits of the reference run ``want``."""
    if isinstance(want, IntegrationAborted):
        assert isinstance(got, IntegrationAborted)
        assert (got.t, got.step_index) == (want.t, want.step_index)
        return
    for field, ref in zip(("xs", "vs", "accs"), want):
        assert _same_bits(getattr(got, field), ref), field
        assert getattr(got, field).flags.c_contiguous


def _run_both(obj, params_seq, u0, v0, t_end, h, sample_every):
    """Each set's integrate result or abort, and the ensemble's entries."""
    single = []
    for params in params_seq:
        try:
            single.append(integrate(obj, params, u0, v0, t_end, h, sample_every))
        except IntegrationAborted as exc:
            single.append(exc)
    return single, list(integrate_ensemble(obj, params_seq, u0, v0, t_end, h, sample_every))


@settings(max_examples=40, **_SETTINGS)
@given(
    name=st.sampled_from(sorted(_CATALOG)),
    dim=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    pairs=st.lists(st.tuples(st.floats(0.3, 1.6), st.floats(1e-3, 0.5)), min_size=1, max_size=4),
    sample_every=st.sampled_from([1, 3]),
)
def test_integrators_equal_the_reference_loop(name, dim, seed, pairs, sample_every):
    rng = np.random.default_rng(seed)
    obj = _build(name, rng, dim)
    params_seq = [derive_params(g, lam, obj.g.beta) for g, lam in pairs]
    h = 0.9 / max(params.L1 for params in params_seq)
    u0, v0 = rng.standard_normal(dim), rng.standard_normal(dim)
    single, ensemble = _run_both(obj, params_seq, u0, v0, 12 * h, h, sample_every)
    for got, want in zip(single, _reference_runs(obj, params_seq, u0, v0, 12 * h, h, sample_every, False)):
        _assert_reference_bits(got, want)
    for got, want in zip(ensemble, _reference_runs(obj, params_seq, u0, v0, 12 * h, h, sample_every, True)):
        _assert_reference_bits(got, want)


@pytest.mark.parametrize("sample_every", [1, 3])
def test_overflowing_ensemble_row_equals_the_reference_loop(sample_every):
    # beta = 0 lets h = 0.4 past the guard; at lambda 0.01 the stiff first
    # coordinate overflows about halfway through the 100 steps
    obj = make_problem("zero_quad", Q=np.diag([2e6, 1.0, 0.5]), b=[0.0, 0.3, -0.2])
    params_seq = [derive_params(g, lam, 0.0) for g, lam in ((1.0, 1e-9), (1.0, 0.01), (0.5, 1e-8))]
    u0, v0 = [1.0, 0.5, -0.5], [0.0, 0.1, 0.2]
    with np.errstate(over="ignore", invalid="ignore"):
        single, ensemble = _run_both(obj, params_seq, u0, v0, 40.0, 0.4, sample_every)
        reference = _reference_runs(obj, params_seq, u0, v0, 40.0, 0.4, sample_every, True)
    assert [type(entry) for entry in ensemble] == [Trajectory, IntegrationAborted, Trajectory]
    assert 0 < ensemble[1].step_index < 100
    for entries in (single, ensemble):
        for got, want in zip(entries, reference):
            _assert_reference_bits(got, want)


# zero_quads (Q, u0, v0, beta, lambdas, h) stepped at three lambdas for 300 steps.  In the stiff
# ones beta = 0 lets h = 0.4 past the guard, and the first set's state first fails holding the
# keyed non-finite values; the others stay finite, near the largest double or subnormal.
_EDGE_RUNS = {
    "+inf": ([[2e6]], [1.0], [0.0], 0.0, (0.01, 1e-3, 1e-4), 0.4),
    "-inf": ([[2e6]], [-1.0], [0.0], 0.0, (0.01, 1e-3, 1e-4), 0.4),
    "-inf nan": ([[2e6]], [1.0], [0.0], 0.0, (1e-3, 0.01, 1e-4), 0.4),
    "near 1e308": ([[1.0]], [1.7e308], [0.0], 1.0, (0.01, 0.02, 0.05), 0.01),
    "subnormal": ([[1.0]], [5e-324], [-5e-324], 1.0, (0.01, 0.02, 0.05), 0.01),
}


def _non_finite(a):
    """The kinds of non-finite value in ``a``, as a space-separated sorted string."""
    kinds = {"+inf": np.isposinf(a).any(), "-inf": np.isneginf(a).any(), "nan": np.isnan(a).any()}
    return " ".join(sorted(kind for kind, found in kinds.items() if found))


def _state_at_abort(obj, params, u0, v0, t_end, h, sample_every):
    """The state (u, v), stacked, at which the reference loop's lone run of ``params`` aborts.

    The loop records its samples up to the abort, and the state is the
    last of them stepped on to the abort's step.
    """
    u, v, n_steps, sample_every, n_samples = _check_run(obj, [params], u0, v0, t_end, h, sample_every)
    xs, vs, accs = (np.empty((1, n_samples, obj.dim)) for _ in range(3))
    with pytest.raises(IntegrationAborted) as abort:
        rk4_reference(obj, params.gamma, params.lam, u, v, h, n_steps, sample_every, xs, vs, accs)
    last = abort.value.step_index // sample_every - 1
    u, v, acc = xs[0, last], vs[0, last], accs[0, last]
    for _ in range(sample_every):
        u, v, acc = rk4_step(obj, params.gamma, params.lam, u, v, acc, h)
    return np.concatenate([u, v])


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("case", sorted(_EDGE_RUNS))
def test_runs_abort_where_the_reference_loop_does(case, sample_every):
    # the state's finiteness test must tell +inf, -inf and nan from every finite value, however
    # large or small, in a lone state and in every row of a stack
    Q, u0, v0, beta, lams, h = _EDGE_RUNS[case]
    obj = make_problem("zero_quad", Q=Q, b=[0.0])
    params_seq = [derive_params(1.0, lam, beta) for lam in lams]
    with np.errstate(over="ignore", invalid="ignore"):
        single, ensemble = _run_both(obj, params_seq, u0, v0, 300 * h, h, sample_every)
        for stack, entries in ((False, single), (True, ensemble)):
            reference = _reference_runs(obj, params_seq, u0, v0, 300 * h, h, sample_every, stack)
            for got, want in zip(entries, reference):
                _assert_reference_bits(got, want)
        if isinstance(single[0], IntegrationAborted):
            state = _state_at_abort(obj, params_seq[0], u0, v0, 300 * h, h, sample_every)
            assert _non_finite(state) == case
            return
    assert all(isinstance(entry, Trajectory) for entry in single + ensemble)
    xs = np.array([entry.xs for entry in single])
    if case == "near 1e308":
        assert (np.abs(xs) > 1e308).all()
    else:
        assert ((xs != 0.0) & (np.abs(xs) < np.finfo(float).tiny)).all()


def _build(name, rng, dim):
    """A catalog problem of the given dimension with random data."""
    a = rng.standard_normal((dim, dim))
    q = a @ a.T
    if name == "zero_quad":
        return make_problem(name, Q=q, b=rng.standard_normal(dim))
    if name == "lasso":
        return make_problem(name, M=rng.standard_normal((dim + 2, dim)),
                            y=rng.standard_normal(dim + 2), mu=0.2)
    if name == "box_quad":
        return make_problem(name, Q=q, b=rng.standard_normal(dim), lower=-0.7, upper=0.7)
    return make_problem(name, dim=dim, mu=0.1)


@st.composite
def _stacks(draw):
    rows = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 10))
    pts = draw(hnp.arrays(np.float64, (rows, dim), elements=st.floats(-10.0, 10.0)))
    lams = draw(hnp.arrays(np.float64, (rows, 1), elements=st.floats(1e-3, 2.0)))
    return pts, lams


@settings(max_examples=60, **_SETTINGS)
@given(
    name=st.sampled_from(sorted(_CATALOG)),
    stack=_stacks(),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
def test_batched_oracles_equal_single_calls(name, stack, seed, fortran):
    pts, lams = stack
    obj = _build(name, np.random.default_rng(seed), pts.shape[1])
    if fortran:
        pts = np.asfortranarray(pts)
    batched = {
        "g.eval": obj.g.eval(pts),
        "g.grad": obj.g.grad(pts),
        "f.eval": obj.f.eval(pts),
        "f.prox": obj.f.prox(lams, pts),
        "prox_grad_map": prox_grad_map(obj, lams, pts),
    }
    for i, (x, lam) in enumerate(zip(pts, lams[:, 0])):
        x = x.copy()
        single = {
            "g.eval": obj.g.eval(x),
            "g.grad": obj.g.grad(x),
            "f.eval": obj.f.eval(x),
            "f.prox": obj.f.prox(float(lam), x),
            "prox_grad_map": prox_grad_map(obj, float(lam), x),
        }
        for oracle, value in single.items():
            assert _same_bits(batched[oracle][i], value), (name, oracle, i)


# Memory layouts of a stack of rows.  numpy sums a C-ordered row pairwise but
# a Fortran-ordered stack one column at a time, which rounds differently from
# 8 coordinates on, so the stacks below reach well past that.
_LAYOUTS = {
    "C": np.ascontiguousarray,
    "Fortran": lambda a: a.T.copy().T,  # a transposed copy
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
}


def _trajectory(xs, vs, accs):
    return Trajectory(times=0.1 * np.arange(len(xs)), xs=xs, vs=vs, accs=accs, params=None, step=0.1)


@settings(max_examples=40, **_SETTINGS)
@given(
    name=st.sampled_from(sorted(_CATALOG)),
    rows=st.integers(1, 6),
    dim=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(sorted(_LAYOUTS)),
    a=st.floats(0.0, 2.0),
)
def test_energy_and_bounds_of_a_stack_equal_single_calls(name, rows, dim, seed, layout, a):
    rng = np.random.default_rng(seed)
    obj = _build(name, rng, dim)
    params = derive_params(1.0, 0.05, obj.g.beta)
    x, v, acc = (_LAYOUTS[layout](rng.standard_normal((rows, dim))) for _ in range(3))
    batched = {
        "energy": monitor(obj, params, _trajectory(x, v, acc)).energy,
        "h_value": h_value(obj, params, x, v, acc),
        "w_bound": w_bound(params, v, acc, a),
        "subgradient_witness": subgradient_witness(obj, params, _trajectory(x, v, acc), a),
    }
    for i in range(rows):
        xi, vi, ai = x[i].copy(), v[i].copy(), acc[i].copy()
        single = {
            "energy": monitor(obj, params, _trajectory(xi[None], vi[None], ai[None])).energy[0],
            "h_value": h_value(obj, params, xi, vi, ai),
            "w_bound": w_bound(params, vi, ai, a),
            "subgradient_witness": subgradient_witness(obj, params, _trajectory(xi, vi, ai), a),
        }
        for quantity, value in single.items():
            assert _same_bits(batched[quantity][i], value), (name, layout, quantity, i)


def _same_fields(a, b):
    """Whether two reports hold the same values, every float bit for bit."""
    if isinstance(a, RateReport):  # repr tells every two doubles apart
        return repr(a.to_dict()) == repr(b.to_dict())
    return all(_same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@settings(max_examples=15, **_SETTINGS)
@given(name=st.sampled_from(sorted(_CATALOG)), dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_a_fortran_ordered_trajectory_gives_the_bits_of_a_c_ordered_one(name, dim, seed):
    rng = np.random.default_rng(seed)
    obj = _build(name, rng, dim)
    params = derive_params(1.0, 0.05, obj.g.beta)
    h = 0.9 / params.L1
    traj = integrate(obj, params, rng.standard_normal(dim), rng.standard_normal(dim), 40 * h, h)
    fortran = replace(traj, **{key: np.asfortranarray(getattr(traj, key)) for key in ("xs", "vs", "accs")})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # sigma of a short run is truncated
        for check in (lambda t: monitor(obj, params, t), lambda t: third_derivative_check(t, params),
                      sigma_estimate, classify_rate):
            assert _same_fields(check(fortran), check(traj)), (name, check)


# f of each problem _build makes, plus cos_quad without its l1 term: (kind, mu or box)
_PROX_F = {
    "zero_quad": ("zero", None),
    "lasso": ("l1", 0.2),
    "box_quad": ("box", (-0.7, 0.7)),
    "cos_quad": ("l1", 0.1),
    "cos_quad_mu0": ("zero", None),
}


def _in_subdifferential(kind, data, p, w, x, lam):
    """Whether w lies in the subdifferential of f at p, up to the rounding of w = (x - p)/lam."""
    if kind == "zero":
        return np.all(w == 0.0)
    if kind == "box":
        lower, upper = data
        inside = (p > lower) & (p < upper)
        return np.all(np.where(inside, w == 0.0, np.where(p == lower, w <= 0.0, (p == upper) & (w >= 0.0))))
    mu = data  # l1: w = mu*sign(p) where p != 0, |w| <= mu where p = 0
    tol = 4.0 * np.finfo(float).eps * (mu + np.abs(x) / lam)
    return np.all(np.where(p != 0.0, np.abs(w - mu * np.sign(p)) <= tol, np.abs(w) <= mu + tol))


def test_prox_cases_cover_the_catalog():
    assert {name for name in _PROX_F if name in _CATALOG} == set(_CATALOG)


@settings(max_examples=60, **_SETTINGS)
@given(
    name=st.sampled_from(sorted(_PROX_F)),
    stack=_stacks(),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
def test_prox_residual_is_a_subgradient(name, stack, seed, fortran):
    pts, lams = stack
    if name == "cos_quad_mu0":
        obj = make_problem("cos_quad", dim=pts.shape[1])
    else:
        obj = _build(name, np.random.default_rng(seed), pts.shape[1])
    if fortran:
        pts = np.asfortranarray(pts)
    prox = obj.f.prox(lams, pts)
    kind, data = _PROX_F[name]
    w = (pts - prox) / lams
    assert _in_subdifferential(kind, data, prox, w, pts, lams), (name, pts, lams, prox)


def test_every_catalog_entry_has_a_builder():
    rng = np.random.default_rng(0)
    for name in _CATALOG:
        assert _build(name, rng, 2).name == name


def _exact_integers(a):
    """Python integers n and a shift k with a == n / 2**k exactly."""
    ratios = [x.as_integer_ratio() for x in np.asarray(a, dtype=float).ravel().tolist()]
    k = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (k - den.bit_length() + 1) for num, den in ratios]
    return np.array(ints, dtype=object).reshape(np.shape(a)), k


def _beta_bounds_rayleigh_quotient(beta, hessian_times, v):
    """beta >= v^T H v / v^T v, both sides exact; hessian_times(n, k) gives (v^T H v as integer, shift)."""
    n, k = _exact_integers(v)
    num, shift = hessian_times(n, k)
    # v^T H v / v^T v = (num / 2**shift) / (v.v / 2**(2k))
    b_num, b_den = float(beta).as_integer_ratio()
    return b_num * 2**shift * int(n @ n) >= int(num) * 2 ** (2 * k) * b_den


def _gap_matrix(n, gap, seed):
    """A random PSD matrix whose two top eigenvalues are ``gap`` apart."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.sort(rng.uniform(0.0, 1.0, n))
    if n > 1:
        eig[-1] = eig[-2] + gap
    q = (basis * eig) @ basis.T
    return 0.5 * (q + q.T)


@st.composite
def _psd_matrices(draw):
    n = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.standard_normal((n, draw(st.integers(1, n + 1))))
        q = a @ a.T
    else:
        q = _gap_matrix(n, draw(st.sampled_from([1e-4, 1e-8, 0.0])), int(rng.integers(2**32)))
    return q * draw(st.floats(1e-3, 1e3))


@settings(max_examples=40, **_SETTINGS)
@given(q=_psd_matrices(), seed=st.integers(0, 2**32 - 1))
@example(q=_gap_matrix(50, 1e-4, 0), seed=0)
def test_beta_bounds_the_top_eigenvalue_of_q(q, seed):
    assume(np.linalg.eigvalsh(q).min() >= -1e-10)
    beta = make_problem("zero_quad", Q=q).g.beta
    top = float(np.linalg.eigvalsh(q).max())
    assert beta - top <= 1e-12 * max(1.0, top)
    nq, kq = _exact_integers(q)

    def quadratic_form(n, k):
        return n @ nq @ n, 2 * k + kq

    eigvec = np.linalg.eigh(q)[1][:, -1]
    for v in (eigvec, np.random.default_rng(seed).standard_normal(len(q))):
        assert _beta_bounds_rayleigh_quotient(beta, quadratic_form, v)


@settings(max_examples=30, **_SETTINGS)
@given(rows=st.integers(1, 30), cols=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_beta_bounds_the_top_eigenvalue_of_lasso_gram(rows, cols, seed, scale):
    rng = np.random.default_rng(seed)
    m = scale * rng.standard_normal((rows, cols))
    beta = make_problem("lasso", M=m, y=np.zeros(rows), mu=0.1).g.beta
    top = float(np.linalg.eigvalsh(m.T @ m).max())
    assert beta - top <= 1e-12 * max(1.0, top)
    nm, km = _exact_integers(m)

    def gram_form(n, k):  # v^T M^T M v = ||M v||^2
        mv = nm @ n
        return mv @ mv, 2 * (k + km)

    eigvec = np.linalg.eigh(m.T @ m)[1][:, -1]
    for v in (eigvec, rng.standard_normal(cols)):
        assert _beta_bounds_rayleigh_quotient(beta, gram_form, v)


@settings(max_examples=30, **_SETTINGS)
@given(rows=st.integers(1, 30), cols=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
@example(rows=4, cols=20, seed=0, scale=1.0)  # wide: a singular Gram matrix
@example(rows=12, cols=12, seed=1, scale=1e-3)
@example(rows=30, cols=5, seed=2, scale=1e3)
def test_lasso_gradient_is_within_its_forward_error_bound(rows, cols, seed, scale):
    # The gradient is fl(fl(x Ĝ) - b̂) with Ĝ = fl(MᵀM) and b̂ = fl(Mᵀy), against the
    # exact r = MᵀMx - Mᵀy.  With u = 2**-53 and γ_k = ku / (1 - ku), a dot product
    # of length k in any order is within γ_k of its exact value, times the same sum
    # over absolute values, so elementwise:
    #   |Ĝ - MᵀM| <= γ_m |M|ᵀ|M|,   |b̂ - Mᵀy| <= γ_m |M|ᵀ|y|,
    #   |fl(x Ĝ) - Ĝᵀx| <= γ_n |Ĝ|ᵀ|x|,
    # and Ĝᵀx - MᵀMx = (Ĝ - MᵀM)ᵀx is within γ_m |M|ᵀ|M||x|.  The subtraction adds one
    # rounding, at most u times the computed result.  Summing the four terms:
    #   |computed - r| <= γ_m |M|ᵀ|M||x| + γ_m |M|ᵀ|y| + γ_n |Ĝ|ᵀ|x| + u |computed|.
    # Both sides are evaluated exactly, in integers and fractions.
    rng = np.random.default_rng(seed)
    m = scale * rng.standard_normal((rows, cols))
    y = scale * rng.standard_normal(rows)
    x = rng.standard_normal(cols)
    got = make_problem("lasso", M=m, y=y, mu=0.1).g.grad(x)
    nm, km = _exact_integers(m)
    nx, kx = _exact_integers(x)
    ny, ky = _exact_integers(y)
    ng, kg = _exact_integers(np.abs(m.T @ m))  # |Ĝ|, formed as the problem forms it
    am, ax, ay = abs(nm), abs(nx), abs(ny)
    exact_gx, exact_b = nm.T @ (nm @ nx), nm.T @ ny
    abs_gx, abs_b, abs_ghat_x = am.T @ (am @ ax), am.T @ ay, ng.T @ ax
    u = Fraction(1, 2**53)

    def gamma(k):
        return k * u / (1 - k * u)

    for j in range(cols):
        exact = Fraction(exact_gx[j], 2 ** (2 * km + kx)) - Fraction(exact_b[j], 2 ** (km + ky))
        bound = (gamma(rows) * Fraction(abs_gx[j], 2 ** (2 * km + kx))
                 + gamma(rows) * Fraction(abs_b[j], 2 ** (km + ky))
                 + gamma(cols) * Fraction(abs_ghat_x[j], 2 ** (kg + kx))
                 + u * abs(Fraction(got[j])))
        assert abs(Fraction(got[j]) - exact) <= bound, (j, float(got[j]), float(exact), float(bound))


_LAMBDA = st.floats(1e-4, 10.0)
_LAMBDA_BETA = st.floats(0.0, 0.2)  # feasibility needs lam*beta small


@settings(max_examples=200, **_SETTINGS)
@given(gamma=st.floats(1e-3, math.sqrt(3.0)), lam=_LAMBDA, lam_beta=_LAMBDA_BETA)
def test_corollary_feasible_implies_rho_feasible(gamma, lam, lam_beta):
    params = derive_params(gamma, lam, lam_beta / lam)
    assume(params.corollary_feasible)
    assert params.rho_feasible


@settings(max_examples=200, **_SETTINGS)
@given(gamma=st.floats(1e-3, 3.0), lam=_LAMBDA, lam_beta=_LAMBDA_BETA)
def test_rho_feasible_implies_negative_envelope(gamma, lam, lam_beta):
    params = derive_params(gamma, lam, lam_beta / lam)
    assume(params.rho_feasible)
    assert params.m < 0.0 and params.r0 >= 0.0


def _same_value(a, b):
    """Equal Python scalars of one type, floats bit for bit (any nan equals any nan)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


@st.composite
def _points(draw):
    """(gamma, lam, beta) over several decades each; lam*beta is small half the time."""
    gamma = draw(st.floats(1e-4, 1e2))
    lam = draw(st.floats(1e-5, 1e2))
    if draw(st.booleans()):
        return gamma, lam, draw(st.floats(0.0, 0.3)) / lam
    return gamma, lam, draw(st.floats(0.0, 1e2))


@settings(max_examples=100, **_SETTINGS)
@given(points=st.lists(_points(), min_size=1, max_size=20))
@example(points=[(1.0, 0.005, 3.0), (2.0, 0.1, 3.0), (math.sqrt(3.0), 1.0, 0.0)])
def test_array_derive_params_equals_scalar_formulas(points):
    gamma, lam, beta = (np.array(column) for column in zip(*points))
    derived = derive_params(gamma, lam, beta)
    assert all(getattr(derived, f.name).shape == (len(points),) for f in fields(derived))
    for i, point in enumerate(points):
        got = derived.at(i)
        oracle = derive_params_scalar(*point)
        alone = derive_params(*point)
        for f in fields(got):
            assert _same_value(getattr(got, f.name), oracle[f.name]), (point, f.name)
            assert _same_value(getattr(got, f.name), getattr(alone, f.name)), (point, f.name)
        assert math.isnan(got.m) == math.isnan(got.r0) == (not got.rho_feasible), point


_BAD = st.sampled_from([0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf])


@settings(max_examples=100, **_SETTINGS)
@given(points=st.lists(_points(), min_size=1, max_size=8), data=st.data())
def test_array_input_is_rejected_like_the_first_bad_scalar_call(points, data):
    points = [list(point) for point in points]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(points) - 1))
        which = data.draw(st.integers(0, 2))
        bad = data.draw(_BAD)
        assume(not (which == 2 and bad == 0.0))  # beta = 0 is allowed
        points[i][which] = bad
    expected = None
    for point in points:
        try:
            derive_params(*point)
        except ValueError as exc:
            expected = str(exc)
            break
    assume(expected is not None)
    gamma, lam, beta = (np.array(column) for column in zip(*points))
    with pytest.raises(ValueError) as info:
        derive_params(gamma, lam, beta)
    assert str(info.value) == expected


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
_VALUES = st.one_of(st.floats(allow_nan=False), st.sampled_from(_SPECIAL))


def _columns(count):
    return st.integers(1, 12).flatmap(
        lambda rows: hnp.arrays(np.float64, (rows, count), elements=_VALUES))


@settings(max_examples=40, **_SETTINGS)
@given(dim=st.integers(1, 3), data=st.data())
def test_trajectory_csv_round_trip_is_bitwise(tmp_path_factory, dim, data):
    table = data.draw(_columns(1 + 3 * dim))
    times = data.draw(hnp.arrays(np.float64, len(table), elements=st.floats(-1e300, 1e300)))
    traj = Trajectory(times=times, xs=table[:, 1 : 1 + dim], vs=table[:, 1 + dim : 1 + 2 * dim],
                      accs=table[:, 1 + 2 * dim :], params=None, step=0.1)
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    for field in ("times", "xs", "vs", "accs"):
        assert _same_bits(getattr(back, field), np.ascontiguousarray(getattr(traj, field))), field


@settings(max_examples=40, **_SETTINGS)
@given(table=_columns(7))
def test_energy_csv_round_trip_is_bitwise(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("energy") / "energy.csv"
    write_energy_csv(EnergyTrace(*table.T), path)
    assert _same_bits(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), table)


@settings(max_examples=40, **_SETTINGS)
@given(dim=st.integers(1, 3), data=st.data())
def test_history_csv_round_trip_is_bitwise(tmp_path_factory, dim, data):
    table = data.draw(_columns(dim + 2))
    table[0, dim] = math.nan  # the k = 0 row has no residual
    hist = IterateHistory(xs=table[:, :dim], residuals=table[1:, dim], objective_values=table[:, -1],
                          converged=False, iterations=len(table) - 1)
    path = tmp_path_factory.mktemp("history") / "history.csv"
    write_history_csv(hist, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert _same_bits(back[:, 0], np.arange(len(table), dtype=float))
    assert _same_bits(back[:, 1:], table)


_CSV_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]

# The int_columns of the two tests below hold nonnegative integers, as the k
# column of history.csv and the flags of sweep.csv do.  savetxt writes them
# with %d, and _write_csv, with its one format, must write the same bytes.

@pytest.mark.parametrize(
    "shape, int_columns",
    [
        ((0, 3), ()),
        ((9, 1), ()),
        ((4097, 1), ()),  # more one-value rows than a chunk holds: the last row starts a new chunk
        ((2 * 1365 + 1, 3), ()),  # several chunks of three-value rows
        ((3000, 6), (4, 5)),  # two 0/1 flag columns, as in sweep.csv
        ((501, 1201), ()),  # the width of a dim-400 trajectory
    ],
)
def test_write_csv_is_byte_for_byte_savetxt(tmp_path, shape, int_columns):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = rng.random(shape) < 0.05
    table[special] = rng.choice(_CSV_SPECIAL, int(special.sum()))
    n = min(shape[1], len(_CSV_SPECIAL))
    if len(table):
        table[0, :n] = _CSV_SPECIAL[:n]
    for column in int_columns:
        table[:, column] = rng.integers(0, 2, shape[0])
    header = ["c%d" % i for i in range(shape[1])]
    _write_csv(tmp_path / "written.csv", header, table)
    savetxt_csv(tmp_path / "savetxt.csv", header, table, int_columns)
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def _tie_values(rng, n):
    """Doubles whose exact decimal expansion has 18 significant digits, the last a 5.

    m / 2**j with m odd has the digits of m * 5**j, which end in 5; m is
    drawn so that they number 18.  ``%.17g`` rounds each half to even.
    """
    values = []
    for j in rng.integers(2, 26, n).tolist():
        m = int(rng.integers(-(-10**17 // 5**j), min(10**18 // 5**j, 2**53))) | 1
        assert len(str(m * 5**j)) == 18
        values.append(m / 2**j)
    return np.array(values)


def _writer_values(rng):
    """Values around every power of ten of the double range, the subnormal edges and the largest double."""
    powers = 10.0 ** np.arange(-323, 309)  # 10**-324 rounds to 0
    near_powers = (powers[:, None] + np.arange(-200, 201) * np.spacing(powers)[:, None]).ravel()
    tiny, huge = 2.0**-1022, np.finfo(np.float64).max
    edges = np.concatenate([np.arange(1, 201) * 5e-324, tiny + np.arange(-200, 201) * 5e-324,
                            huge - np.arange(201) * 2.0**971])  # 2**971: the spacing below huge
    bit_patterns = rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)
    log_uniform = np.exp(rng.uniform(math.log(1e-7), math.log(1e18), 4000))
    values = np.concatenate([near_powers, edges, _tie_values(rng, 2000), log_uniform])
    values *= rng.choice([-1.0, 1.0], len(values))
    specials = np.repeat([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324], 50)
    values = np.concatenate([values, bit_patterns, specials])
    rng.shuffle(values)
    return values


@pytest.mark.parametrize(
    "n_columns, int_columns",
    [
        (1, ()),  # about 264 000 rows, so the table spans many chunks
        (3, (1,)),
        (7, (0, 5)),
        (1201, ()),  # the width of a dim-400 trajectory
    ],
)
def test_write_csv_matches_savetxt_in_and_around_the_exact_range(tmp_path, n_columns, int_columns):
    rng = np.random.default_rng(n_columns)
    values = _writer_values(rng)
    rows = len(values) // n_columns
    assert rows * n_columns > _CSV_CHUNK_VALUES
    table = values[: rows * n_columns].reshape(rows, n_columns)
    for column in int_columns:
        table[:, column] = rng.choice([0.0, 1.0, 7.0, 42.0, 10000.0, 2.0**53], rows)
    header = ["c%d" % i for i in range(n_columns)]
    _write_csv(tmp_path / "written.csv", header, table)
    savetxt_csv(tmp_path / "savetxt.csv", header, table, int_columns)
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_write_csv_integer_tables_are_int64():
    # 10**16 does not fit in 32 bits: a table of numpy's default integer type
    # would wrap around silently where that type is int32
    exponents = range(-308, 309)
    assert [table.dtype for table in (_CSV_POINT, _CSV_UNIT, _CSV_MARK)] == [np.dtype(np.int64)] * 3
    assert _CSV_POINT.tolist() == [16 if -4 <= x < 0 else x if 0 <= x <= 16 else 0 for x in exponents]
    assert _CSV_UNIT.tolist() == [1 if -4 <= x < 0 else 10 ** (16 - x) if 0 <= x <= 16 else 10**16
                                  for x in exponents]
    assert _CSV_MARK.tolist() == [0 if -4 <= x < 0 else u for x, u in zip(exponents, _CSV_UNIT.tolist())]


def test_digit_kernel_sends_no_random_double_and_no_exact_row_tie_to_percent(tmp_path):
    # the kernel's digits against CPython's on normal doubles of every binade,
    # so of every decade; the mask it returns names the values written by %
    rng = np.random.default_rng(14)
    bits = rng.integers(1, 2047, 10**5, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2**52, 10**5, dtype=np.uint64)
    values = bits.view(np.float64)
    rows = _csv_rows(values)
    assert set(range(_CSV_X_ROW, _CSV_X_ROW + 617)) == set(rows.tolist())
    q, to_format = _digits(values, rows - _CSV_X_ROW)
    assert not to_format.any()
    assert q.tolist() == [int(s[0] + s[2:18]) for s in ("%.16e" % v for v in values.tolist())]
    # a tie rounds to even exactly where lo is 0; elsewhere the kernel cannot
    # tell a tie from a near-tie and leaves it to %
    ties = np.abs(_tie_values(rng, 2000))
    rows = _csv_rows(ties)
    q, to_format = _digits(ties, rows - _CSV_X_ROW)
    exact = _CSV_LO[rows - _CSV_X_ROW] == 0
    assert exact.any() and not exact.all()
    assert to_format.tolist() == (~exact).tolist()
    assert q[exact].tolist() == [int(s[0] + s[2:18]) for s in ("%.16e" % v for v in ties[exact].tolist())]
    # a chunk whose every value gets digits, some of them from %: ties, and
    # doubles just below 1e-14 and 1e98 whose digits carry into the next decade
    table = np.array([np.concatenate((ties[~exact][:5], [1e-14, 1e98, 1.5]))])
    rows = _csv_rows(table[0])
    assert _digits(table[0], rows - _CSV_X_ROW)[1].tolist() == [True] * 7 + [False]
    _write_csv(tmp_path / "written.csv", ["c"] * table.shape[1], table)
    savetxt_csv(tmp_path / "savetxt.csv", ["c"] * table.shape[1], table)
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_digit_kernel_raises_no_floating_point_exception_on_any_normal_double():
    # the 2**E scale keeps Veltkamp's split and TwoProduct's products in
    # range: unscaled, the split overflows for |x| near 1e300, and
    # 10**(16 - X) overflows for |x| below 1e-292
    rng = np.random.default_rng(15)
    binades = np.arange(-1022, 1024)
    values = np.concatenate((np.ldexp(rng.uniform(1.0, 2.0, len(binades)), binades),
                             np.ldexp(1.0, binades), [np.finfo(np.float64).max]))
    with np.errstate(all="raise"):
        rows = _csv_rows(values)
        q, to_format = _digits(values, rows - _CSV_X_ROW)
    # 2**-25 ends in a 5 at its 18th digit, a tie left to %
    assert values[to_format].tolist() == [2.0**-25]
    kept = values[~to_format].tolist()
    assert q[~to_format].tolist() == [int(s[0] + s[2:18]) for s in ("%.16e" % v for v in kept)]


@settings(max_examples=200, **_SETTINGS)
@given(
    table=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
                     elements=st.floats(allow_nan=True, allow_infinity=True)),
)
def test_write_csv_matches_savetxt_on_any_doubles(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv")
    header = ["c%d" % i for i in range(table.shape[1])]
    _write_csv(path / "written.csv", header, table)
    savetxt_csv(path / "savetxt.csv", header, table)
    assert (path / "written.csv").read_bytes() == (path / "savetxt.csv").read_bytes()


# A chunk whose values are all normal doubles that _digits rounds writes its
# digits through a slice; any other value (zero, a subnormal, nan, +-inf, a
# tie left to %) sends the chunk through the indices of its digit values.
_NEGATIVE_NAN = np.copysign(math.nan, -1.0)


def _normal_values(rng, n):
    """n normal doubles of either sign across the decades, none of which _digits leaves to %."""
    values = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(math.log(1e-300), math.log(1e300), n))
    rows = _csv_rows(np.abs(values))
    assert (rows >= _CSV_X_ROW).all() and not _digits(np.abs(values), rows - _CSV_X_ROW)[1].any()
    return values


def _odd_values(rng):
    """A zero, a subnormal, a nan with its sign bit set, +-inf, a tie that goes to % and -0."""
    ties = np.abs(_tie_values(rng, 200))
    tie = ties[_CSV_LO[_csv_rows(ties) - _CSV_X_ROW] != 0][0]
    return np.array([0.0, -5e-324, _NEGATIVE_NAN, math.inf, -math.inf, -tie, -0.0])


def _same_as_savetxt(path, table):
    header = ["c%d" % i for i in range(table.shape[1])]
    _write_csv(path / "written.csv", header, table)
    savetxt_csv(path / "savetxt.csv", header, table)
    return (path / "written.csv").read_bytes() == (path / "savetxt.csv").read_bytes()


@pytest.mark.parametrize("n_columns", [1, 7, 1201])
@pytest.mark.parametrize("odd", [False, True], ids=["slice", "index"])
def test_write_csv_routes_are_byte_for_byte_savetxt(tmp_path, n_columns, odd):
    rng = np.random.default_rng(27 + n_columns)
    rows = 3 * -(-_CSV_CHUNK_VALUES // n_columns) + 1  # three chunks and a row
    table = _normal_values(rng, rows * n_columns).reshape(rows, n_columns)
    if odd:  # the odd values every 300 values, so in every chunk
        flat = table.ravel()
        for at, value in zip(range(0, flat.size, 300), itertools.cycle(_odd_values(rng))):
            flat[at] = value
    assert _same_as_savetxt(tmp_path, table)


def test_write_csv_switches_route_at_chunk_boundaries(tmp_path):
    # chunks of 293 seven-value rows: slice, index (odd values), slice,
    # index (only a tie left to %), slice
    rng = np.random.default_rng(31)
    chunk_rows = -(-_CSV_CHUNK_VALUES // 7)
    table = _normal_values(rng, 5 * chunk_rows * 7).reshape(-1, 7)
    table[chunk_rows, :] = _odd_values(rng)
    table[2 * chunk_rows - 1, 3] = math.nan  # the last row of the chunk
    table[4 * chunk_rows - 1, 6] = _odd_values(rng)[5]
    assert _same_as_savetxt(tmp_path, table)


def test_csv_text_returns_bytes_and_writes_nan_and_infinities_without_percent():
    rng = np.random.default_rng(32)
    normal = _normal_values(rng, 8).reshape(2, 4)
    odd = np.array([[math.nan, _NEGATIVE_NAN, math.inf, -math.inf]])
    for chunk in (normal, odd, np.array([[5e-324, -5e-324]])):
        assert type(_csv_text(chunk)) is bytes
    assert _csv_text(odd) == b"nan,nan,inf,-inf\n"
    rows = _csv_rows(np.abs(odd[0]))
    assert rows.tolist() == [_CSV_NAN, _CSV_NAN, _CSV_NAN + 1, _CSV_NAN + 1]
    assert _CSV_SLOT not in rows.tolist()
