"""Property tests: stacked evaluation gives each row what a lone call gives.

The ensemble integrator steps many trajectories as one stack, with gamma
and lambda as per-row columns, and promises each row the bits of a separate
run.  That rests on every catalog oracle rounding a row of a stack exactly
like the same point alone, which the second property checks on random
stacks and steps.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from proxdyn import derive_params, integrate, integrate_ensemble, make_problem, prox_grad_map
from proxdyn.problems import _CATALOG

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


def test_every_catalog_entry_has_a_builder():
    rng = np.random.default_rng(0)
    for name in _CATALOG:
        assert _build(name, rng, 2).name == name
