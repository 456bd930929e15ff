"""Session fixtures: canonical integration runs shared across test modules.

The feasibility conditions cap how fast a generic initialization can settle,
so each canonical run starts either on the fast decay manifold of its
linearization, at an exact equilibrium coordinate, or inside a prox-saturated
region; t_end = 100 at h = 1e-3 then reaches machine-level residuals for
everything except the cosine problem, whose slow mode gets a long run of its
own.  Building all runs takes 10-12 s on a shared 2-core machine (Python
3.11, numpy 2.4.6), most of the suite's time, so they are computed once per
session and treated as read-only.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized hypothesis profile, so the
property tests draw the same examples on every machine and a CI failure
reproduces locally.
"""

import dataclasses
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import proxdyn

try:
    from hypothesis import settings
except ImportError:  # hypothesis is a test extra; the other tests run without it
    settings = None
if settings is not None:
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# fast characteristic roots of r^2 + r + lam (zero_quad/lasso linearizations)
_FAST96 = (-1.0 - math.sqrt(0.96)) / 2.0
_FAST92 = (-1.0 - math.sqrt(0.92)) / 2.0

CANONICAL = {
    "zero_quad": dict(
        problem=("zero_quad", dict(Q=[[1.0]], b=[0.0])),
        gamma=1.0,
        lam=0.01,
        u0=[2.0],
        v0=[2.0 * _FAST96],
        t_end=100.0,
        h=1e-3,
    ),
    "lasso": dict(
        problem=("lasso", dict(M=[[1.0]], y=[1.0], mu=0.5)),
        gamma=1.0,
        lam=0.02,
        u0=[1.5],
        v0=[_FAST92],
        t_end=100.0,
        h=1e-3,
    ),
    "box_quad": dict(
        problem=(
            "box_quad",
            dict(Q=[[1.0, 0.0], [0.0, 1.0]], b=[2.0, 0.5], lower=-1.0, upper=1.0),
        ),
        gamma=1.0,
        lam=0.01,
        u0=[0.995, 0.5],
        v0=[0.0, 0.0],
        t_end=100.0,
        h=1e-3,
    ),
    "cos_quad": dict(
        problem=("cos_quad", dict(dim=1)),
        gamma=1.0,
        lam=0.005,
        u0=[1.9],
        v0=[0.0],
        t_end=100.0,
        h=1e-3,
    ),
    "cos_quad_long": dict(
        problem=("cos_quad", dict(dim=1)),
        gamma=1.0,
        lam=0.005,
        u0=[3.0],
        v0=[0.0],
        t_end=2200.0,
        h=0.05,
    ),
}


def _build(name):
    spec = CANONICAL[name]
    pname, kwargs = spec["problem"]
    obj = proxdyn.make_problem(pname, **kwargs)
    params = proxdyn.derive_params(spec["gamma"], spec["lam"], obj.g.beta)
    traj = proxdyn.integrate(
        obj,
        params,
        np.asarray(spec["u0"], dtype=float),
        np.asarray(spec["v0"], dtype=float),
        spec["t_end"],
        spec["h"],
        sample_every=1,
    )
    return SimpleNamespace(
        name=name,
        obj=obj,
        params=params,
        traj=traj,
        gamma=spec["gamma"],
        lam=spec["lam"],
        t_end=spec["t_end"],
        h=spec["h"],
    )


@pytest.fixture(scope="session")
def canonical_runs():
    return {name: _build(name) for name in CANONICAL}


@pytest.fixture(scope="session")
def spectral_run():
    """zero_quad run exciting both decay modes; slow spectral rate 0.2.

    With Q = [[1]], gamma = 1, lam = 0.16 the flow is x'' + x' + 0.16 x = 0,
    roots -0.2 and -0.8; from (x, x') = (2, 0) the slow mode carries weight
    8/3.  The parameters are infeasible for the energy certification, which
    the rate fit does not need.
    """
    obj = proxdyn.make_problem("zero_quad", Q=[[1.0]], b=[0.0])
    params = proxdyn.derive_params(1.0, 0.16, obj.g.beta)
    traj = proxdyn.integrate(
        obj, params, np.array([2.0]), np.array([0.0]), 80.0, 0.01, sample_every=1
    )
    return SimpleNamespace(obj=obj, params=params, traj=traj, slow_rate=0.2)


@pytest.fixture()
def count_grad():
    """Wrap an objective so that every call of its gradient and its prox is counted.

    ``count_grad(obj)`` returns the wrapped objective and the list that
    gets one entry per call, ``"grad"`` or ``"prox"``.
    """

    def wrap(obj):
        calls = []

        def grad(x):
            calls.append("grad")
            return obj.g.grad(x)

        def prox(lam, x):
            calls.append("prox")
            return obj.f.prox(lam, x)

        return dataclasses.replace(
            obj, g=dataclasses.replace(obj.g, grad=grad), f=dataclasses.replace(obj.f, prox=prox)
        ), calls

    return wrap
