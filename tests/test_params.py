"""Tests for derived constants and feasibility logic.

The worked example at (gamma, lambda, beta) = (1, 0.005, 3) is certified
against exact rational arithmetic, so these tests do not share rounding
with the implementation under test.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from proxdyn import derive_params, params_report
from proxdyn.params import _envelope


def test_lipschitz_known_values():
    # at lam*beta = 0 both constants are sqrt(max(9, 8)) = 3 at gamma = 2
    p = derive_params(2.0, 1.0, 0.0)
    assert p.L1 == 3.0 and p.L2 == 3.0
    # lam and beta enter only through their product: 0.5 * 0.2 is the double 0.1
    q, r = derive_params(2.0, 0.5, 0.2), derive_params(2.0, 1.0, 0.1)
    assert (q.L1, q.L2) == (r.L1, r.L2)
    # for gamma <= sqrt(3) the second branch of L2 dominates
    gammas = np.linspace(0.01, math.sqrt(3.0), 40)[:, None]
    lbs = np.linspace(0.0, 3.0, 40)
    two = 2.0 + lbs
    np.testing.assert_allclose(derive_params(gammas, 1.0, lbs).L2, np.sqrt(two * two + gammas * two),
                               rtol=1e-15, atol=0)


def test_lipschitz_monotone_in_both_arguments():
    gammas = np.linspace(0.2, 3.0, 15)
    lbs = np.linspace(0.0, 2.0, 15)
    p = derive_params(gammas[:, None], 1.0, lbs)
    for grid in (p.L1, p.L2):
        assert np.all(np.diff(grid, axis=0) >= -1e-14)
        assert np.all(np.diff(grid, axis=1) >= -1e-14)


def _exact_constants():
    """Rational-arithmetic evaluation of the worked example (1, 1/200, 3)."""
    gamma = Fraction(1)
    lam = Fraction(1, 200)
    beta = Fraction(3)
    lb = lam * beta
    l1sq = max((gamma + 1) ** 2, (gamma + 2) * ((1 + lb) ** 2 + 1))
    l2sq = max((gamma + 1) ** 2 + gamma * lb, (2 + lb) ** 2 + gamma * (2 + lb))
    lsq = min(l1sq, l2sq)
    a_val = -gamma / (2 * lam) + (beta / 2) * (lsq + 2 * gamma**2 + 1)
    b_val = -gamma / (2 * lam * lsq) + (beta / 2) * (lsq + gamma**2 + 1)
    c_val = -((2 * lsq + 1) / (lsq + 1) ** 2) * gamma**2 + 3 * beta * gamma * lam - 1
    c_small = lsq / (lsq + 1)
    s_val = beta + 1 / lam
    p_val = (beta * lam * gamma + (3 - 2 * c_small) * gamma - c_val) / lam
    return dict(
        lsq=lsq, A=a_val, B=b_val, C=c_val, c=c_small, s=s_val, p=p_val
    )


def test_derive_params_worked_example_exact():
    p = derive_params(1.0, 0.005, 3.0)
    exact = _exact_constants()
    assert abs(p.L * p.L - float(exact["lsq"])) <= 1e-12 * float(exact["lsq"])
    for name in ("A", "B", "C", "c", "s", "p"):
        got = getattr(p, name)
        want = float(exact[name])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name
    assert p.rho_feasible
    assert p.corollary_feasible


def test_inner_constants_product_identity():
    # a * b = gamma^2 (1-c)^2 / (4 lam^2) for any inputs
    rng = np.random.default_rng(11)
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 3.0))
        lam = float(10.0 ** rng.uniform(-4, 0))
        beta = float(rng.uniform(0.0, 5.0))
        p = derive_params(gamma, lam, beta)
        want = gamma**2 * (1.0 - p.c) ** 2 / (4.0 * lam**2)
        assert abs(p.a_const * p.b_const - want) <= 1e-12 * max(1.0, want)


def test_b_minus_a_identity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        gamma = float(rng.uniform(0.1, 3.0))
        lam = float(10.0 ** rng.uniform(-4, 0))
        beta = float(rng.uniform(0.0, 5.0))
        p = derive_params(gamma, lam, beta)
        lsq = p.L * p.L
        want = (gamma / (2.0 * lam)) * (1.0 - 1.0 / lsq - gamma * lam * beta)
        assert abs((p.B - p.A) - want) <= 1e-12 * max(1.0, abs(want))


def test_corollary_gamma_boundary():
    root3 = math.sqrt(3.0)
    assert derive_params(root3, 1.0, 0.0).corollary_feasible
    assert not derive_params(root3 + 1e-12, 1.0, 0.0).corollary_feasible
    assert derive_params(1.0, 1.0, 0.0).corollary_feasible
    assert derive_params(1.0, 0.005, 3.0).corollary_feasible
    for lam in (1e-4, 0.01, 1.0):
        for beta in (0.0, 1.0, 3.0):
            assert not derive_params(2.0, lam, beta).corollary_feasible


def test_grid_implications():
    gammas = np.linspace(0.1, 3.0, 20)
    lams = np.logspace(-4, 0, 20)
    for beta in (0.0, 1.0, 3.0):
        for gamma in gammas:
            for lam in lams:
                p = derive_params(float(gamma), float(lam), beta)
                if beta == 0.0:
                    assert p.rho_feasible
                if gamma * lam * beta <= 1.0 / 3.0:
                    assert p.C < 0.0
                if p.corollary_feasible:
                    assert p.rho_feasible


def test_envelope_hand_example():
    m, r0 = _envelope(-1.0, -1.0, 1.0, 1.0)
    assert r0 == 1.0
    assert m == -0.5
    r = np.arange(0.0, 10.0 + 1e-9, 1e-3)
    g = (-1.0 - r * r) / (1.0 + 2.0 * r + r * r)
    assert np.all(g <= m + 1e-12)


def test_envelope_guarantee_random_pairs():
    p = derive_params(1.0, 0.005, 3.0)
    assert p.rho_feasible
    m, r0 = p.m, p.r0
    assert m < 0.0
    assert r0 > 0.0
    rng = np.random.default_rng(77)
    v = np.abs(rng.standard_normal(10_000)) * 3.0
    w = np.abs(rng.standard_normal(10_000)) * 3.0
    lhs = p.A * v * v + p.B * w * w
    rhs = m * (p.s * w + p.p * v) * (v + w)
    assert np.all(lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs)))
    # m is the supremum of the generating quotient over r = w/v
    r = np.logspace(-3.0, 3.0, 2000)
    quot = (p.A + p.B * r * r) / (p.p + (p.s + p.p) * r + p.s * r * r)
    assert np.all(quot <= m + 1e-12 * abs(m))
    assert quot.max() >= m - 1e-6 * abs(m)


def test_envelope_discriminant_nonnegative_for_worked_example():
    p = derive_params(1.0, 0.005, 3.0)
    disc = (p.s * p.A - p.p * p.B) ** 2 + (p.s + p.p) ** 2 * p.A * p.B
    assert disc >= 0.0


def test_envelope_validation():
    # m and r0 are nan exactly where the point is infeasible, and negative and positive elsewhere
    infeasible = derive_params(2.0, 0.1, 3.0)
    assert not infeasible.rho_feasible
    assert math.isnan(infeasible.m) and math.isnan(infeasible.r0)
    grid = derive_params(np.linspace(0.1, 3.0, 30)[:, None], np.logspace(-4, 0, 30), 3.0)
    assert grid.rho_feasible.any() and not grid.rho_feasible.all()
    assert np.array_equal(np.isnan(grid.m), ~grid.rho_feasible)
    assert np.array_equal(np.isnan(grid.r0), ~grid.rho_feasible)
    assert np.all(grid.m[grid.rho_feasible] < 0.0) and np.all(grid.r0[grid.rho_feasible] > 0.0)


def test_params_report_keys_and_nulls():
    feasible = params_report(derive_params(1.0, 0.005, 3.0))
    assert list(feasible) == [
        "gamma", "lambda", "beta", "L1", "L2", "L", "A", "B", "C", "c",
        "a", "b", "s", "p", "m", "r0", "rho_feasible", "corollary_feasible",
    ]
    assert feasible["lambda"] == 0.005
    assert feasible["a"] == derive_params(1.0, 0.005, 3.0).a_const
    assert feasible["m"] < 0.0 and feasible["r0"] > 0.0
    round_trip = json.loads(json.dumps(feasible))
    assert round_trip["A"] == feasible["A"]
    infeasible = params_report(derive_params(2.0, 0.1, 3.0))
    assert infeasible["m"] is None and infeasible["r0"] is None
    assert infeasible["rho_feasible"] is False


def test_derive_params_validation():
    with pytest.raises(ValueError):
        derive_params(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        derive_params(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        derive_params(1.0, 0.1, -1.0)
    with pytest.raises(ValueError):
        derive_params(float("nan"), 0.1, 1.0)
    with pytest.raises(ValueError):
        derive_params(1.0, float("inf"), 1.0)
    # a bool or a string, alone or in a list, is rejected before it is made a float
    for args, message in [
        ((True, 0.02, 1), "gamma must be a positive finite real, got True"),
        ((1.0, "0.02", 1), "lambda must be a positive finite real, got '0.02'"),
        ((1.0, 0.02, [1.0, False]), "beta must be a nonnegative finite real, got False"),
        (([1.0, "1"], 0.02, 1), "gamma must be a positive finite real, got '1'"),
        ((1.0, np.array([0.1, True], dtype=object), 1), "lambda must be a positive finite real, got True"),
    ]:
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            derive_params(*args)


def test_array_validation_stops_where_a_scalar_loop_would():
    # points in order; within a point gamma, then lambda, then beta
    with pytest.raises(ValueError, match=r"^gamma must be a positive finite real, got 0\.0$"):
        derive_params(0.0, 0.0, -1.0)
    with pytest.raises(ValueError, match=r"^lambda must be a positive finite real, got 0\.0$"):
        derive_params([1.0, 0.0], [0.0, 1.0], 1.0)
    with pytest.raises(ValueError, match=r"^beta must be a nonnegative finite real, got -1\.0$"):
        derive_params([1.0, 1.0], [0.1, 0.1], [-1.0, math.nan])
    with pytest.raises(ValueError, match=r"^gamma must be a positive finite real, got nan$"):
        derive_params(np.array([[1.0, 1.0], [math.nan, 1.0]]), np.array([[1.0], [-1.0]]), 1.0)
