"""Sweeps over the samples of a run go in row blocks of a fixed budget.

``monitor``, the row norms, the rate fit's distances, the subgradient
witness, the third-derivative check and the CSV writer take a stack of
samples a block of rows at a time (``problems._row_blocks``,
``dynamics._CSV_CHUNK_VALUES``), so their temporaries have the size of a
block, not of the trajectory.  Every value is computed per row, so the
bits do not depend on where the blocks are cut: the tests below shrink the
budget to a few rows and compare with the whole-array results.
"""

import math
import tracemalloc

import numpy as np
import pytest

from proxdyn import (Trajectory, classify_rate, derive_params, dynamics, integrate, make_problem,
                     monitor, problems, subgradient_witness, third_derivative_check)
from proxdyn.dynamics import _write_csv, write_trajectory_csv
from proxdyn.lyapunov import write_energy_csv
from proxdyn.problems import _row_blocks, _rownorm, _rowwise_sqnorm
from oracles import savetxt_csv

_TRACE_FIELDS = ("energy", "fg_shifted", "h_value", "w_bound", "residual", "dissipation")


def _rows_per_block(monkeypatch, rows, width):
    """Shrink the sweep budget to ``rows`` rows of ``width`` float64 values."""
    monkeypatch.setattr(problems, "_SWEEP_BYTES", rows * 8 * width)


def _wide_lasso(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    return make_problem("lasso", M=m / np.linalg.norm(m, 2), y=rng.standard_normal(dim), mu=0.1)


def test_sweeps_stay_below_one_sample_array_of_memory(tmp_path):
    # 2000 samples at dim 200 make 3.2 MB sample arrays; a sweep that copied
    # or squared one whole, or stacked the table, would pass that size
    n, dim = 2000, 200
    obj = _wide_lasso(dim, 26)
    params = derive_params(1.0, 0.01, obj.g.beta)
    rng = np.random.default_rng(26)
    decay = np.exp(-np.linspace(0.0, 20.0, n))[:, None]
    xs, vs, accs = (rng.standard_normal((n, dim)) * decay for _ in range(3))
    traj = Trajectory(times=np.linspace(0.0, 20.0, n), xs=xs, vs=vs, accs=accs, params=params,
                      step=0.01)
    trace = monitor(obj, params, traj)
    stages = {
        "monitor": lambda: monitor(obj, params, traj),
        "classify_rate": lambda: classify_rate(traj),
        "write_trajectory_csv": lambda: write_trajectory_csv(traj, tmp_path / "trajectory.csv"),
        "write_energy_csv": lambda: write_energy_csv(trace, tmp_path / "energy.csv"),
        "_rownorm": lambda: _rownorm(traj.vs),
        "subgradient_witness": lambda: subgradient_witness(obj, params, traj, 1.0 - params.c),
        "third_derivative_check": lambda: third_derivative_check(traj, params),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, stage in stages.items():
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stage()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert all(peak < xs.nbytes for peak in peaks.values()), (xs.nbytes, peaks)


def test_monitor_keeps_its_bits_across_row_blocks(monkeypatch):
    obj = _wide_lasso(5, 27)
    params = derive_params(1.0, 0.01, obj.g.beta)
    traj = integrate(obj, params, np.linspace(-2.0, 2.0, 5), np.zeros(5), 2.0, 0.01)
    whole = monitor(obj, params, traj)  # 201 samples of dim 5 are one block
    assert len(list(_row_blocks(traj.xs))) == 1
    _rows_per_block(monkeypatch, 3, 5)
    assert len(list(_row_blocks(traj.xs))) == 67
    blocked = monitor(obj, params, traj)
    for field in _TRACE_FIELDS:
        assert getattr(blocked, field).tobytes() == getattr(whole, field).tobytes(), field


def test_witness_and_third_derivative_check_keep_their_bits_across_row_blocks(monkeypatch):
    obj = _wide_lasso(5, 30)
    params = derive_params(1.0, 0.01, obj.g.beta)
    traj = integrate(obj, params, np.linspace(-2.0, 2.0, 5), np.zeros(5), 2.0, 0.01)
    a = 1.0 - params.c
    whole_witness, whole_check = subgradient_witness(obj, params, traj, a), third_derivative_check(traj, params)
    _rows_per_block(monkeypatch, 3, 5)  # central differences at every block edge need its neighbours
    assert subgradient_witness(obj, params, traj, a).tobytes() == whole_witness.tobytes()
    check = third_derivative_check(traj, params)
    assert check.lhs.tobytes() == whole_check.lhs.tobytes() and check.rhs.tobytes() == whole_check.rhs.tobytes()
    assert check.tol == whole_check.tol


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_row_norms_keep_their_bits_across_row_blocks(monkeypatch, layout):
    rng = np.random.default_rng(28)
    x = rng.standard_normal((40, 6))
    x[[2, 3]] *= 1e200  # squares that overflow, on both sides of the boundary at row 3
    x[[5, 6]] *= 1e-200  # squares that underflow, on both sides of the boundary at row 6
    stack = {"C": x, "F": np.asfortranarray(x), "strided": np.repeat(x, 2, axis=1)[:, ::2]}[layout]
    with np.errstate(over="ignore"):
        sq = _rowwise_sqnorm(stack)
    assert not np.isfinite(sq[[2, 3]]).any() and (sq[[5, 6]] == 0.0).all()
    whole = _rownorm(stack)
    _rows_per_block(monkeypatch, 3, 6)
    with np.errstate(over="ignore"):
        assert _rowwise_sqnorm(stack).tobytes() == sq.tobytes()
    assert _rownorm(stack).tobytes() == whole.tobytes()
    assert [_rownorm(row) for row in x] == whole.tolist()
    np.testing.assert_allclose(whole, [math.hypot(*row) for row in x], rtol=4e-16, atol=0)


def test_write_csv_stacks_mixed_column_blocks_per_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "_CSV_CHUNK_VALUES", 7)  # two rows of the eight columns a chunk
    rng = np.random.default_rng(29)
    n = 41
    k = np.arange(n)
    flags = rng.random(n) < 0.5
    wide = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
    wide[3, 0], wide[8, 2] = math.nan, -math.inf
    narrow = rng.standard_normal(n).astype(np.float32)
    last = rng.standard_normal(n)
    header = ["c%d" % i for i in range(8)]
    _write_csv(tmp_path / "written.csv", header, k, wide, flags, narrow, last)
    table = np.column_stack((k, wide, flags, narrow, last))
    savetxt_csv(tmp_path / "savetxt.csv", header, table, int_columns=(0, 5))
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_write_csv_rejects_blocks_of_unequal_rows_before_opening_the_file(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="same number of rows, got 5, 4"):
        _write_csv(path, ["a", "b", "c"], np.arange(5.0), np.zeros((4, 2)))
    assert not path.exists()
