"""The solve of laterally invariant strips in fewer dimensions, next to
its oracle.

Under a y-independent operator, data (and a start) constant along some
lateral axes make the discrete solution constant along them, and
``solve._reduced_solve`` drops those axes (or keeps the last 2 cells wide
when no lateral axis would remain): it solves on the strip of
``solve._reduced_strip`` with the operator restricted to its plane,
broadcasts the values back, and reports the residual, energy and trace of
the full strip.  The oracle is the full path, the same solve with the
helper switched off.  Cases: the monotone fixed point (root kink, d = 3,
through its closed-form restriction), the energy descent (constant
anisotropic quadratic potential, d = 3), the linear path (constant
anisotropic tensors, N = 1 and N = 2), the first three again on a sheared
3-d strip whose dropped period is not orthogonal to the other (the fixed
point through the generic restriction Q^T a(Q p)), and a 2-d and a 3-d
strip whose data is constant on the plane but whose flux at rest is not
zero (solved 2 cells wide, the 3-d one after dropping its first axis),
each cold and warm.  Agreement is relative to each quantity's
own scale: the values' sup, the first trace entry, the energy, and the
residual at the lift (the scale of every stopping target).  Cases that
must take the full path: a y-dependent tensor, data that vary along every
lateral axis, a start that varies along the data's invariant axis, and NaN
data.
"""

import json

import numpy as np
import pytest

from effbc import (
    DirectMap,
    QuadraticPotential,
    RootKinkOperator,
    StripProblem,
    boundary_layer_limit,
    build_strip_grid,
    constant_field,
    constant_tensor,
    laminate_tensor,
    make_field,
    make_rational_direction,
    solve_strip,
)
from effbc import solve
from effbc.assembly import StripReferenceSolver
from effbc.cli import main
from effbc.errors import NonConvergedError
from effbc.grid import StripGrid

# symmetric, positive definite, not diagonal
A3 = np.array([[0.9, 0.2, 0.1], [0.2, 0.6, -0.15], [0.1, -0.15, 0.8]])


def anisotropic(N):
    """A constant tensor (3, 3, N, N): A3 on each component, and for N = 2 a
    small coupling that is not symmetric (the BiCGStab path)."""
    A = np.einsum("ab,ij->abij", A3, np.eye(N))
    if N == 2:
        A[0, 1, 0, 1] = 0.05
    return constant_tensor(A, lam=0.3)


OPERATORS = {
    "fixed_point": (RootKinkOperator(), 1),
    "descent": (QuadraticPotential(anisotropic(1)), 1),
    "linear_N1": (anisotropic(1), 1),
    "linear_N2": (anisotropic(2), 2),
}
# the sheared strip: a dropped period along e1, 12 cells, and a kept one
# that is not orthogonal to it, 16 cells, both orthogonal to the normal
SHEARED_PERIODS = [[1.0, 0.0, 0.0], [0.5, 0.8, -0.6]]
SHEARED_NORMAL = [0.0, 0.6, 0.8]


def sheared_grid(R):
    return StripGrid(SHEARED_PERIODS, SHEARED_NORMAL, 0.0, R, (12, 16), int(16 * R))


def sheared_data(N):
    """Data of t = y . (0, 0.8, -0.6), the kept period projected off e1: exactly
    constant along the e1 edges, whose y2 and y3 entries are zero."""

    def data(c):
        t = 0.8 * c[1] - 0.6 * c[2]
        return np.stack([1 / 3 + np.cos(2 * np.pi * t), 0.2 - 0.5 * np.sin(2 * np.pi * t)][:N])

    return data


def invariant_problem(case, warm):
    """A strip whose data, and start if ``warm``, are constant along y2 on
    the e3 strips, e1 on the sheared one, and on the whole plane for the
    flux at rest."""
    if case.startswith("flux_at_rest"):
        d = 3 if case.endswith("3d") else 2
        op = DirectMap(lambda p: p + 0.5, d=d, lam=1.0, lip=1.0)
        xi, data, N = make_rational_direction([0] * (d - 1) + [1]), constant_field(d, 0.25), 1
        grid_for = lambda R: build_strip_grid(xi, 0.0, R, h=1 / 16)
    elif case.startswith("sheared_"):
        op, N = OPERATORS[case[len("sheared_"):]]
        data, grid_for = sheared_data(N), sheared_grid
    else:
        op, N = OPERATORS[case]
        xi = make_rational_direction([0, 0, 1])
        data = make_field(
            3, terms=[([1.0, -0.5][:N], [1, 0, 0], "cos")], constant=[1 / 3, 0.2][:N],
            n_components=N,
        )
        grid_for = lambda R: build_strip_grid(xi, 0.0, R, h=1 / 16)
    problem = StripProblem(grid_for(1.0), op, data, tau=1 / 16)
    if warm:
        # a lower rung as the start, as a ladder hands it on; its values are
        # broadcast, so exactly invariant
        lower = solve_strip(StripProblem(grid_for(0.5), op, data, tau=1 / 16))
        assert lower.solved_cells != lower.grid.lat_cells
        problem.start = lower.values
    return problem


def full_path(monkeypatch, problem):
    with monkeypatch.context() as m:
        m.setattr(solve, "_reduced_solve", lambda *args: None)
        return solve_strip(problem)


def lift_residual(problem):
    """Sup of the residual at the lift: the scale of the nonlinear targets."""
    grid = problem.grid
    U0 = StripReferenceSolver(grid).lift(solve.boundary_values(problem, grid))
    r = solve._masked_residual(grid, problem.operator, U0, None, problem.tau)
    return float(np.abs(r).max())


@pytest.fixture
def narrowed(monkeypatch):
    """The lateral cells of every strip that a solve was reduced to."""
    seen = []
    reduced_strip = solve._reduced_strip

    def spy(grid, axes):
        out = reduced_strip(grid, axes)
        if out is not None:
            seen.append(out[0].lat_cells)
        return out

    monkeypatch.setattr(solve, "_reduced_strip", spy)
    return seen


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "case",
    ["fixed_point", "descent", "linear_N1", "linear_N2", "flux_at_rest", "flux_at_rest_3d",
     "sheared_fixed_point", "sheared_descent", "sheared_linear_N2"],
)
def test_reduced_solve_equals_the_full_path(monkeypatch, narrowed, case, warm):
    problem = invariant_problem(case, warm)
    narrowed.clear()
    fast = solve_strip(problem)
    assert narrowed == [fast.solved_cells]
    # data constant on the plane keeps one lateral axis, 2 cells wide (the
    # 3-d strip drops the other); the other 3-d strips drop their invariant
    # axis and keep the other's 16 cells
    assert fast.solved_cells == ((2,) if case.startswith("flux_at_rest") else (16,))
    oracle = full_path(monkeypatch, problem)
    assert oracle.solved_cells == problem.grid.lat_cells
    assert fast.grid is problem.grid and fast.values.shape == oracle.values.shape
    assert fast.iterations == oracle.iterations > 0
    scale = float(np.abs(oracle.values).max())
    assert np.abs(fast.values - oracle.values).max() <= 1e-12 * scale
    linear = case.startswith("linear")
    # the linear residual is relative to the lift's already
    res_scale = 1.0 if linear else lift_residual(problem)
    assert abs(fast.residual_norm - oracle.residual_norm) <= 1e-12 * res_scale
    if oracle.energy is None:
        assert fast.energy is None
    else:
        assert abs(fast.energy - oracle.energy) <= 1e-12 * abs(oracle.energy)
    assert len(fast.energy_trace) == len(oracle.energy_trace)
    if oracle.energy_trace:
        t_scale = max(abs(t) for t in oracle.energy_trace)
        gaps = np.abs(np.subtract(fast.energy_trace, oracle.energy_trace))
        assert gaps.max() <= 1e-12 * t_scale


def test_a_symmetric_restriction_keeps_the_full_krylov_method(monkeypatch):
    # the nonsymmetric coupling in the (x, y) block acts on no field constant
    # along y, so the tensor Q^T A Q of the strip without y is exactly
    # symmetric; the reduced solve still runs BiCGStab, as the full path does
    problem = invariant_problem("linear_N2", warm=False)
    strip, Q, _ = solve._reduced_strip(problem.grid, [1])
    A = solve.restrict(problem.operator, Q)(strip.cell_centers())
    assert solve._symmetric_cells(A)
    methods = []
    for name in ("_pcg", "_bicgstab"):
        real = getattr(solve, name)
        monkeypatch.setattr(solve, name, lambda *a, _n=name, _f=real: methods.append(_n) or _f(*a))
    fast = solve_strip(problem)
    oracle = full_path(monkeypatch, problem)
    assert methods == ["_bicgstab", "_bicgstab"] and fast.solved_cells == (16,)
    assert fast.iterations == oracle.iterations


def test_values_are_constant_along_the_narrowed_axis():
    sol = solve_strip(invariant_problem("fixed_point", warm=False))
    assert np.array_equal(sol.values, np.broadcast_to(sol.values[:, :, :1], sol.values.shape))
    assert not sol.values.flags.writeable


def full_path_cases():
    xi3 = make_rational_direction([0, 0, 1])
    grid = build_strip_grid(xi3, 0.0, 1.0, h=1 / 16)
    cos_y1 = make_field(3, terms=[(1.0, [1, 0, 0], "cos")], constant=1 / 3)
    rng = np.random.default_rng(3)
    return {
        "y_dependent_tensor": StripProblem(grid, laminate_tensor(3, axis=0), cos_y1),
        "data_vary_on_every_axis": StripProblem(
            grid, RootKinkOperator(), make_field(3, terms=[(1.0, [1, 1, 0], "cos")]), tau=1 / 16
        ),
        "start_varies_along_the_data_axis": StripProblem(
            grid, RootKinkOperator(), cos_y1, tau=1 / 16,
            start=rng.standard_normal((1,) + grid.lat_cells + (4,)),
        ),
    }


@pytest.mark.parametrize("case", sorted(full_path_cases()))
def test_full_path_cases(monkeypatch, narrowed, case):
    problem = full_path_cases()[case]
    sol = solve_strip(problem)
    assert narrowed == [] and sol.solved_cells == problem.grid.lat_cells
    oracle = full_path(monkeypatch, problem)
    assert np.array_equal(sol.values, oracle.values)
    assert sol.iterations == oracle.iterations


def test_nan_data_takes_the_full_path_and_fails_loudly(narrowed):
    grid = build_strip_grid(make_rational_direction([0, 0, 1]), 0.0, 1.0, h=1 / 16)
    problem = StripProblem(
        grid, RootKinkOperator(), lambda c: np.full(c.shape[1:], np.nan), tau=1 / 16
    )
    with pytest.raises(NonConvergedError):
        solve_strip(problem)
    assert narrowed == []


class OffsetQuadratic(QuadraticPotential):
    """A quadratic potential plus a constant, so that an energy counted on
    too few cells shows."""

    def potential(self, p, y=None, tau=0.0):
        return super().potential(p, y, tau) + 0.1


def test_exact_lift_is_never_narrowed(monkeypatch, narrowed):
    # data constant on the plane, one lateral axis already 2 cells wide: the
    # exact lift of the full strip, energy counted on all of its cells
    grid = StripGrid([[0.25, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 1.0], 0.3, 0.5, (2, 8), 4)
    problem = StripProblem(grid, OffsetQuadratic(anisotropic(1)), constant_field(3, 0.25))
    sol = solve_strip(problem)
    assert narrowed == [] and sol.solved_cells == (2, 8) and sol.iterations == 0
    oracle = full_path(monkeypatch, problem)
    assert sol.energy == oracle.energy == pytest.approx(0.1 * 2 * 8 * 4 * grid.cellvol, rel=1e-12)


def test_rungs_record_their_cells():
    xi = make_rational_direction([0, 0, 1])
    kw = dict(h=1 / 16, tau=1 / 16, R_ladder=[1.0, 2.0], tolerance=1e-6)
    cos_y1 = make_field(3, terms=[(1.0, [1, 0, 0], "cos")], constant=1 / 3)
    result = boundary_layer_limit(RootKinkOperator(), cos_y1, xi, **kw)
    rungs = result.diagnostics["rungs"]
    assert [r["cells"] for r in rungs] == [[16], [16]]
    assert rungs[1]["warm"]  # the broadcast lower rung is an invariant start
    assert result.summary()["rungs"] == rungs
    json.dumps(result.summary())
    varying = make_field(3, terms=[(1.0, [1, 1, 0], "cos")])
    full = boundary_layer_limit(RootKinkOperator(), varying, xi, **kw)
    assert [r["cells"] for r in full.diagnostics["rungs"]] == [[16, 16], [16, 16]]


def test_cell_solve_result_shows_the_reduced_rungs(tmp_path):
    cfg = {
        "experiment": "cell-solve",
        "operator": {"kind": "builtin", "name": "section7"},
        "data": {"constant": 1 / 3, "terms": [{"coef": 1.0, "freq": [1, 0, 0], "phase": "cos"}]},
        "direction": "rational: [0,0,1]",
        "mesh": {"h": 1 / 16},
        "strip": {"R_ladder": [2.0, 4.0]},
        "nonlinear": {"tau": 1 / 64},
        "limit": {"tolerance": 1e-6},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "cell-solve"]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert [r["cells"] for r in result["rungs"]] == [[16], [16]]
    assert [r["R"] for r in result["rungs"]] == result["heights_used"]
