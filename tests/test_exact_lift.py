"""The exact-lift return of the strip solvers, next to its oracle.

Data constant on the boundary plane lifts to a constant column, and when
the flux of a zero gradient vanishes on every cell that column solves the
strip exactly; ``solve._exact_lift`` then returns it before any stencil
pass.  The oracle is the full path, the same solve with the helper
switched off.  Cases: the monotone fixed point (root kink, reduced root
kink), the energy descent (kink potential with and without a constant
offset, a y-dependent quadratic potential) and a laminate tensor, in d = 2 and 3, N = 1 and 2, with and
without a start.
"""

import numpy as np
import pytest

from effbc import (
    DirectMap,
    KinkPotential2D,
    QuadraticPotential,
    ReducedRootKink,
    RootKinkOperator,
    StripProblem,
    build_strip_grid,
    constant_field,
    cosine_field,
    laminate_tensor,
    make_rational_direction,
    solve_strip,
)
from effbc import solve
from effbc.errors import NonConvergedError
from effbc.grid import StripGrid

class OffsetKinkPotential(KinkPotential2D):
    """The kink potential plus a constant: the same flux, an energy whose
    sum over cells is not zero, so its summation order shows."""

    def potential(self, p, y=None, tau=0.0):
        return super().potential(p, y, tau) + 0.1


CASES = {
    "root_kink_3d": (RootKinkOperator(), 3, 1),
    "reduced_root_kink": (ReducedRootKink(0.5), 2, 1),
    "kink_potential": (KinkPotential2D(), 2, 1),
    "offset_kink_potential": (OffsetKinkPotential(), 2, 1),
    "quadratic_laminate": (QuadraticPotential(laminate_tensor(2)), 2, 1),
    "quadratic_laminate_3d": (QuadraticPotential(laminate_tensor(3)), 3, 1),
    "laminate_2d_N2": (laminate_tensor(2, n_components=2), 2, 2),
    "laminate_3d": (laminate_tensor(3), 3, 1),
}


def plane_constant_problem(op, d, N, with_start):
    """A strip normal to e_d at height s = 0.3, with data that depends on
    y_d only (so it is constant on the bottom plane)."""
    normal = [0] * (d - 1) + [1]
    grid = build_strip_grid(make_rational_direction(normal), 0.3, 0.5, h=1 / 8)
    if N == 1:
        data = cosine_field(d, normal, constant=0.25)
    else:
        data = constant_field(d, [0.25, -1.5], n_components=2)
    start = None
    if with_start:
        rng = np.random.default_rng(7)
        start = rng.standard_normal((N,) + grid.lat_cells + (grid.n_vert,))
    return StripProblem(grid, op, data, tau=1 / 16, start=start)


@pytest.fixture
def stencil_calls(monkeypatch):
    """Counts of the stencil passes built on strip grids: the gradient half
    and the scatter half that phys_gradient, scatter_flux and the linear
    solver's TensorOperator share."""
    calls = {"gradient": 0, "scatter": 0}
    gradient, scatter = StripGrid._gradient_passes, StripGrid._scatter_passes

    def counted_gradient(self, *args, **kwargs):
        calls["gradient"] += 1
        return gradient(self, *args, **kwargs)

    def counted_scatter(self, *args, **kwargs):
        calls["scatter"] += 1
        return scatter(self, *args, **kwargs)

    monkeypatch.setattr(StripGrid, "_gradient_passes", counted_gradient)
    monkeypatch.setattr(StripGrid, "_scatter_passes", counted_scatter)
    return calls


def full_path(monkeypatch, problem):
    with monkeypatch.context() as m:
        m.setattr(solve, "_exact_lift", lambda *args: None)
        return solve_strip(problem)


@pytest.mark.parametrize("with_start", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_lift_equals_the_full_path(monkeypatch, stencil_calls, case, with_start):
    op, d, N = CASES[case]
    problem = plane_constant_problem(op, d, N, with_start)
    fast = solve_strip(problem)
    assert stencil_calls == {"gradient": 0, "scatter": 0}
    oracle = full_path(monkeypatch, problem)
    assert stencil_calls["gradient"] > 0  # the oracle ran its stencil passes
    assert np.array_equal(fast.values, oracle.values)
    assert fast.values.shape == (N,) + problem.grid.node_shape
    assert fast.residual_norm == oracle.residual_norm == 0.0
    assert fast.iterations == oracle.iterations == 0
    assert fast.energy == oracle.energy
    assert fast.energy_trace == oracle.energy_trace
    if getattr(op, "is_variational", False):
        assert fast.energy_trace == [fast.energy]
    else:
        assert fast.energy is None and fast.energy_trace == []


def test_flux_nonzero_at_zero_takes_the_full_path(monkeypatch, stencil_calls):
    op = DirectMap(lambda p: p + 0.5, d=2, lam=1.0, lip=1.0)
    problem = plane_constant_problem(op, 2, 1, with_start=False)
    fast = solve_strip(problem)
    assert stencil_calls["gradient"] > 0 and stencil_calls["scatter"] > 0
    assert fast.iterations > 0
    oracle = full_path(monkeypatch, problem)
    assert np.array_equal(fast.values, oracle.values)
    assert fast.residual_norm == oracle.residual_norm


def test_nan_flux_takes_the_full_path_and_fails_loudly(monkeypatch, stencil_calls):
    op = DirectMap(lambda p: p * np.nan, d=2, lam=1.0, lip=1.0)
    problem = plane_constant_problem(op, 2, 1, with_start=False)
    with pytest.raises(NonConvergedError):
        solve_strip(problem)
    assert stencil_calls["gradient"] > 0 and stencil_calls["scatter"] > 0
    with pytest.raises(NonConvergedError):
        full_path(monkeypatch, problem)
