"""The Anderson-accelerated monotone fixed point against its damped oracle.

``solve._fixed_point_monotone`` mixes the damped preconditioned
(Zarantonello) step u <- u - rho K_ref^{-1} R(u) over the last
ANDERSON_DEPTH accepted steps; ``depth=0`` is the plain damped iteration,
which is the oracle here.  Cases: the reduced root-kink map on planar
strips (random in-plane weight mu, natural top, tau in {0, 1/16}) and a
small 3-d root-kink strip, on which every Anderson mix passes the decrease
test, and a monotone map with a wide spectrum, on which some mixes fail it
and the safeguard has to reject them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effbc import (
    ReducedRootKink,
    RootKinkOperator,
    StripProblem,
    build_strip_grid,
    cosine_field,
    make_rational_direction,
    planar_strip_grid,
)
from effbc.assembly import StripReferenceSolver
from effbc.errors import NonConvergedError
from effbc.operators import DirectMap
from effbc.solve import (
    ANDERSON_DEPTH,
    _fixed_point_monotone,
    _masked_residual,
    boundary_values,
)


def run(problem, depth, maxiter=2000):
    grid = problem.grid
    ref = StripReferenceSolver(grid)
    U0 = ref.lift(boundary_values(problem, grid))
    U, iters, trace, rsup = _fixed_point_monotone(
        problem, grid, ref, problem.operator, U0, None, maxiter=maxiter, depth=depth
    )
    # the returned sup residual is that of the returned iterate, bit for bit
    assert rsup == sup_residual(problem, grid, U)
    return grid, U0, U, iters, trace


def sup_residual(problem, grid, U):
    r = _masked_residual(grid, problem.operator, U, None, problem.tau)
    return float(np.abs(r).max())


def check_against_oracle(problem):
    """Run both iterations, check the accelerated one against the oracle and
    return the oracle's iteration count."""
    grid, U0, U_ref, iters_ref, trace_ref = run(problem, 0)
    _, _, U, iters, trace = run(problem, ANDERSON_DEPTH)
    # the stopping gate of the solver, recomputed: sup residual <= max(rtol sup0, floor)
    lip = problem.operator.lip
    floor = 1e-12 * grid.cellvol / min(grid.spacings) ** 2 * lip * (np.abs(U0).max() + 1.0)
    target = max(1e-8 * sup_residual(problem, grid, U0), floor)
    assert sup_residual(problem, grid, U) <= target
    assert np.abs(U - U_ref).max() <= 1e-6 * np.abs(U_ref).max()
    assert iters <= iters_ref
    for tr, n in ((trace, iters), (trace_ref, iters_ref)):
        assert len(tr) == n + 1
        assert all(b < a for a, b in zip(tr, tr[1:]))
    return iters_ref


def reduced_problem(mu, tau, n_lat=16, n_vert=32, amp=1.0, freq=1):
    T, R = 1.0, n_vert / 16.0
    grid = planar_strip_grid(T, R, n_lat, n_vert)
    return StripProblem(
        grid, ReducedRootKink(mu),
        lambda c: amp / 3.0 + amp * np.cos(2 * np.pi * freq * c[0]), tau=tau,
    )


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.0, 1.0, exclude_min=True),
    tau=st.sampled_from([0.0, 1.0 / 16.0]),
    n_lat=st.sampled_from([8, 16]),
    n_vert=st.integers(8, 40),
    amp=st.floats(0.25, 2.0),
    freq=st.integers(1, 2),
)
def test_reduced_kink_matches_damped_oracle(mu, tau, n_lat, n_vert, amp, freq):
    check_against_oracle(reduced_problem(mu, tau, n_lat, n_vert, amp, freq))


def test_reduced_kink_pinned_oracle_count():
    assert check_against_oracle(reduced_problem(1.0, 0.0)) == 38


def test_root_kink_3d_matches_damped_oracle():
    xi3 = make_rational_direction([0, 0, 1])
    data = cosine_field(3, [1, 0, 0], constant=1.0 / 3.0)
    problem = StripProblem(
        build_strip_grid(xi3, 0.0, 1.0, h=1 / 8), RootKinkOperator(), data, tau=1 / 64
    )
    assert check_against_oracle(problem) == 36


@pytest.mark.parametrize("depth", [0, ANDERSON_DEPTH])
def test_budget_exhaustion_carries_the_norm_trace(depth):
    problem = reduced_problem(1.0, 0.0)
    with pytest.raises(NonConvergedError) as exc:
        run(problem, depth, maxiter=4)
    tr = exc.value.trace
    assert len(tr) == 5
    assert all(b < a for a, b in zip(tr, tr[1:]))


@pytest.mark.parametrize("amp", [0.1, 1.0])
def test_wide_spectrum_map_matches_damped_oracle(amp):
    # a(p) = p + 2 tanh(5 p): monotone with derivative in [1, 11], so the
    # damped step contracts slowly and the secant model of the mix is poor
    # where tanh bends; an unguarded mix raises the preconditioned norm here
    op = DirectMap(lambda p: p + 2.0 * np.tanh(5.0 * p), 2, lam=1.0, lip=11.0)
    grid = planar_strip_grid(1.0, 2.0, 16, 32)
    problem = StripProblem(grid, op, lambda c: amp * np.cos(2 * np.pi * c[0]), tau=0.0)
    check_against_oracle(problem)
