"""Warm starts of strip solves and the reuse across ladder rungs and shifts.

``StripProblem.start`` is an initial iterate; the Dirichlet rows, every
stopping target and the true-residual gates still come from the harmonic
extension (the lift).  ``layers.ladder_limit`` starts a rung from the
previous one when their grids nest (on rounded meshes too), ``shift_profile``
shares one reference solver per rung geometry between its shifts, and
directional limits given one ``solvers`` dict (as ``eta_independence_check``
gives them) share theirs across approach directions.  The oracle is the
cold solve of the same problem.  Cases: linear symmetric (CG) and
nonsymmetric (BiCGStab) tensors, the monotone fixed point and the energy
descent, on planar and sheared strips in d = 2 and 3.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effbc import (
    DirectMap,
    KinkPotential2D,
    LinearTensorField,
    ReducedRootKink,
    RootKinkOperator,
    StripProblem,
    boundary_layer_limit,
    build_strip_grid,
    constant_field,
    cosine_field,
    directional_limit,
    eta_independence_check,
    homogenize_linear,
    identity_tensor,
    make_field,
    make_rational_direction,
    planar_strip_grid,
    shift_profile,
    solve_strip,
)
from assembly_oracle import apply_tensor
from effbc.assembly import StripReferenceSolver
from effbc.grid import StripGrid
from effbc.layers import ladder_limit
from effbc.solve import (
    _masked_residual,
    _norm,
    _zero_fixed,
    boundary_values,
    nonlinear_energy,
)

KINDS = ["symmetric", "nonsymmetric", "fixed_point", "descent"]


def random_tensor(rng, d, symmetric):
    """Scalar tensor field I + small periodic perturbation; a symmetric one
    reuses the (a, b) field for (b, a), so its cells are exactly symmetric."""
    ent = {}
    for a, b in np.ndindex(d, d):
        if symmetric and (b, a) in ent:
            ent[a, b] = ent[b, a]
            continue
        ent[a, b] = make_field(
            d, terms=[(0.1 * rng.uniform(-1, 1), rng.integers(-1, 2, size=d).tolist(), "cos")],
            constant=(1.0 if a == b else 0.0) + 0.1 * rng.uniform(-1, 1),
        )
    entries = tuple(tuple(((ent[a, b],),) for b in range(d)) for a in range(d))
    return LinearTensorField(d, 1, entries, lam=0.5)


def operator_for(kind, d, rng):
    if kind in ("symmetric", "nonsymmetric"):
        return random_tensor(rng, d, kind == "symmetric")
    if kind == "fixed_point":
        return RootKinkOperator() if d == 3 else ReducedRootKink(rng.uniform(0.2, 1.0))
    return KinkPotential2D()


@st.composite
def cases(draw):
    """(kind, operator, grid maker (R, levels) -> grid, lateral period
    length, rng).  Lateral spacings pass effbc's resolution
    check (at most 1/8)."""
    kind = draw(st.sampled_from(KINDS))
    d = 2 if kind == "descent" else draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if d == 2 and draw(st.booleans()):
        n_lat = draw(st.sampled_from([8, 16]))
        length = 1.0

        def make_grid(R, n_vert):
            return planar_strip_grid(1.0, R, n_lat, n_vert)
    else:
        bound = 2 if d == 2 else 1
        v = draw(st.lists(st.integers(-bound, bound), min_size=d, max_size=d).filter(any))
        xi = make_rational_direction(v)
        lengths = [float(np.linalg.norm(ell)) for ell in xi.periods]
        lat = tuple(math.ceil(8.0 * L - 1e-9) + draw(st.integers(0, 3)) for L in lengths)
        s = draw(st.sampled_from([0.0, 0.3]))
        length = max(lengths)

        def make_grid(R, n_vert):
            return StripGrid(xi.periods, xi.xi_hat, s, R, lat, n_vert, xi=xi)
    return kind, operator_for(kind, d, rng), make_grid, length, rng


def problem_maker(op, make_grid, h_r, rng, tau=1.0 / 16.0):
    d = make_grid(1.0, 8).d
    data = make_field(
        d, terms=[(rng.uniform(0.5, 1.0), rng.integers(-1, 2, size=d).tolist(), "cos"),
                  (0.3, [1] + [0] * (d - 1), "sin")],
        constant=rng.uniform(-0.5, 0.5),
    )

    def make(R):
        grid = make_grid(R, int(round(R / h_r)))
        return StripProblem(grid, op, data, tau=tau)

    return make


def one_problem(case, extra_levels):
    """The case's strip of one lateral period's height, on at least 8
    levels per unit height."""
    kind, op, make_grid, length, rng = case
    levels = math.ceil(8.0 * length - 1e-9) + extra_levels
    return problem_maker(op, make_grid, length / levels, rng)(length)


def relative_gap(U, V):
    return float(np.abs(U - V).max() / max(np.abs(V).max(), 1e-300))


def without_null_modes(grid, V):
    """V without its lateral hourglass modes, which carry no energy under the
    one-point quadrature (3-d strips with even lateral counts); no solver
    sees them, so a start keeps its own."""
    axes = tuple(range(1, grid.d))
    Vh = np.fft.rfftn(V, axes=axes)
    Vh[:, StripReferenceSolver(grid).null_mask] = 0.0
    return np.fft.irfftn(Vh, s=grid.lat_cells, axes=axes)


def gate(problem, U):
    """Whether U passes the cold solve's stopping gate of ``problem``: the
    true residual against the residual of the lift."""
    grid = problem.grid
    U0 = StripReferenceSolver(grid).lift(boundary_values(problem, grid))
    op = problem.operator
    if isinstance(op, LinearTensorField):
        A = op(grid.cell_centers())
        r0 = _norm(_zero_fixed(apply_tensor(grid, A, U0)))
        return _norm(_zero_fixed(apply_tensor(grid, A, U))) <= 10.0 * problem.rtol * r0
    residual = lambda V: float(np.abs(_masked_residual(grid, op, V, None, problem.tau)).max())
    if op.is_variational:
        E0 = nonlinear_energy(op, grid, U0, None, problem.tau)
        return residual(U) <= 1e-9 * max(1.0, abs(E0))
    floor = 1e-12 * grid.cellvol / min(grid.spacings) ** 2 * op.lip * (np.abs(U0).max() + 1.0)
    return residual(U) <= max(1e-8 * residual(U0), floor)


@settings(max_examples=40, deadline=None)
@given(case=cases(), periods=st.sampled_from([2, 3]), h=st.sampled_from([1 / 8, 1 / 12]),
       extra=st.sampled_from([0.5, 1.0]))
def test_warm_rung_matches_cold_solve(case, periods, h, extra):
    # a ladder like effbc's: first rung a few lateral periods high, so that
    # its top slice has nearly reached the far field
    kind, op, make_grid, length, rng = case
    lower = math.ceil(periods * length / h - 1e-9)
    h_r = periods * length / lower
    make = problem_maker(op, make_grid, h_r, rng)
    heights = [lower * h_r, (lower + int(extra * lower)) * h_r]
    result, (_, warm) = ladder_limit(make, heights, 0.0, stop_on_tolerance=False)
    cold = solve_strip(make(heights[1]))

    assert [r["warm"] for r in result.diagnostics["rungs"]] == [False, True]
    assert result.diagnostics["rungs"][1]["iterations"] == warm.iterations
    assert warm.problem.start is not None
    # the linear solve stops at 1e-10 of the lift's residual; the nonlinear
    # loops stop at 1e-8 (fixed point) or 1e-9 |E| (descent), which leaves a
    # few 1e-8 between any two iterates that pass, warm or cold
    assert relative_gap(warm.values, cold.values) <= (1e-8 if kind in KINDS[:2] else 1e-7)
    assert warm.iterations <= cold.iterations
    assert gate(warm.problem, warm.values)


@settings(max_examples=40, deadline=None)
@given(case=cases(), levels=st.integers(0, 4))
def test_start_at_the_cold_solution_takes_no_iteration(case, levels):
    problem = one_problem(case, levels)
    cold = solve_strip(problem)
    warm = solve_strip(replace(problem, start=cold.values))
    assert warm.iterations == 0
    assert np.array_equal(warm.values, cold.values)


@settings(max_examples=40, deadline=None)
@given(case=cases(), levels=st.integers(0, 4), amp=st.sampled_from([1e-6, 1e-3, 0.1, 1.0, 10.0]))
def test_random_start_passes_the_cold_gate(case, levels, amp):
    # small perturbations of the solution are used as starts, large ones are
    # worse than the lift and dropped; either way the cold gate holds
    problem = one_problem(case, levels)
    rng = case[4]
    cold = solve_strip(problem).values
    start = cold + amp * rng.standard_normal(cold.shape)
    warm = solve_strip(replace(problem, start=start))
    assert gate(problem, warm.values)
    gap = without_null_modes(problem.grid, warm.values - cold)
    assert np.abs(gap).max() <= 1e-6 * np.abs(cold).max()


@settings(max_examples=30, deadline=None)
@given(case=cases(), levels=st.integers(0, 4))
def test_start_dirichlet_rows_are_ignored(case, levels):
    problem = one_problem(case, levels)
    rng = case[4]
    cold = solve_strip(problem).values
    start = cold + 1e-3 * rng.standard_normal(cold.shape)
    other = start.copy()
    other[..., 0] = rng.standard_normal(other[..., 0].shape)
    a = solve_strip(replace(problem, start=start))
    b = solve_strip(replace(problem, start=other))
    assert np.array_equal(a.values, b.values) and a.iterations == b.iterations
    assert np.array_equal(a.values[..., 0], boundary_values(problem, problem.grid))


def test_start_must_live_on_the_grid(xi_e2, laminate2, data_diag):
    # on the full path, on the exact-lift return (data constant on the
    # plane, zero flux at rest) and on the full path again when that data
    # has a flux at rest that is not zero
    grid = build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16)
    flat = constant_field(2, 0.25)
    problems = [
        StripProblem(grid, laminate2, data_diag),
        StripProblem(grid, ReducedRootKink(), flat, tau=1 / 16),
        StripProblem(grid, DirectMap(lambda p: p + 0.5, d=2, lam=1.0, lip=1.0), flat),
    ]
    assert solve_strip(problems[1]).iterations == 0
    assert solve_strip(problems[2]).solved_cells == grid.lat_cells
    for problem in problems:
        for shape in [(1, 15, 17), (1, 16, 18), (2, 16, 17), (1, 16, 0), (1, 16)]:
            with pytest.raises(ValueError):
                solve_strip(replace(problem, start=np.zeros(shape)))


NONLINEAR = pytest.mark.parametrize(
    "op", [ReducedRootKink(), KinkPotential2D()], ids=["fixed_point", "descent"]
)


@NONLINEAR
def test_short_start_is_continued_by_its_top_slice(op, xi_e2, data_diag):
    # a start on fewer levels (a lower ladder rung) equals its explicit
    # continuation by the top slice
    problem = StripProblem(build_strip_grid(xi_e2, 0.0, 2.0, h=1 / 16), op, data_diag, tau=1 / 16)
    lower = solve_strip(replace(problem, grid=build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16))).values
    full = np.concatenate([lower, np.repeat(lower[..., -1:], 16, axis=-1)], axis=-1)
    a = solve_strip(replace(problem, start=lower))
    b = solve_strip(replace(problem, start=full))
    assert np.array_equal(a.values, b.values) and a.iterations == b.iterations


@NONLINEAR
def test_nonlinear_residual_is_the_last_tested_one(op, xi_e2, data_diag):
    problem = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), op, data_diag, tau=1 / 16)
    sol = solve_strip(problem)
    r = _masked_residual(sol.grid, op, sol.values, None, problem.tau)
    assert sol.iterations > 0 and sol.residual_norm == float(np.abs(r).max())


def test_fixed_point_start_at_target_skips_the_reference_solve(monkeypatch, xi_e2, data_diag):
    problem = StripProblem(
        build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), ReducedRootKink(), data_diag, tau=1 / 16
    )
    cold = solve_strip(problem)
    calls = []
    solve = StripReferenceSolver.solve

    def counted(self, r):
        calls.append(1)
        return solve(self, r)

    monkeypatch.setattr(StripReferenceSolver, "solve", counted)
    warm = solve_strip(replace(problem, start=cold.values))
    # the lift builds its residual in mode space, so no reference solve runs
    assert not calls and warm.iterations == 0 and warm.energy_trace == []


def test_rounded_rungs_nest_and_start_warm(laminate2, data_diag):
    # no spacing divides both the (1, 5) period and the rung heights, so the
    # lateral counts are rounded up per period and the vertical spacing is
    # fixed by the first rung: every later rung extends the one below
    xi = make_rational_direction([1, 5])
    h = 1 / 16
    res = boundary_layer_limit(
        laminate2, data_diag, xi, tolerance=1e-7, h=h, keep_solutions=True
    )
    rungs = len(res.heights_used)
    assert rungs >= 2
    assert [r["warm"] for r in res.diagnostics["rungs"]] == [False] + [True] * (rungs - 1)
    grids = [sol.grid for sol in res.diagnostics["solutions"]]
    period = math.sqrt(float(xi.periods[0] @ xi.periods[0]))
    for k, grid in enumerate(grids):
        assert grid.lat_cells == (math.ceil(period / h),)
        assert grid.R / grid.n_vert <= h
        assert grid.n_vert == grids[0].n_vert * 2**k
    xi = make_rational_direction([1, 2])
    res = boundary_layer_limit(laminate2, data_diag, xi, tolerance=1e-7, h=np.sqrt(5) / 32)
    assert [r["warm"] for r in res.diagnostics["rungs"]] == [False] + [True] * (
        len(res.heights_used) - 1
    )


@pytest.mark.parametrize("nonlinear", [False, True])
def test_profile_shared_solver_is_bit_identical(monkeypatch, laminate2, data_diag, nonlinear):
    xi = make_rational_direction([0, 1])
    op = ReducedRootKink(0.5) if nonlinear else laminate2
    kw = dict(tolerance=1e-7, h=1 / 16, tau=1 / 16 if nonlinear else 0.0)
    built = []
    init = StripReferenceSolver.__init__

    def counted(self, grid):
        built.append(grid.s)
        init(self, grid)

    monkeypatch.setattr(StripReferenceSolver, "__init__", counted)
    prof = shift_profile(op, data_diag, xi, sample_count=8, **kw)
    rungs = {len(r.heights_used) for _, r in prof.samples}
    assert len(built) == max(rungs)  # one solver per rung geometry
    built.clear()
    for s, res in prof.samples:
        fresh = boundary_layer_limit(op, data_diag, xi, s=s, **kw)
        assert np.array_equal(res.value, fresh.value)
        assert res.values_per_height == fresh.values_per_height
        assert res.oscillations == fresh.oscillations
        assert res.diagnostics["rungs"] == fresh.diagnostics["rungs"]
    assert len(built) == sum(len(r.heights_used) for _, r in prof.samples)


@pytest.mark.parametrize("nonlinear", [False, True])
def test_directional_limits_shared_solver_is_bit_identical(
    monkeypatch, laminate2, data_diag, nonlinear
):
    # every approach direction of one profile solves on the same planar strips
    if nonlinear:
        op = effective = RootKinkOperator()
        xi = make_rational_direction([0, 0, 1])
        data = cosine_field(3, [0, 0, 1], constant=1.0 / 3.0)
        prof = shift_profile(op, data, xi, sample_count=8, tolerance=1e-6, h=1 / 8, tau=1 / 16)
        etas = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0])
        kw = dict(tolerance=1e-6, tau=1 / 16, n_lat=16)
    else:
        xi = make_rational_direction([0, 1])
        prof = shift_profile(laminate2, data_diag, xi, sample_count=8, tolerance=1e-7, h=1 / 16)
        effective = homogenize_linear(laminate2, h_cell=1 / 32)
        etas = ([1.0, 0.0], [-1.0, 0.0])
        kw = dict(tolerance=1e-7)
    built = []
    init = StripReferenceSolver.__init__

    def counted(self, grid):
        built.append(grid.n_vert)
        init(self, grid)

    monkeypatch.setattr(StripReferenceSolver, "__init__", counted)
    solvers = {}
    shared = [directional_limit(xi, eta, prof, effective, solvers=solvers, **kw) for eta in etas]
    assert len(built) == max(len(lim.heights_used) for lim in shared)  # one per rung height
    built.clear()
    for eta, lim in zip(etas, shared):
        fresh = directional_limit(xi, eta, prof, effective, **kw)
        assert np.array_equal(lim.value, fresh.value)
        assert lim.error_bar == fresh.error_bar
        assert lim.heights_used == fresh.heights_used
        assert lim.converged == fresh.converged
    assert len(built) == sum(len(lim.heights_used) for lim in shared)


def test_eta_independence_check_shares_one_solver_per_rung(monkeypatch):
    xi = make_rational_direction([0, 0, 1])
    I3 = identity_tensor(3)
    data = make_field(3, terms=[(1.0, [0, 0, 1], "cos"), (0.5, [1, 0, 0], "cos")], constant=0.25)
    prof = shift_profile(I3, data, xi, sample_count=8, tolerance=1e-8, h=1 / 8)
    s = 1.0 / math.sqrt(2.0)
    etas = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [s, s, 0.0]]
    built = []
    init = StripReferenceSolver.__init__

    def counted(self, grid):
        built.append(grid.n_vert)
        init(self, grid)

    monkeypatch.setattr(StripReferenceSolver, "__init__", counted)
    check = eta_independence_check(xi, prof, I3, etas, tolerance=1e-9)
    rungs = max(len(lim.heights_used) for lim in check["limits"])
    assert len(set(built)) == len(built) == rungs  # one per rung geometry
    for eta, lim in zip(etas, check["limits"]):
        fresh = directional_limit(xi, eta, prof, I3, tolerance=1e-9)
        assert np.array_equal(lim.value, fresh.value)
        assert lim.error_bar == fresh.error_bar
        assert lim.heights_used == fresh.heights_used
