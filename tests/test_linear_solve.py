import math

import numpy as np
import pytest

from effbc import (
    LinearTensorField,
    SolverFailureError,
    StripProblem,
    build_strip_grid,
    constant_field,
    cosine_field,
    identity_tensor,
    make_field,
    make_rational_direction,
    solve_linear,
)


def closed_form_error(h, R=3.0):
    # the harmonic function with a natural top: d/dz vanishes at z = R
    xi = make_rational_direction([0, 1])
    p = StripProblem(build_strip_grid(xi, 0.0, R, h=h), identity_tensor(2), cosine_field(2, [1, 0]))
    sol = solve_linear(p)
    pts = sol.grid.node_coords()
    exact = (
        np.cos(2 * np.pi * pts[0])
        * np.cosh(2 * np.pi * (R - pts[1]))
        / np.cosh(2 * np.pi * R)
    )
    return float(np.abs(sol.values[0] - exact).max())


def test_laplace_strip_closed_form_second_order():
    errs = [closed_form_error(h) for h in (1 / 16, 1 / 32, 1 / 64)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_constant_data_exact_for_any_tensor(laminate2, xi_e2):
    p = StripProblem(
        build_strip_grid(xi_e2, 0.0, 2.0, h=1 / 16), laminate2, constant_field(2, 0.37)
    )
    sol = solve_linear(p)
    assert np.abs(sol.values - 0.37).max() == 0.0
    assert sol.iterations == 0


def test_two_component_decoupled_blocks(xi_e2):
    # block diagonal system: each component solves the scalar problem
    zero = constant_field(2, 0.0)
    one = constant_field(2, 1.0)
    ent = tuple(
        tuple(
            tuple(tuple(one if (a == b and i == j) else zero for j in range(2)) for i in range(2))
            for b in range(2)
        )
        for a in range(2)
    )
    A2 = LinearTensorField(2, 2, ent, lam=1.0)
    data = make_field(
        2, terms=[([1.0, 1.0], [1, 0], "cos")], constant=[0.0, 0.0], n_components=2
    )
    p2 = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), A2, data)
    sol2 = solve_linear(p2)
    p1 = StripProblem(
        build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), identity_tensor(2), cosine_field(2, [1, 0])
    )
    sol1 = solve_linear(p1)
    assert np.abs(sol2.values[0] - sol1.values[0]).max() <= 1e-10
    assert np.abs(sol2.values[1] - sol1.values[0]).max() <= 1e-10


def test_discrete_maximum_principle(laminate2, xi_e2, data_diag):
    p = StripProblem(build_strip_grid(xi_e2, 0.0, 2.0, h=1 / 16), laminate2, data_diag)
    sol = solve_linear(p)
    bottom = sol.values[..., 0]
    interior = sol.values[..., 1:]
    assert interior.max() <= bottom.max() + 1e-10
    assert interior.min() >= bottom.min() - 1e-10
    # Dirichlet rows reproduce the data exactly
    from effbc.solve import boundary_values

    assert np.array_equal(bottom, boundary_values(p, sol.grid))


def test_linf_bound_scalar(laminate2, xi_e2, data_diag):
    p = StripProblem(build_strip_grid(xi_e2, 0.0, 2.0, h=1 / 16), laminate2, data_diag)
    sol = solve_linear(p)
    data_sup = np.abs(sol.values[..., 0]).max()
    assert np.abs(sol.values).max() <= (1.0 + 1e-10) * data_sup


def test_linf_bound_system_stable_under_refinement(xi_e2):
    # coupled nonsymmetric 2-component system; the recorded bound constant
    # stays finite and stable when the mesh is refined
    zero = constant_field(2, 0.0)
    one = constant_field(2, 0.8)
    eps = constant_field(2, 0.1)

    def entry(a, b, i, j):
        if a == b and i == j:
            return one
        if (a, b, i, j) == (0, 1, 0, 1):
            return eps
        return zero

    ent = tuple(
        tuple(
            tuple(tuple(entry(a, b, i, j) for j in range(2)) for i in range(2))
            for b in range(2)
        )
        for a in range(2)
    )
    A = LinearTensorField(2, 2, ent, lam=0.5)
    data = make_field(
        2, terms=[([1.0, -0.5], [1, 0], "cos")], constant=[0.2, 0.0], n_components=2
    )
    cs = []
    for h in (1 / 8, 1 / 16):
        p = StripProblem(build_strip_grid(xi_e2, 0.0, 2.0, h=h), A, data)
        sol = solve_linear(p)
        c = np.abs(sol.values).max() / np.abs(sol.values[..., 0]).max()
        cs.append(c)
    assert all(np.isfinite(c) for c in cs)
    assert abs(cs[0] - cs[1]) <= 0.1 * max(cs)


def test_lateral_shift_equivariance(xi_e2):
    # shifting coefficient and data by m lateral cells permutes the solution
    m = 3
    h = 1.0 / 16.0
    prof = make_field(2, terms=[(1.0 / 3.0, [1, 0], "cos")], constant=2.0 / 3.0)
    from effbc import isotropic_tensor

    def shifted_field(shift):
        # evaluate original fields at y + shift * e1 via phase expansion:
        # cos(2 pi (y1 + s)) = cos(2 pi s) cos - sin(2 pi s) sin
        c, s = math.cos(2 * math.pi * shift), math.sin(2 * math.pi * shift)
        return make_field(
            2,
            terms=[(c / 3.0, [1, 0], "cos"), (-s / 3.0, [1, 0], "sin")],
            constant=2.0 / 3.0,
        )

    data = make_field(2, terms=[(1.0, [1, 1], "cos")], constant=0.0)
    data_shift = make_field(
        2,
        terms=[
            (math.cos(2 * math.pi * m * h), [1, 1], "cos"),
            (-math.sin(2 * math.pi * m * h), [1, 1], "sin"),
        ],
    )
    A = isotropic_tensor(prof, lam=1.0 / 3.0)
    A_shift = isotropic_tensor(shifted_field(m * h), lam=1.0 / 3.0)
    p0 = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=h), A, data)
    p1 = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=h), A_shift, data_shift)
    u0 = solve_linear(p0).values[0]
    u1 = solve_linear(p1).values[0]
    # lateral axis points along -e1 for xi = (0, 1), so the physical shift
    # by +m h e1 is an index shift by -m
    assert np.abs(np.roll(u0, m, axis=0) - u1).max() <= 1e-9
    # full-period shift is the identity, exactly
    p_full = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=h), A, data)
    assert np.array_equal(solve_linear(p_full).values, u0[None])


def test_solver_failure_raises_with_trace(monkeypatch, laminate2, xi_e2, data_cos1):
    # at rtol = 1e-30 the recursive CG residual underflows below rtol long
    # before the true residual can; the gate reads the true residual
    from effbc.assembly import StripReferenceSolver

    calls = []
    solve = StripReferenceSolver.solve

    def counted(self, r, out=None):
        calls.append(1)
        return solve(self, r, out)

    monkeypatch.setattr(StripReferenceSolver, "solve", counted)
    p = StripProblem(build_strip_grid(xi_e2, 0.0, 2.0, h=1 / 16), laminate2, data_cos1, rtol=1e-30)
    with pytest.raises(SolverFailureError) as exc:
        solve_linear(p)
    trace = exc.value.trace
    assert trace
    # one relative residual per CG iteration, and CG applies the
    # preconditioner once per iteration; the lift solves nothing
    assert len(trace) == len(calls)
    assert f"after {len(trace)} iterations" in str(exc.value)
    assert all(np.isfinite(trace))
    assert exc.value.residual > 10.0 * p.rtol
