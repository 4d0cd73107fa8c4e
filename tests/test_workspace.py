"""The kept workspace of the nonlinear strip solves against its oracles.

A nonlinear strip solve runs every gradient, flux, potential and scatter
through one workspace: the frames and pass steps of a ``grid.StencilWork``,
the ``out=`` buffers of the builtin fluxes and potentials, and iterate
arrays that the loops rotate through.  The oracles are the same calls
without a workspace (new arrays per call) and, for the builtin maps, their
formulas as plain numpy expressions, compared bit for bit.  Strips: a 2-d
planar strip, a 3-d sheared strip and the two-cell strip that a problem
invariant along both lateral axes of a 3-d strip is solved on, with one and
two components.
"""

import numpy as np
import pytest

from effbc import (
    KinkPotential2D,
    ReducedRootKink,
    RootKinkOperator,
    StripProblem,
    make_rational_direction,
    planar_strip_grid,
    solve_nonlinear,
)
from effbc import solve
from effbc.grid import StencilWork, StripGrid
from effbc.operators import DirectMap, huber_abs, huber_abs_integral
from effbc.solve import operator_flux
from test_matrix_free import random_tensor


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def planar():
    return planar_strip_grid(1.0, 2.0, 16, 32)


def sheared():
    xi = make_rational_direction([1, 2, 3])
    return StripGrid(xi.periods, xi.xi_hat, 0.1, 1.5, (4, 5), 6, xi=xi, check_resolution=False)


def two_cell():
    # the first lateral axis dropped, the second kept 2 cells wide
    xi = make_rational_direction([0, 0, 1])
    wide = StripGrid(xi.periods, xi.xi_hat, 0.0, 1.0, (8, 6), 8, xi=xi, check_resolution=False)
    return solve._reduced_strip(wide, [0, 1])[0]


GRIDS = {"planar": planar, "sheared": sheared, "two-cell": two_cell}
OPERATORS = {2: ReducedRootKink(0.37), 3: RootKinkOperator()}


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_kept_stencil_work_matches_new_arrays(kind, N):
    grid = GRIDS[kind]()
    if kind == "two-cell":
        assert grid.lat_cells == (2,) and grid.d == 2
    rng = np.random.default_rng(7)
    if N == 1:
        op, centers, tau = OPERATORS[grid.d], None, 1 / 16
    else:
        op, centers, tau = random_tensor(rng, grid.d, N, symmetric=False), grid.cell_centers(), 0.0
    work = StencilWork(grid, (N,))
    q_out = np.empty((grid.d, N) + grid.cell_shape) if N == 1 else None
    kept = []
    for _ in range(3):
        U = rng.standard_normal((N,) + grid.node_shape)
        U_copy = U.copy()
        oracle = grid.scatter_flux(operator_flux(op, grid.phys_gradient(U), centers, tau))
        # new result arrays from the kept frames
        G = grid.phys_gradient(U, work=work)
        r = grid.scatter_flux(operator_flux(op, G, centers, tau, out=q_out), work=work)
        assert same_bits(r, oracle)
        # and into given arrays
        G_out = np.empty_like(G)
        r_out = np.empty_like(r)
        assert grid.phys_gradient(U, out=G_out, work=work) is G_out
        q = operator_flux(op, G_out, centers, tau, out=q_out)
        assert grid.scatter_flux(q, out=r_out, work=work) is r_out
        assert same_bits(G_out, G) and same_bits(r_out, oracle)
        assert same_bits(U, U_copy)
        kept.append((r, r.copy(), G, G.copy()))
    # a later call leaves every earlier result alone: none is a frame
    for r, r_then, G, G_then in kept:
        assert same_bits(r, r_then) and same_bits(G, G_then)
    for (r1, _, G1, _), (r2, _, G2, _) in zip(kept, kept[1:]):
        assert not np.shares_memory(r1, r2) and not np.shares_memory(G1, G2)


def test_planar_scatter_without_out_is_not_a_kept_frame():
    # the fold of a 2-d planar strip (periodic axis first) leaves a
    # contiguous view of the frame; with a kept StencilWork the result must
    # still be an array of its own
    grid = planar()
    work = StencilWork(grid, (1,))
    q = np.random.default_rng(3).standard_normal((2, 1) + grid.cell_shape)
    r1 = grid.scatter_flux(q, work=work)
    r1_then = r1.copy()
    r2 = grid.scatter_flux(2.0 * q, work=work)
    assert same_bits(r1, r1_then) and not np.shares_memory(r1, r2)


# the builtin maps as plain numpy expressions, each in its own new arrays

def huber_formula(t, tau):
    if tau <= 0.0:
        return np.abs(t)
    a = np.abs(t)
    return np.where(a <= tau, t * t / (2.0 * tau), a - tau / 2.0)


def huber_integral_formula(t, tau):
    if tau <= 0.0:
        return t * np.abs(t) / 2.0
    a = np.abs(t)
    inner = a**3 / (6.0 * tau)
    outer = a * a / 2.0 - tau * a / 2.0 + tau * tau / 6.0
    return np.sign(t) * np.where(a <= tau, inner, outer)


def root(q, tau):
    return np.sqrt(q) if tau <= 0.0 else np.sqrt(q + tau * tau) - tau


def root_kink_formula(p, tau):
    out = np.empty_like(p)
    out[0], out[1] = p[0], p[1]
    out[2] = p[2] + (root(8.0 * p[0] ** 2 + 9.0 * p[2] ** 2, tau) + p[2]) / 8.0
    return out


def reduced_formula(mu, p, tau):
    out = np.empty_like(p)
    out[0] = p[0]
    out[1] = p[1] + (root(8.0 * mu * p[0] ** 2 + 9.0 * p[1] ** 2, tau) + p[1]) / 8.0
    return out


def kink_flux_formula(p, tau):
    out = np.empty_like(p)
    out[0] = p[0]
    out[1] = (9.0 / 8.0) * p[1] + (3.0 / 8.0) * huber_formula(p[1], tau)
    return out


def kink_potential_formula(p, tau):
    return (
        0.5 * p[0] ** 2 + (9.0 / 16.0) * p[1] ** 2
        + (3.0 / 8.0) * huber_integral_formula(p[1], tau)
    )


@pytest.mark.parametrize("tau", [0.0, 1 / 64, 1 / 16])
def test_builtin_maps_write_into_out_bit_for_bit(tau):
    rng = np.random.default_rng(11)
    p = rng.standard_normal((3, 16, 32)) * np.geomspace(1e-3, 10.0, 32)
    # zeros of both signs, the cap's edges, a subnormal
    p[:, 0, :6] = [0.0, -0.0, tau, -tau, 1e-310, -2.0 * tau]
    p_then = p.copy()
    t = p[1]
    checks = [
        (lambda out: huber_abs(t, tau, out=out), huber_abs(t, tau), huber_formula(t, tau)),
        (
            lambda out: huber_abs_integral(t, tau, out=out, work=np.empty_like(t)),
            huber_abs_integral(t, tau),
            huber_integral_formula(t, tau),
        ),
        (
            lambda out: RootKinkOperator().flux(p, tau=tau, out=out),
            RootKinkOperator().flux(p, tau=tau),
            root_kink_formula(p, tau),
        ),
        (
            lambda out: ReducedRootKink(0.37).flux(p[:2], tau=tau, out=out),
            ReducedRootKink(0.37).flux(p[:2], tau=tau),
            reduced_formula(0.37, p[:2], tau),
        ),
        (
            lambda out: KinkPotential2D().flux(p[:2], tau=tau, out=out),
            KinkPotential2D().flux(p[:2], tau=tau),
            kink_flux_formula(p[:2], tau),
        ),
        (
            lambda out: KinkPotential2D().potential(
                p[:2], tau=tau, out=out, work=np.empty((2,) + t.shape)
            ),
            KinkPotential2D().potential(p[:2], tau=tau),
            kink_potential_formula(p[:2], tau),
        ),
    ]
    for into, allocated, formula in checks:
        # a stale buffer: every entry must be written
        out = np.full(allocated.shape, np.nan)
        assert into(out) is out
        assert same_bits(out, allocated) and same_bits(allocated, formula)
    f = (root(8.0 * p[0] ** 2 + 9.0 * p[2] ** 2, tau) + p[2]) / 8.0
    assert same_bits(RootKinkOperator.f(p[0], p[2], tau), f)
    assert same_bits(p, p_then)


def test_direct_map_solve_converges():
    # a user map without out=: the workspace hands its flux on as it comes
    op = DirectMap(lambda p: p + 2.0 * np.tanh(5.0 * p), 2, lam=1.0, lip=11.0)
    grid = planar()
    problem = StripProblem(grid, op, lambda c: np.cos(2 * np.pi * c[0]), tau=0.0)
    sol = solve_nonlinear(problem)
    assert sol.iterations > 0
    r = solve._masked_residual(grid, op, sol.values, None, 0.0)
    assert float(np.abs(r).max()) == sol.residual_norm
    assert sol.residual_norm <= 1e-8 * sol.energy_trace[0] or sol.residual_norm <= 1e-10


def arrays_of(obj, seen=None):
    """Every numpy array reachable from obj through attributes, lists,
    tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (solve._Workspace, StencilWork)):
        items = list(vars(obj).values())
    else:
        return []
    return [a for item in items for a in arrays_of(item, seen)]


@pytest.mark.parametrize(
    "op", [ReducedRootKink(1.0), KinkPotential2D()], ids=["fixed-point", "descent"]
)
@pytest.mark.parametrize("start", [False, True])
def test_returned_values_share_no_workspace_memory(monkeypatch, op, start):
    built = []
    init = solve._Workspace.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(solve._Workspace, "__init__", record)
    grid = planar()
    data = lambda c: 1 / 3 + np.cos(2 * np.pi * c[0])
    problem = StripProblem(grid, op, data, tau=1 / 16)
    if start:
        lower_grid = planar_strip_grid(1.0, 1.0, 16, 16)
        lower = solve_nonlinear(StripProblem(lower_grid, op, data, tau=1 / 16))
        problem.start = lower.values
        built.clear()
    sol = solve_nonlinear(problem)
    assert sol.iterations > 0 and len(built) == 1
    buffers = arrays_of(built[0])
    assert len(buffers) > 10
    assert not any(np.shares_memory(sol.values, a) for a in buffers)
