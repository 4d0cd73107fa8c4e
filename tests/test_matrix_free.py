"""The matrix-free linear strip solve against the assembled matrix.

``solve_linear`` applies the folded operator ``TensorOperator`` (the
scatter of A grad V) with the Dirichlet rows of the bottom level zeroed
instead of assembling a matrix.  The oracles
here are the test oracle ``assemble_matrix`` restricted to the free block,
a dense solve of that block, and the sweep values of the assembled-matrix
BiCGStab solver this path replaced.  Sheared and planar strips in d = 2
and 3 with a natural top, one and two components, symmetric tensors
(preconditioned CG) and nonsymmetric ones (BiCGStab).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effbc import (
    LinearTensorField,
    SolverFailureError,
    StripProblem,
    build_strip_grid,
    make_field,
    make_rational_direction,
    planar_strip_grid,
    solve_linear,
)
from effbc import assembly
from assembly_oracle import assemble_matrix, strip_dof_partition
from effbc.cli import main
from effbc.assembly import StripReferenceSolver
from effbc.grid import StripGrid, TensorOperator, _symmetric_cells
from effbc.solve import (
    _krylov_solve,
    _zero_fixed,
    boundary_values,
)


@st.composite
def strips(draw):
    d = draw(st.sampled_from([2, 3]))
    n_vert = draw(st.integers(2, 8))
    if d == 2 and draw(st.booleans()):
        # planar_strip_grid keeps at least 8 cells per unit length
        n_lat = draw(st.integers(2, 7))
        period, R = (draw(st.floats(0.2, 1.0)) * n / 8.0 for n in (n_lat, n_vert))
        return planar_strip_grid(period, R, n_lat, n_vert)
    v = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any))
    xi = make_rational_direction(v)
    lat = tuple(draw(st.integers(2, 6 if d == 3 else 7)) for _ in range(d - 1))
    R = draw(st.floats(0.5, 3.0))
    return StripGrid(xi.periods, xi.xi_hat, 0.1, R, lat, n_vert, xi=xi, check_resolution=False)


def random_tensor(rng, d, N, symmetric):
    """I plus a small periodic perturbation per entry: uniformly elliptic.
    A symmetric tensor shares the field of A^{ab}_{ij} and A^{ba}_{ji}, so
    its cell values are exactly symmetric."""
    ent = {}
    for a, b, i, j in np.ndindex(d, d, N, N):
        if symmetric and (b, a, j, i) in ent:
            ent[a, b, i, j] = ent[b, a, j, i]
            continue
        base = 1.0 if (a == b and i == j) else 0.0
        freq = rng.integers(-1, 2, size=d).tolist()
        ent[a, b, i, j] = make_field(
            d, terms=[(0.05 * rng.uniform(-1, 1), freq, "cos")],
            constant=base + 0.05 * rng.uniform(-1, 1),
        )
    entries = tuple(
        tuple(tuple(tuple(ent[a, b, i, j] for j in range(N)) for i in range(N)) for b in range(d))
        for a in range(d)
    )
    return LinearTensorField(d, N, entries, lam=0.3)


def free_block(grid, tensor):
    K = assemble_matrix(grid, tensor).tocsr()
    free, bottom = strip_dof_partition(grid, tensor.n_components)
    return K, free, bottom


@settings(max_examples=60, deadline=None)
@given(
    grid=strips(), N=st.integers(1, 2), symmetric=st.booleans(), seed=st.integers(0, 2**16),
)
def test_operator_matches_assembled_free_block(grid, N, symmetric, seed):
    rng = np.random.default_rng(seed)
    tensor = random_tensor(rng, grid.d, N, symmetric)
    A = tensor(grid.cell_centers())
    assert _symmetric_cells(A) == symmetric
    K, free, _ = free_block(grid, tensor)
    V = _zero_fixed(rng.standard_normal((N,) + grid.node_shape))

    out = _zero_fixed(TensorOperator(grid, A)(V))

    fixed = np.ones(out.size, dtype=bool)
    fixed[free] = False
    assert not out.ravel()[fixed].any()
    Kff = K[free][:, free]
    ref = Kff @ V.ravel()[free]
    scale = abs(Kff).sum(axis=1).max() * np.abs(V).max()
    assert np.abs(out.ravel()[free] - ref).max() <= 1e-12 * scale


def strip_problem(grid, tensor, rng):
    d, N = grid.d, tensor.n_components
    data = make_field(
        d, terms=[(rng.uniform(0.5, 1.0, N), rng.integers(-2, 3, size=d).tolist(), "cos")],
        constant=rng.uniform(-1, 1, N), n_components=N,
    )
    return StripProblem(grid, tensor, data)


@settings(max_examples=40, deadline=None)
@given(
    grid=strips(), N=st.integers(1, 2), symmetric=st.booleans(), seed=st.integers(0, 2**16),
)
def test_solve_matches_dense_solve(grid, N, symmetric, seed):
    rng = np.random.default_rng(seed)
    tensor = random_tensor(rng, grid.d, N, symmetric)
    problem = strip_problem(grid, tensor, rng)
    sol = solve_linear(problem)

    K, free, bottom = free_block(grid, tensor)
    fixed_values = np.zeros(K.shape[0])
    fixed_values[bottom] = boundary_values(problem, grid).ravel()
    Kff = K[free][:, free].toarray()
    rhs = -(K @ fixed_values)[free]
    # 3-d strips with even lateral counts carry the null (hourglass) modes
    # of the one-point quadrature; compare on the range of the block
    u, sv, vt = np.linalg.svd(Kff)
    keep = sv > 1e-12 * sv[0]
    exact = vt[keep].T @ ((u[:, keep].T @ rhs) / sv[keep])

    U = sol.values.ravel()
    fixed = np.ones(U.size, dtype=bool)
    fixed[free] = False
    assert np.array_equal(U[fixed], fixed_values[fixed])
    # normwise backward error of the free block, then the forward error it
    # implies through the smallest nonzero singular value
    res = Kff @ U[free] - rhs
    backward = np.linalg.norm(res) / (sv[0] * np.linalg.norm(U[free]) + np.linalg.norm(rhs))
    assert backward <= 1e-10
    err = np.linalg.norm(vt[keep] @ (U[free] - exact))
    assert err <= 2.0 * np.linalg.norm(res) / sv[keep][-1] + 1e-12 * np.linalg.norm(exact)


def test_solve_linear_never_assembles(laminate2, xi_e2, data_diag):
    # the library keeps no assembly routine; the matrix lives in the oracle
    assert not hasattr(assembly, "assemble_matrix")
    rng = np.random.default_rng(3)
    for symmetric in (True, False):
        tensor = laminate2 if symmetric else random_tensor(rng, 2, 1, False)
        grid = build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16)
        sol = solve_linear(StripProblem(grid, tensor, data_diag))
        assert sol.iterations > 0 and sol.residual_norm <= 1e-9


def test_sweep_values_pinned(tmp_path):
    # the benchmark's seed-0 linear sweep; the values are those of the
    # assembled-matrix BiCGStab solver, whose error bars are >= 3.7e-9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "sweep",
        "operator": {"kind": "laminate", "d": 2},
        "data": {"constant": 1 / 3, "terms": [{"coef": 1.0, "freq": [1, 1], "phase": "cos"}]},
        "directions": [
            {"unit": [math.sin(t), math.cos(t)]} for t in (math.atan2(1.0, k) for k in (6, 5, 4))
        ],
        "limit": {"tolerance": 1e-7, "sample_count": 8},
        "sweep": {"Q": 6},
        "out": str(tmp_path / "sw"),
    }))
    assert main(["--config", str(path), "sweep"]) == 0
    rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())["rows"]
    values = [row["value"][0] for row in rows]
    pinned = [0.3333334583157268, 0.33333340469055395, 0.33333332228573787]
    assert values == pytest.approx(pinned, rel=1e-10, abs=0.0)


def test_bicgstab_matches_dense_solve_and_fails_loudly():
    # a nonsymmetric two-component system on a sheared strip, natural top
    rng = np.random.default_rng(11)
    xi = make_rational_direction([1, 2])
    grid = StripGrid(xi.periods, xi.xi_hat, 0.1, 1.5, (6,), 8, xi=xi, check_resolution=False)
    tensor = random_tensor(rng, 2, 2, symmetric=False)
    A = tensor(grid.cell_centers())
    assert not _symmetric_cells(A)
    ref = StripReferenceSolver(grid)
    apply = TensorOperator(grid, A)

    def matvec(V, out=None):
        return _zero_fixed(apply(V, out))

    b = _zero_fixed(rng.standard_normal((2,) + grid.node_shape))
    x, iters, rel = _krylov_solve(matvec, ref.solve, b, 1e-12, 200, False, 10.0)

    K, free, _ = free_block(grid, tensor)
    exact = np.linalg.solve(K[free][:, free].toarray(), b.ravel()[free])
    assert 0 < iters < 200 and rel <= 1e-11
    fixed = np.ones(x.size, dtype=bool)
    fixed[free] = False
    assert not x.ravel()[fixed].any()
    assert np.abs(x.ravel()[free] - exact).max() <= 1e-9 * np.abs(exact).max()

    # the true residual cannot reach 1e-30: a loud failure whose trace is
    # the recursive residual of every iteration
    with pytest.raises(SolverFailureError) as exc:
        _krylov_solve(matvec, ref.solve, b, 1e-30, 200, False, 10.0)
    assert "BiCGStab" in str(exc.value)
    assert exc.value.trace and exc.value.residual > 1e-28
    assert min(exc.value.trace) <= 1e-12
