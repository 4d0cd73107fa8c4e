"""The folded linear operator ``grid.TensorOperator`` against its oracles.

The operator folds the flux map, the gradient map and the cell volume into
the cell tensors once and runs the stencil passes on buffers built once.
The oracles: the assembled Galerkin matrix of ``assemble_matrix`` times V,
and the unfolded form ``apply_tensor`` (the tensor's flux of
``phys_gradient``, then ``scatter_flux``).  Sheared and planar strips in
d = 2 and 3 (the strips of test_matrix_free, and examples with 7 lateral
cells), one and two components, symmetric and nonsymmetric tensors,
lateral counts 2-7.  A strip of 7 cells spreads onto frames of 8 levels,
where numpy 2.4's ``np.negative(..., out=)`` into the strided first level
returns wrong values.  Also: the BiCGStab strip solve, which
keeps one application's result while it makes the next, and the peak
memory of a linear strip solve.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assembly_oracle import apply_tensor, assemble_matrix, strip_dof_partition
from effbc import (
    StripProblem,
    build_strip_grid,
    cosine_field,
    laminate_tensor,
    make_rational_direction,
    planar_strip_grid,
    solve_linear,
)
from effbc.assembly import StripReferenceSolver
from effbc.grid import StripGrid, TensorOperator, _symmetric_cells
from effbc.solve import _krylov_solve, _zero_fixed
from test_matrix_free import random_tensor, strips


def _sheared(v, lat, n_vert):
    xi = make_rational_direction(v)
    return StripGrid(xi.periods, xi.xi_hat, 0.1, 1.3, lat, n_vert, xi=xi, check_resolution=False)


@settings(max_examples=80, deadline=None)
@given(
    grid=strips(), N=st.integers(1, 2), symmetric=st.booleans(), seed=st.integers(0, 2**16),
)
@example(grid=planar_strip_grid(0.75, 1.0, 6, 8), N=1, symmetric=False, seed=1)
@example(grid=planar_strip_grid(0.75, 0.875, 6, 7), N=1, symmetric=False, seed=1)
@example(grid=_sheared([1, 2], (7,), 8), N=2, symmetric=True, seed=2)
@example(grid=_sheared([1, -1, 2], (2, 7), 8), N=2, symmetric=False, seed=3)
def test_operator_matches_assembled_matrix(grid, N, symmetric, seed):
    rng = np.random.default_rng(seed)
    tensor = random_tensor(rng, grid.d, N, symmetric)
    A = tensor(grid.cell_centers())
    assert _symmetric_cells(A) == symmetric
    apply = TensorOperator(grid, A)
    assert apply.symmetric == symmetric
    K = assemble_matrix(grid, tensor)
    for _ in range(2):  # the second application runs on the same buffers
        V = rng.standard_normal((N,) + grid.node_shape)
        KV = (K @ V.ravel()).reshape(V.shape)
        AV = apply(V)
        assert AV.shape == V.shape and AV.flags.c_contiguous
        assert np.linalg.norm(AV - KV) <= 1e-12 * np.linalg.norm(KV)
        unfolded = apply_tensor(grid, A, V)
        assert np.linalg.norm(AV - unfolded) <= 1e-12 * np.linalg.norm(unfolded)
        out = np.full_like(V, np.nan)
        assert apply(V, out) is out
        assert np.array_equal(out, AV)


def test_bicgstab_keeps_each_application_and_matches_dense_solve():
    # _bicgstab reads v again after t = matvec(s_hat): no application may
    # write into an array that an earlier one returned
    rng = np.random.default_rng(5)
    grid = _sheared([1, 2], (6,), 8)
    tensor = random_tensor(rng, 2, 2, symmetric=False)
    A = tensor(grid.cell_centers())
    assert not _symmetric_cells(A)
    apply = TensorOperator(grid, A)

    V1, V2 = (rng.standard_normal((2,) + grid.node_shape) for _ in range(2))
    first = apply(V1)
    kept = first.copy()
    second = apply(V2)
    assert np.array_equal(first, kept) and not np.shares_memory(first, second)

    returned = []

    def matvec(V, out=None):
        result = _zero_fixed(apply(V, out))
        returned.append(result)
        return result

    ref = StripReferenceSolver(grid)
    b = _zero_fixed(rng.standard_normal((2,) + grid.node_shape))
    x, iters, rel = _krylov_solve(matvec, ref.solve, b, 1e-12, 200, False, 10.0)
    assert 0 < iters < 200 and rel <= 1e-11
    # v and t of an iteration are different arrays
    assert not np.shares_memory(returned[0], returned[1])

    K = assemble_matrix(grid, tensor)
    free, _ = strip_dof_partition(grid, 2)
    exact = np.linalg.solve(K[free][:, free].toarray(), b.ravel()[free])
    assert np.abs(x.ravel()[free] - exact).max() <= 1e-9 * np.abs(exact).max()


def test_linear_strip_solve_memory_stays_below_the_unfolded_peak():
    # the (1,6) strip of the benchmark's linear sweep, 49 x 391 nodes, solved
    # cold; the bound is the peak of the unfolded operator (each geometry
    # map applied per matvec, new arrays per pass and per iteration):
    # 3,825,268 bytes, about 25 times the values
    M = math.sqrt(37.0)
    grid = build_strip_grid(make_rational_direction([1, 6]), 0.0, 8 * M, cells=(49, 390))
    assert grid.node_shape == (49, 391)
    prob = StripProblem(grid, laminate_tensor(2), cosine_field(2, [1, 1], constant=1 / 3))
    solve_linear(prob)  # numpy's FFT plans are cached on the first solve
    tracemalloc.start()
    try:
        sol = solve_linear(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.iterations > 0
    assert peak <= 3_825_268
