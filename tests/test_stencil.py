"""phys_gradient / scatter_flux against the per-corner formulas.

The kernels run one difference-and-average pass per axis; the oracles here
are the cell-corner loop they replaced and the assembled matrices of A = I
and of a non-identity tensor field (the folded operator
``TensorOperator``, which also serves the torus cell problems).  The
reference solvers' Fourier symbol, built from the same passes, is checked
against the corner-pair symbol, and the interior diagonal closed form
against the assembled A = I matrix.  Sheared and planar strips and tori in
d = 2 and 3, one and two components.  On the benchmark's discontinuity
strip, the memory of the stencil pair and of a nonlinear iteration is
bounded.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assembly_oracle import assemble_matrix, corner_symbol, corners, gather_corner
from effbc import (
    KinkPotential2D, ReducedRootKink, StripProblem, identity_tensor, make_rational_direction,
    planar_strip_grid,
)
from effbc.assembly import (
    StripReferenceSolver, TorusReferenceSolver, _interior_diagonal, _mode_angles,
    _stencil_symbol,
)
from effbc.grid import StripGrid, TensorOperator, TorusGrid
from effbc.solve import _descent_variational, _fixed_point_monotone, boundary_values
from test_matrix_free import random_tensor


@st.composite
def grids(draw):
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["strip", "planar", "torus"] if d == 2 else ["strip", "torus"]))
    if kind == "torus":
        return TorusGrid(d, draw(st.integers(2, 6)))
    n_vert = draw(st.integers(2, 8))
    if kind == "planar":
        # planar_strip_grid keeps at least 8 cells per unit length
        n_lat = draw(st.integers(2, 7))
        period, R = (draw(st.floats(0.2, 1.0)) * n / 8.0 for n in (n_lat, n_vert))
        return planar_strip_grid(period, R, n_lat, n_vert)
    v = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any))
    xi = make_rational_direction(v)
    lat = tuple(draw(st.integers(2, 7)) for _ in range(d - 1))
    R = draw(st.floats(0.5, 3.0))
    return StripGrid(xi.periods, xi.xi_hat, 0.1, R, lat, n_vert, xi=xi, check_resolution=False)


def corner_gradient(grid, U):
    """Physical cell gradient summed over the 2^d rolled cell corners."""
    d = grid.d
    values = [gather_corner(grid, U, c) for c in corners(d)]
    g = np.zeros((d,) + values[0].shape)
    for c, Uc in zip(corners(d), values):
        for ax in range(d):
            g[ax] += (1.0 if c[ax] else -1.0) / 2.0 ** (d - 1) * Uc
    return np.tensordot(grid.grad_map, g, axes=(1, 0))


@settings(max_examples=80, deadline=None)
@given(grid=grids(), N=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_stencil_matches_corner_oracles(grid, N, seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((N,) + grid.node_shape)
    q = rng.standard_normal((grid.d, N) + grid.cell_shape)
    U0, q0 = U.copy(), q.copy()

    g = grid.phys_gradient(U)
    ref = corner_gradient(grid, U)
    assert g.shape == ref.shape == (grid.d, N) + grid.cell_shape
    assert g.flags.c_contiguous
    assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()

    K = assemble_matrix(grid, identity_tensor(grid.d, n_components=N))
    KU = (K @ U.ravel()).reshape(U.shape)
    LU = grid.scatter_flux(g)
    assert LU.shape == U.shape
    scale = abs(K).sum(axis=1).max() * np.abs(U).max()
    assert np.abs(LU - KU).max() <= 1e-12 * scale

    # a non-identity, nonsymmetric tensor field applied matrix free
    tensor = random_tensor(rng, grid.d, N, symmetric=False)
    K = assemble_matrix(grid, tensor)
    KU = (K @ U.ravel()).reshape(U.shape)
    AU = TensorOperator(grid, tensor(grid.cell_centers()))(U)
    scale = abs(K).sum(axis=1).max() * np.abs(U).max()
    assert np.abs(AU - KU).max() <= 1e-12 * scale

    # scatter_flux is the adjoint of phys_gradient weighted by the cell volume
    Lq = grid.scatter_flux(q)
    assert Lq.shape == U.shape and Lq.flags.c_contiguous
    lhs = float((Lq * U).sum())
    rhs = float((q * g).sum()) * grid.cellvol
    assert abs(lhs - rhs) <= 1e-12 * grid.cellvol * float(np.abs(q * g).sum())
    # the passes run on frames of their own; the arguments are left alone
    assert np.array_equal(U, U0) and np.array_equal(q, q0)


def test_stencil_memory_stays_below_the_strided_peak():
    # the 64 x 257 node strip of the benchmark's discontinuity profile; the
    # bound is the peak of one gradient and one scatter, each on a new
    # StencilWork, when they combined the geometry maps on the frame corners
    # (strided views, whose products numpy buffers): 865,024 bytes, about
    # 6.6 times the values.  Run as passes on arrays of each pass's own
    # shape, the peak was 994,752 bytes.
    grid = planar_strip_grid(1.0, 4.0, 64, 256)
    assert grid.node_shape == (64, 257)
    U = np.random.default_rng(0).standard_normal((1,) + grid.node_shape)
    grid.scatter_flux(grid.phys_gradient(U))
    tracemalloc.start()
    try:
        grid.scatter_flux(grid.phys_gradient(U))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 865_024


class _PeakBetweenSolves:
    """A reference solver whose solve reads tracemalloc between its calls:
    from the end of one call to the start of the next, after ``warm``
    calls, the peak above the memory in use when the last call ended, and
    at each call's end the memory in use.  The transforms of the solve
    itself are left out."""

    def __init__(self, ref, warm):
        self.ref, self.warm, self.calls = ref, warm, 0
        self.growth, self.in_use = [], []

    def solve(self, r, out=None):
        if self.calls > self.warm:
            self.growth.append(tracemalloc.get_traced_memory()[1] - self.in_use[-1])
        x = self.ref.solve(r, out)
        self.calls += 1
        self.in_use.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return x


@pytest.mark.parametrize(
    "op", [ReducedRootKink(1.0), KinkPotential2D()], ids=["fixed-point", "descent"]
)
def test_nonlinear_iterations_allocate_no_strip_array(op):
    # the 64 x 257 node strip again, with the discontinuity demo's L(e3, e1)
    # map (fixed point) and its e2 restriction (descent) at tau = 1/16; once
    # the workspace holds its arrays, what an iteration allocates outside
    # the reference solve stays below one array of the strip's values, and
    # so does all that the iterations keep allocated.  Before the
    # workspace, each span between two solves allocated 0.86 MB (fixed
    # point) and 1.18 MB (descent).
    grid = planar_strip_grid(1.0, 4.0, 64, 256)
    strip = 8 * math.prod(grid.node_shape)
    assert strip == 131_584
    problem = StripProblem(grid, op, lambda c: 1 / 3 + np.cos(2 * np.pi * c[0]), tau=1 / 16)
    ref = StripReferenceSolver(grid)
    U0 = ref.lift(boundary_values(problem, grid))
    loop = _descent_variational if op.is_variational else _fixed_point_monotone
    loop(problem, grid, ref, op, U0, None)  # numpy's FFT plans are cached on the first solve
    measured = _PeakBetweenSolves(ref, warm=6)
    tracemalloc.start()
    try:
        loop(problem, grid, measured, op, U0, None)
    finally:
        tracemalloc.stop()
    assert len(measured.growth) >= 8
    assert max(measured.growth) < strip
    steady = measured.in_use[measured.warm:]
    assert steady[-1] - steady[0] < strip


@settings(max_examples=80, deadline=None)
@given(grid=grids())
def test_symbol_matches_corner_oracle(grid):
    torus = isinstance(grid, TorusGrid)
    modes = _mode_angles(grid.node_shape) if torus else _mode_angles(grid.lat_cells, half=True)
    T = _stencil_symbol(grid, modes)
    ref = corner_symbol(grid, modes)
    assert sorted(T) == sorted(ref) == ([0] if torus else [-1, 0, 1])
    scale = max(np.abs(b).max() for b in ref.values())
    for key, band in ref.items():
        assert np.abs(T[key] - band).max() <= 1e-14 * scale

    # the reference solvers' null masks, recomputed from the oracle symbol
    if torus:
        null = np.abs(ref[0]) <= 1e-12 * np.abs(ref[0]).max()
        assert np.array_equal(TorusReferenceSolver(grid).null_mask, null)
    else:
        null = np.maximum(np.abs(ref[1]), np.abs(ref[0])) <= 1e-12 * scale
        assert np.array_equal(StripReferenceSolver(grid).null_mask, null)

    K = assemble_matrix(grid, identity_tensor(grid.d))
    diag = K.diagonal().reshape(grid.node_shape)
    interior = diag if torus else diag[..., 1:-1]
    assert np.abs(interior - _interior_diagonal(grid)).max() <= 1e-13 * interior.max()
