"""StripReferenceSolver against a dense solve of the assembled A = I matrix,
and its mode-space lift against the stencil lift of ``assembly_oracle``.

Small sheared and planar strips in d = 2 and 3 with a natural top, one and
two components, odd and even lateral counts (even counts on 3-d strips carry
the hourglass modes of the one-point quadrature).  The drawn strips are
narrow, so their last lateral axis runs the matrix DFT; the examples add
strips on both sides of ``_DENSE_DFT_CELLS``.
"""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effbc import identity_tensor, make_rational_direction, planar_strip_grid
from assembly_oracle import assemble_matrix, strip_dof_partition
from assembly_oracle import lift as oracle_lift
from effbc.assembly import StripReferenceSolver
from effbc.grid import StripGrid


def sheared_strip(v, lat, n_vert, R):
    xi = make_rational_direction(v)
    return StripGrid(xi.periods, xi.xi_hat, 0.1, R, lat, n_vert, xi=xi, check_resolution=False)


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
    lat = tuple(draw(st.integers(2, 7)) for _ in range(d - 1))
    return sheared_strip(v, lat, n_vert, draw(st.floats(0.5, 3.0)))


# strips on either side of the cutoff: a 2-d 64 and 65 (rfft) and a prime 41
# (matrix DFT), and 3-d strips whose last lateral axis has 63 and 64 cells
WIDE_2D = sheared_strip([1, 2], (64,), 2, 1.0), sheared_strip([1, 3], (65,), 3, 1.5)
PRIME_2D = sheared_strip([1, 5], (41,), 3, 1.0)
CUTOFF_3D = sheared_strip([1, 2, -1], (3, 63), 2, 1.0), sheared_strip([0, 1, 2], (2, 64), 2, 1.0)


def across_the_cutoff(test):
    for grid, N, seed in zip((*WIDE_2D, PRIME_2D, *CUTOFF_3D), (1, 2, 2, 1, 2), range(5)):
        test = example(grid=grid, N=N, seed=seed)(test)
    return test


def test_the_examples_sit_on_both_sides_of_the_cutoff():
    for grids in ((*WIDE_2D, PRIME_2D), CUTOFF_3D):
        assert {StripReferenceSolver(g)._dft is not None for g in grids} == {True, False}


def test_wide_strips_keep_no_dft_tables():
    # one cos/sin table of a 4096-cell axis would hold 2049 x 4096 doubles,
    # 67 MB; the set-up of a wide strip stays O(L levels)
    grid = sheared_strip([1, 2], (4096,), 2, 1.0)
    tracemalloc.start()
    try:
        StripReferenceSolver(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * grid.n_nodes


def _lateral_modes(ref, x):
    return np.fft.rfftn(x, axes=ref.lat_axes)


@settings(max_examples=60, deadline=None)
@given(grid=strips(), N=st.integers(1, 2), seed=st.integers(0, 2**16))
@across_the_cutoff
def test_solve_free_matches_dense_oracle(grid, N, seed):
    ref = StripReferenceSolver(grid)
    K = assemble_matrix(grid, identity_tensor(grid.d, n_components=N)).toarray()
    free, _ = strip_dof_partition(grid, N)
    Kff = K[np.ix_(free, free)]
    shape = (N,) + grid.lat_cells + (ref.n_free,)
    r = np.random.default_rng(seed).standard_normal(shape)

    x = ref.solve_free(r)

    # null lateral modes are pseudo-inverted to zero
    null = ref.null_mask
    xhat = _lateral_modes(ref, x)
    assert np.abs(xhat[:, null]).max(initial=0.0) <= 1e-12 * np.abs(xhat).max()
    # on every other mode x solves the dense system to a normwise backward
    # error of 1e-12; a residual relative to r alone would grow with the
    # condition number of the flat, sheared cells drawn here (up to 1e5)
    res = _lateral_modes(ref, (Kff @ x.ravel() - r.ravel()).reshape(shape))
    res[:, null] = 0.0
    res = np.fft.irfftn(res, s=grid.lat_cells, axes=ref.lat_axes)
    scale = np.abs(Kff).sum(axis=1).max() * np.abs(x).max() + np.abs(r).max()
    assert np.abs(res).max() <= 1e-12 * scale

    # a null mode is one on which every band vanishes: K annihilates the
    # lateral Fourier mode placed on any one free level
    nn = grid.n_nodes
    K1 = K[:nn, :nn]
    angles = np.meshgrid(
        *[2.0 * np.pi * np.arange(n) / n for n in grid.lat_cells], indexing="ij"
    )
    vanishes = np.zeros(null.shape, dtype=bool)
    for m in np.ndindex(*null.shape):
        wave = np.exp(1j * sum(th[m] * a for th, a in zip(angles, np.indices(grid.lat_cells))))
        v = np.zeros(grid.node_shape, dtype=complex)
        v[..., 1] = wave
        vanishes[m] = np.abs(K1 @ v.ravel()).max() <= 1e-12 * np.abs(K1).max()
    np.testing.assert_array_equal(null, vanishes)
    even_3d = grid.d == 3 and all(n % 2 == 0 for n in grid.lat_cells)
    assert null.any() == even_3d


# an even 3-d lateral grid carries hourglass modes, on which every band
# vanishes and the mode-space residual is zero
@settings(max_examples=60, deadline=None)
@given(grid=strips(), N=st.integers(1, 2), seed=st.integers(0, 2**16))
@example(grid=sheared_strip([0, 0, 1], (4, 6), 5, 1.0), N=2, seed=0)
@example(grid=sheared_strip([1, 2, -1], (6, 4), 3, 1.5), N=1, seed=1)
@across_the_cutoff
def test_lift_matches_the_stencil_oracle(grid, N, seed):
    ref = StripReferenceSolver(grid)
    bottom = np.random.default_rng(seed).standard_normal((N,) + grid.lat_cells)
    U = ref.lift(bottom)
    assert np.array_equal(U[..., 0], bottom)
    expect = oracle_lift(ref, bottom)
    assert np.abs(U - expect).max() <= 1e-11 * np.abs(expect).max()


@settings(max_examples=30, deadline=None)
@given(grid=strips(), N=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_lift_skips_the_solve_of_constant_data(grid, N, seed):
    ref = StripReferenceSolver(grid)
    rng = np.random.default_rng(seed)
    calls = []
    ref.solve_free = lambda r, out=None, _solve=ref.solve_free: calls.append(1) or _solve(r, out)
    # a constant column is exactly reference-harmonic under a natural top
    const = rng.standard_normal((N,) + (1,) * len(grid.lat_cells))
    const = np.broadcast_to(const, (N,) + grid.lat_cells)
    U = ref.lift(const)
    assert not calls
    assert np.array_equal(U, np.repeat(const[..., None], grid.n_vert + 1, axis=-1))
    expect = oracle_lift(ref, const)
    assert np.abs(U - expect).max() <= 1e-11 * np.abs(expect).max()
