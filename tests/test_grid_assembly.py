import math

import numpy as np
import pytest

from effbc import (
    InvalidMeshError,
    build_strip_grid,
    evaluate_field,
    identity_tensor,
    laminate_tensor,
    make_field,
    make_rational_direction,
    planar_strip_grid,
)
from assembly_oracle import (
    apply_reference, assemble_matrix, meshgrid_coords, strip_dof_partition,
)
from effbc.assembly import StripReferenceSolver, TorusReferenceSolver
from effbc.grid import TorusGrid
from effbc.solve import _reduced_strip


def test_axis_grid_shape():
    xi = make_rational_direction([0, 1])
    g = build_strip_grid(xi, 0.0, 4.0, h=1.0 / 8.0)
    assert g.cell_shape == (8, 32)
    assert g.spacings == (0.125, 0.125)


def test_rotated_grid_45deg():
    xi = make_rational_direction([1, 1])
    g = build_strip_grid(xi, 0.0, math.sqrt(2.0), h=math.sqrt(2.0) / 16.0)
    # lateral edge along (-1, 1)/sqrt 2, vertical along (1, 1)/sqrt 2
    lat = g.edges[:, 0] / np.linalg.norm(g.edges[:, 0])
    vert = g.edges[:, 1] / np.linalg.norm(g.edges[:, 1])
    assert np.allclose(lat, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
    assert np.allclose(vert, [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


def test_coefficient_periodic_across_identification():
    # A evaluated at the lateral wrap point equals A at the origin because
    # the identification is the lattice vector (-2, 1)
    xi = make_rational_direction([1, 2])
    g = build_strip_grid(xi, 0.3, 4.0 * math.sqrt(5.0), h=math.sqrt(5.0) / 20.0)
    prof = make_field(2, terms=[(0.5, [1, 0], "cos"), (0.25, [2, 1], "sin")], constant=1.0)
    pts = g.node_coords()
    left = pts[:, 0, :]
    right = left + np.asarray(xi.periods[0], dtype=float)[:, None]
    assert np.allclose(evaluate_field(prof, left), evaluate_field(prof, right), atol=1e-12)


def test_non_divisible_h_rejected():
    xi = make_rational_direction([0, 1])
    with pytest.raises(InvalidMeshError):
        build_strip_grid(xi, 0.0, 4.0, h=0.11)


def test_resolution_floor_enforced():
    xi = make_rational_direction([0, 1])
    with pytest.raises(InvalidMeshError):
        build_strip_grid(xi, 0.0, 4.0, h=0.25)


def test_cells_override_for_incommensurable_geometry():
    g = planar_strip_grid(2.0 * math.pi, 8.0, 64, 128)
    assert g.cell_shape == (64, 128)
    assert g.level_index(1.0) == 16
    with pytest.raises(InvalidMeshError):
        g.level_index(0.3)


def test_scatter_is_adjoint_of_gradient():
    xi = make_rational_direction([1, 2])
    g = build_strip_grid(xi, 0.0, math.sqrt(5.0), h=math.sqrt(5.0) / 20.0)
    rng = np.random.default_rng(0)
    U = rng.standard_normal((1,) + g.node_shape)
    q = rng.standard_normal((g.d, 1) + g.cell_shape)
    lhs = float((g.scatter_flux(q) * U).sum())
    rhs = float((q * g.phys_gradient(U)).sum()) * g.cellvol
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize(
    "v,h,R",
    [
        ([1, 2], math.sqrt(5.0) / 20.0, math.sqrt(5.0)),
        ([1, 1, 1], math.sqrt(2.0) / 12.0, math.sqrt(2.0)),
        ([0, 0, 1], 1.0 / 8.0, 1.0),
    ],
)
def test_reference_solver_matches_assembled_matrix(v, h, R):
    xi = make_rational_direction(v)
    g = build_strip_grid(xi, 0.1, R, h=h)
    K = assemble_matrix(g, identity_tensor(xi.d))
    free, _ = strip_dof_partition(g, 1)
    rng = np.random.default_rng(0)
    w = np.zeros(g.n_nodes)
    w[free] = rng.standard_normal(free.size)
    Kff = K[free][:, free]
    rvec = np.zeros(g.n_nodes)
    rvec[free] = Kff @ w[free]
    ref = StripReferenceSolver(g)
    x = ref.solve(rvec.reshape((1,) + g.node_shape))
    resid = Kff @ x.ravel()[free] - rvec[free]
    assert np.abs(resid).max() <= 1e-12 * np.abs(rvec[free]).max()


def test_reference_lift_is_discrete_harmonic():
    xi = make_rational_direction([0, 1])
    g = build_strip_grid(xi, 0.0, 1.0, h=1.0 / 16.0)
    ref = StripReferenceSolver(g)
    bc = g.bottom_coords()
    data = np.cos(2.0 * np.pi * bc[0])[None]
    U = ref.lift(data)
    res = apply_reference(g, U)
    # every level above the bottom is free, the natural top included
    assert np.abs(res[..., 1:]).max() <= 1e-13


@pytest.mark.parametrize("v,cells,s", [([0, 1], (16, 8), 0.0), ([1, 2], (20, 9), 0.3),
                                       ([1, 1, 1], (12, 12, 10), -0.7)])
def test_bottom_coords_is_level_zero_of_node_coords(v, cells, s):
    xi = make_rational_direction(v)
    g = build_strip_grid(xi, s, 1.0, cells=cells)
    assert np.array_equal(g.bottom_coords(), g.node_coords()[..., 0])


def _coords_grids():
    grids = {
        "sheared_2d": build_strip_grid(make_rational_direction([1, 2]), 0.3, 1.0, cells=(20, 9)),
        "sheared_2d_15": build_strip_grid(
            make_rational_direction([1, 5]), -1.1, 1.0, cells=(42, 8)
        ),
        "sheared_3d": build_strip_grid(
            make_rational_direction([1, 1, 1]), -0.7, 1.0, cells=(12, 12, 10)
        ),
        "sheared_3d_mixed": build_strip_grid(
            make_rational_direction([2, -1, 3]), 0.45, 0.5, cells=(30, 30, 5)
        ),
        # s = 0 and negative normals: -0.0 terms, whose sum depends on
        # starting from 0.0 (0.0 + -0.0 is 0.0)
        "signed_zeros_2d": build_strip_grid(
            make_rational_direction([-1, -1]), 0.0, 0.5, cells=(12, 4)
        ),
        "signed_zeros_3d": build_strip_grid(
            make_rational_direction([-2, -1, -2]), 0.0, 0.5, cells=(12, 18, 4)
        ),
    }
    wide = build_strip_grid(make_rational_direction([0, 0, 1]), 0.25, 1.0, cells=(16, 12, 8))
    # the strips of laterally invariant problems: y2 dropped; and on the
    # sheared strip the first period dropped, the second projected off it
    # and kept 2 cells wide
    grids["narrowed"] = _reduced_strip(wide, [1])[0]
    grids["narrowed_sheared"] = _reduced_strip(grids["sheared_3d"], [0, 1])[0]
    return grids


@pytest.mark.parametrize("name", sorted(_coords_grids()))
def test_coords_equal_the_meshgrid_formula_bit_for_bit(name):
    g = _coords_grids()[name]
    for got, shape, offset in [
        (g.node_coords(), g.node_shape, 0.0),
        (g.cell_centers(), g.cell_shape, 0.5),
        (g.bottom_coords(), g.lat_cells + (1,), 0.0),
    ]:
        want = meshgrid_coords(g, shape, offset)
        if got.ndim < want.ndim:  # the bottom plane drops its level axis
            want = want[..., 0]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_torus_solver_pseudoinverse():
    g = TorusGrid(2, 16)
    ref = TorusReferenceSolver(g)
    # constant mode and the hourglass mode are in the null space
    assert ref.null_mask[0, 0]
    assert ref.null_mask[8, 8]
    K = assemble_matrix(g, identity_tensor(2))
    rng = np.random.default_rng(1)
    w = rng.standard_normal((1,) + g.node_shape)
    r = (K @ w.ravel()).reshape(w.shape)
    x = ref.solve(r)
    resid = (K @ x.ravel()) - r.ravel()
    assert np.abs(resid).max() <= 1e-12 * np.abs(r).max()
    # gauge projection removes the mean
    proj = ref.project_out_null(w)
    assert abs(proj.mean()) <= 1e-13


def test_assembled_matrix_rowsums_vanish():
    # constants are in the kernel of the divergence form operator
    xi = make_rational_direction([1, 1])
    g = build_strip_grid(xi, 0.0, math.sqrt(2.0), h=math.sqrt(2.0) / 12.0)
    K = assemble_matrix(g, laminate_tensor(2))
    ones = np.ones(K.shape[1])
    assert np.abs(K @ ones).max() <= 1e-12
