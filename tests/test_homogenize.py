import math

import numpy as np
import pytest

from effbc import (
    SolverFailureError,
    cosine_field,
    epsilon_refinement_study,
    homogenize_linear,
    identity_tensor,
    isotropic_tensor,
    make_field,
)
from effbc.assembly import TorusReferenceSolver
from effbc.grid import TensorOperator, TorusGrid
from effbc.homogenize import _torus_linear_solve


def test_constant_tensor_is_fixed_point():
    hom = homogenize_linear(identity_tensor(2), h_cell=1 / 16)
    assert np.abs(hom.A0[:, :, 0, 0] - np.eye(2)).max() <= 1e-12
    assert np.abs(hom.correctors).max() <= 1e-12


def test_laminate_closed_forms(laminate2):
    # oracle: 1-d corrector ODE in closed form; for a = (2/3)(1 + cos/2)
    # the harmonic mean is 1/sqrt(3) (since mean of 1/(1 + b cos) over a
    # period is 1/sqrt(1 - b^2)) and the arithmetic mean is 2/3
    hom = homogenize_linear(laminate2, h_cell=1 / 64)
    assert hom.A0[0, 0, 0, 0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)
    assert hom.A0[1, 1, 0, 0] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert abs(hom.A0[0, 1, 0, 0]) <= 1e-10
    assert abs(hom.A0[1, 0, 0, 0]) <= 1e-10


@pytest.mark.parametrize("symmetric", [True, False])
def test_torus_solve_fails_loudly_below_rounding(laminate2, symmetric):
    # the failure gate reads the true residual, which cannot reach 1e-30
    grid = TorusGrid(2, 16)
    Ac = laminate2(grid.cell_centers())
    E = np.zeros((2, 1) + grid.cell_shape)
    E[0, 0] = 1.0
    b = -grid.scatter_flux(np.einsum("abij...,bj...->ai...", Ac, E))
    with pytest.raises(SolverFailureError) as exc:
        _torus_linear_solve(
            TensorOperator(grid, Ac), TorusReferenceSolver(grid), b, symmetric, rtol=1e-30
        )
    assert exc.value.trace and exc.value.residual > 1e-28


@pytest.mark.parametrize("symmetric", [True, False])
def test_torus_solve_breakdown_fails_loudly(laminate2, symmetric):
    # a constant right-hand side is the preconditioner's null mode, so
    # r . z vanishes at once: the true-residual gate fails it, not a division
    grid = TorusGrid(2, 16)
    Ac = laminate2(grid.cell_centers())
    b = np.ones((1,) + grid.node_shape)
    with pytest.raises(SolverFailureError) as exc:
        _torus_linear_solve(TensorOperator(grid, Ac), TorusReferenceSolver(grid), b, symmetric)
    assert exc.value.residual == pytest.approx(1.0)


def test_corrector_gauge_zero_mean(laminate2):
    hom = homogenize_linear(laminate2, h_cell=1 / 32)
    assert hom.corrector_means() <= 1e-12


def test_effective_tensor_stable_under_mesh_halving(laminate2):
    h1 = homogenize_linear(laminate2, h_cell=1 / 64)
    h2 = homogenize_linear(laminate2, h_cell=1 / 128)
    assert np.abs(h1.A0 - h2.A0).max() <= 1e-4


def test_symmetric_coefficients_give_symmetric_tensor():
    # separable checkerboard-like profile: cos(2 pi y1) cos(2 pi y2) written
    # as a sum of lattice harmonics
    prof = make_field(
        2,
        terms=[(0.15, [1, 1], "cos"), (0.15, [1, -1], "cos")],
        constant=0.65,
    )
    A = isotropic_tensor(prof, lam=0.3)
    assert A.is_symmetric()
    hom = homogenize_linear(A, h_cell=1 / 32)
    assert np.abs(hom.A0 - hom.A0.transpose(1, 0, 3, 2)).max() <= 1e-9


def test_symmetric_cells_give_an_exactly_symmetric_tensor():
    # a 2-d isotropic a(y1, y2): the cell averages alone leave A0[0, 1] and
    # A0[1, 0] about 1e-18 apart, and an asymmetric A0 would send the
    # reduced strips of second-cell and sweep limits to BiCGStab
    from effbc.grid import _symmetric_cells
    from effbc.second_cell import reduce_tensor

    prof = make_field(
        2, terms=[(0.2, [1, 0], "cos"), (0.15, [0, 1], "sin"), (0.1, [1, 1], "cos")],
        constant=0.65,
    )
    hom = homogenize_linear(isotropic_tensor(prof, lam=0.3), h_cell=1 / 32)
    assert abs(hom.A0[0, 1, 0, 0]) > 1e-6  # a genuinely off-diagonal tensor
    assert _symmetric_cells(hom.A0)
    n = np.array([0.6, 0.8])
    red = reduce_tensor(hom.A0, n, np.array([0.8, -0.6]))
    assert _symmetric_cells(red)


def test_ellipticity_inherited(laminate2):
    hom = homogenize_linear(laminate2, h_cell=1 / 64)
    rng = np.random.default_rng(0)
    for _ in range(64):
        v = rng.standard_normal(2)
        quad = v @ hom.A0[:, :, 0, 0] @ v
        assert laminate2.lam * (v @ v) - 1e-9 <= quad <= (v @ v) + 1e-9


def test_flux_consistency_by_construction(laminate2):
    from effbc.grid import TorusGrid

    hom = homogenize_linear(laminate2, h_cell=1 / 32)
    grid = TorusGrid(2, 32)
    centers = grid.cell_centers()
    Ac = laminate2(centers)
    for j in range(2):
        E = np.zeros((2, 1) + grid.cell_shape)
        E[j, 0] = 1.0
        grads = grid.phys_gradient(hom.correctors[j, 0]) + E
        q = np.einsum("abij...,bj...->ai...", Ac, grads)
        mean_flux = q.reshape(2, -1).mean(axis=-1)
        assert np.abs(mean_flux - hom.A0[:, j, 0, 0]).max() <= 1e-12


def test_eps_study_constant_coefficient(xi_e2):
    study = epsilon_refinement_study(
        identity_tensor(2), cosine_field(2, [1, 0]), xi_e2, [1 / 4, 1 / 8], R=1.0
    )
    for row in study["rows"]:
        assert row["sup_error"] <= 1e-8  # algebraic tolerance only


def test_eps_study_laminate_ratios(laminate2, xi_e2, data_cos1):
    study = epsilon_refinement_study(laminate2, data_cos1, xi_e2, [1 / 4, 1 / 8, 1 / 16], R=2.0)
    ratios = study["ratios"]
    assert all(r <= 0.75 for r in ratios)
    # measured order at this ladder is ~0.72; it keeps climbing toward 1
    # with smaller eps (the log factor is not resolvable at desk scale)
    assert study["fitted_order"] >= 0.4
    # discretization error sits below the homogenization error: refining
    # the mesh at fixed eps barely moves the answer
    study_fine = epsilon_refinement_study(
        laminate2, data_cos1, xi_e2, [1 / 4], R=2.0, cells_per_eps=16
    )
    coarse = study["rows"][0]["sup_error"]
    fine = study_fine["rows"][0]["sup_error"]
    assert abs(coarse - fine) <= 0.1 * coarse


def test_eps_study_requires_integer_scale(laminate2, xi_e2, data_cos1):
    with pytest.raises(ValueError):
        epsilon_refinement_study(laminate2, data_cos1, xi_e2, [0.3], R=1.0)
