"""Effective operators: corrector cell problems and interior homogenization.

Linear tensors get the classical construction: for each coordinate
direction and component, a periodic corrector solves
-div(A(grad chi + e)) = 0 on the unit torus with zero-mean gauge, and the
effective tensor is the cell average of the corrected flux.

The epsilon refinement study solves strip problems with coefficients
A(y/eps) against the effective-tensor solve with the same data and mesh
and tabulates the uniform error, the numerical realization of interior
homogenization of half-space problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import TorusReferenceSolver
from .errors import NonConvergedError, SolverFailureError
from .fields import LinearTensorField, constant_tensor
from .grid import TensorOperator, TorusGrid, build_strip_grid
from .solve import StripProblem, _krylov_solve, solve_linear

__all__ = [
    "HomogenizedTensor",
    "homogenize_linear",
    "epsilon_refinement_study",
    "constant_tensor",
]

_DEFAULT_CELL_MESH = {2: 1.0 / 64.0, 3: 1.0 / 24.0}


@dataclass
class HomogenizedTensor:
    """Constant effective tensor with the correctors that produced it."""

    A0: np.ndarray  # (d, d, N, N)
    correctors: np.ndarray  # (d, N, N, *nodes): chi^{j beta}, component i
    cell_mesh: float
    lam: float

    def __post_init__(self):
        self.A0.setflags(write=False)

    def as_tensor_field(self) -> LinearTensorField:
        return constant_tensor(self.A0, self.lam)

    def corrector_means(self):
        d, N = self.A0.shape[0], self.A0.shape[2]
        flat = self.correctors.reshape(d, N, N, -1)
        return np.abs(flat.mean(axis=-1)).max()


def _unit_gradient(d, N, j, beta, shape):
    E = np.zeros((d, N) + shape)
    E[j, beta] = 1.0
    return E


def _torus_linear_solve(K, ref, b, symmetric, rtol=1e-11):
    """Krylov solve of the (singular, consistent) torus system K x = b, with
    K a TensorOperator of the torus."""
    x, _, _ = _krylov_solve(K, ref.solve, b, rtol, 600, symmetric, 100.0)
    return ref.project_out_null(x)


def homogenize_linear(A: LinearTensorField, h_cell=None) -> HomogenizedTensor:
    """Effective tensor of a periodic linear coefficient field, exactly
    symmetric (under the (a, b)(i, j) swap) when every cell tensor is."""
    d, N = A.d, A.n_components
    h_cell = h_cell or _DEFAULT_CELL_MESH[d]
    n = int(round(1.0 / h_cell))
    grid = TorusGrid(d, n)
    ref = TorusReferenceSolver(grid)
    centers = grid.cell_centers()
    Ac = A(centers)  # (d, d, N, N, *cells)
    K = TensorOperator(grid, Ac)
    A0 = np.empty((d, d, N, N))
    chis = np.empty((d, N, N) + grid.node_shape)
    for j in range(d):
        for beta in range(N):
            E = _unit_gradient(d, N, j, beta, grid.cell_shape)
            q0 = np.einsum("abij...,bj...->ai...", Ac, E)
            b = -grid.scatter_flux(q0)
            chi = _torus_linear_solve(K, ref, b, K.symmetric)
            grads = grid.phys_gradient(chi)
            q = np.einsum("abij...,bj...->ai...", Ac, grads + E)
            mean_flux = q.reshape(d, N, -1).mean(axis=-1)
            A0[:, j, :, beta] = mean_flux
            chis[j, beta] = chi
    if K.symmetric:  # the cell averages can leave A0's mirror entries an ulp apart
        A0 = 0.5 * (A0 + A0.swapaxes(0, 1).swapaxes(2, 3))
    return HomogenizedTensor(A0=A0, correctors=chis, cell_mesh=1.0 / n, lam=A.lam)


def epsilon_refinement_study(
    operator, data, xi, eps_ladder, R=2.0, h_cell=None, cells_per_eps=8, effective=None
):
    """Uniform error between the A(y/eps) solve and the effective solve.

    Meshes resolve the oscillation (h <= eps / cells_per_eps); both solves
    share the grid, one reference-solver cache and the data, Neumann top.  The
    operator is homogenized on the cell mesh ``h_cell`` unless its
    HomogenizedTensor is given as ``effective``.  Returns the error table,
    the consecutive ratios, and the fitted order in eps.  Any solve failure
    aborts with the partial table attached to the exception.
    """
    if not isinstance(operator, LinearTensorField):
        raise ValueError("the refinement study is implemented for linear tensors")
    hom = effective if effective is not None else homogenize_linear(operator, h_cell=h_cell)
    A0f = hom.as_tensor_field()
    rows = []
    try:
        for eps in eps_ladder:
            inv = 1.0 / eps
            if abs(round(inv) - inv) > 1e-9:
                raise ValueError(f"1/eps must be an integer, got eps={eps}")
            A_eps = operator.scale_argument(int(round(inv)))
            h = eps / cells_per_eps
            grid = build_strip_grid(xi, 0.0, R, h=h)
            solvers = {}
            u_eps, u_hom = (
                solve_linear(StripProblem(grid, A, data), solvers)
                for A in (A_eps, A0f)
            )
            err = float(np.abs(u_eps.values - u_hom.values).max())
            rows.append({"eps": float(eps), "sup_error": err, "h": h})
    except (SolverFailureError, NonConvergedError) as exc:
        exc.trace = rows
        raise
    errs = np.array([r["sup_error"] for r in rows])
    eps = np.array([r["eps"] for r in rows])
    if len(rows) > 1 and np.all(errs > 0):
        order = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
        ratios = (errs[1:] / errs[:-1]).tolist()
    else:
        order = float("nan")
        ratios = []
    return {"rows": rows, "fitted_order": order, "ratios": ratios, "homogenized": hom}
