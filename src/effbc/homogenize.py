"""Effective operators: corrector cell problems and interior homogenization.

Linear tensors get the classical construction: for each coordinate
direction and component, a periodic corrector solves
-div(A(grad chi + e)) = 0 on the unit torus with zero-mean gauge, and the
effective tensor is the cell average of the corrected flux.  Gradient
form nonlinear operators minimize the periodic cell energy instead and
return the averaged flux at a gradient point p.

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
from .fields import LinearTensorField, _tensor, constant_field
from .grid import TensorOperator, TorusGrid, _symmetric_cells, build_strip_grid
from .solve import StripProblem, _descent, _krylov_solve, solve_linear

__all__ = [
    "HomogenizedTensor",
    "EffectiveMapSample",
    "EffectiveMapSampler",
    "homogenize_linear",
    "homogenize_nonlinear",
    "epsilon_refinement_study",
    "constant_tensor",
]

_DEFAULT_CELL_MESH = {2: 1.0 / 64.0, 3: 1.0 / 24.0}


def constant_tensor(A0, lam) -> LinearTensorField:
    """Wrap a constant (d, d, N, N) array as a LinearTensorField."""
    A0 = np.asarray(A0, dtype=float)
    d, _, N, _ = A0.shape
    return _tensor(d, N, lambda a, b, i, j: constant_field(d, A0[a, b, i, j]), lam)


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


def _torus_linear_solve(grid, Ac, ref, b, symmetric, rtol=1e-11):
    """Krylov solve of the (singular, consistent) torus system K x = b, with
    K applied matrix free from the cell tensors Ac (d, d, N, N, *cells)."""
    x, _, _ = _krylov_solve(TensorOperator(grid, Ac), ref.solve, b, rtol, 600, symmetric, 100.0)
    return ref.project_out_null(x)


def homogenize_linear(A: LinearTensorField, h_cell=None) -> HomogenizedTensor:
    """Effective tensor of a periodic linear coefficient field."""
    d, N = A.d, A.n_components
    h_cell = h_cell or _DEFAULT_CELL_MESH[d]
    n = int(round(1.0 / h_cell))
    grid = TorusGrid(d, n)
    ref = TorusReferenceSolver(grid)
    centers = grid.cell_centers()
    Ac = A(centers)  # (d, d, N, N, *cells)
    symmetric = _symmetric_cells(Ac)
    A0 = np.empty((d, d, N, N))
    chis = np.empty((d, N, N) + grid.node_shape)
    for j in range(d):
        for beta in range(N):
            E = _unit_gradient(d, N, j, beta, grid.cell_shape)
            q0 = np.einsum("abij...,bj...->ai...", Ac, E)
            b = -grid.scatter_flux(q0)
            chi = _torus_linear_solve(grid, Ac, ref, b, symmetric)
            grads = grid.phys_gradient(chi)
            q = np.einsum("abij...,bj...->ai...", Ac, grads + E)
            mean_flux = q.reshape(d, N, -1).mean(axis=-1)
            A0[:, j, :, beta] = mean_flux
            chis[j, beta] = chi
    return HomogenizedTensor(A0=A0, correctors=chis, cell_mesh=1.0 / n, lam=A.lam)


@dataclass
class EffectiveMapSample:
    p: np.ndarray
    a0_of_p: np.ndarray
    energy: float
    corrector: np.ndarray = None

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.a0_of_p = np.asarray(self.a0_of_p, dtype=float)


def _torus_descent(grid, ref, op, p, tau, gtol_rel=1e-10, maxiter=400):
    """Minimize the periodic cell energy of p + grad chi over chi with the
    shared descent core; returns the zero-mean corrector and its energy."""
    p_cells = np.broadcast_to(
        np.asarray(p, dtype=float).reshape((grid.d,) + (1,) * grid.d), (grid.d,) + grid.cell_shape
    )
    centers = grid.cell_centers() if op.y_dependent else None

    def energy(chi):
        G = grid.phys_gradient(chi)[:, 0] + p_cells
        return float(grid.cellvol * op.potential(G, y=centers, tau=tau).sum()), G

    def residual(G):
        return grid.scatter_flux(op.flux(G, y=centers, tau=tau)[:, None])

    chi = np.zeros((1,) + grid.node_shape)
    E, G = energy(chi)
    scale = max(1.0, abs(E))
    gtol = gtol_rel * scale * grid.cellvol / grid.spacings[0] ** 2
    chi, E, _, _, _ = _descent(energy, residual, ref.solve, chi, E, G, gtol, scale, maxiter)
    return ref.project_out_null(chi), E


def homogenize_nonlinear(op, p, h_cell=None, tau=0.0) -> EffectiveMapSample:
    """Averaged flux of the corrected gradient field p + grad chi.

    For y-independent operators the corrector vanishes and a0(p) = a(p)
    without any solve.
    """
    p = np.asarray(p, dtype=float)
    if not op.y_dependent:
        a0 = op.flux(p.reshape(-1, 1), tau=tau)[:, 0]
        en = float(op.potential(p.reshape(-1, 1), tau=tau)[0]) if op.is_variational else float("nan")
        return EffectiveMapSample(p=p, a0_of_p=a0, energy=en)
    if not op.is_variational:
        raise ValueError("nonlinear homogenization needs a gradient-form operator")
    d = op.d
    h_cell = h_cell or _DEFAULT_CELL_MESH[d]
    grid = TorusGrid(d, int(round(1.0 / h_cell)))
    ref = TorusReferenceSolver(grid)
    chi, E = _torus_descent(grid, ref, op, p, tau)
    p_cells = np.broadcast_to(p.reshape((d,) + (1,) * d), (d,) + grid.cell_shape)
    grads = grid.phys_gradient(chi)[:, 0] + p_cells
    centers = grid.cell_centers() if op.y_dependent else None
    q = op.flux(grads, y=centers, tau=tau)
    a0 = q.reshape(d, -1).mean(axis=-1)
    return EffectiveMapSample(p=p, a0_of_p=a0, energy=E, corrector=chi)


class EffectiveMapSampler:
    """On-demand cache of effective-map samples, keyed by gradient direction.

    Positive 1-homogeneity lets a sample at p/|p| serve every magnitude,
    so the cache only ever holds unit directions in that case.
    """

    def __init__(self, op, h_cell=None, tau=0.0):
        self.op = op
        self.h_cell = h_cell
        self.tau = tau
        self._cache = {}

    def _key(self, p):
        # gradients that agree to 1e-6 share a sample
        return tuple(np.round(np.asarray(p) / 1e-6).astype(np.int64).tolist())

    def sample(self, p) -> EffectiveMapSample:
        p = np.asarray(p, dtype=float)
        if getattr(self.op, "homogeneous", False):
            norm = float(np.linalg.norm(p))
            if norm == 0.0:
                return EffectiveMapSample(p=p, a0_of_p=np.zeros_like(p), energy=0.0)
            unit = p / norm
            key = self._key(unit)
            if key not in self._cache:
                self._cache[key] = homogenize_nonlinear(self.op, unit, self.h_cell, self.tau)
            base = self._cache[key]
            return EffectiveMapSample(p=p, a0_of_p=norm * base.a0_of_p, energy=base.energy)
        key = self._key(p)
        if key not in self._cache:
            self._cache[key] = homogenize_nonlinear(self.op, p, self.h_cell, self.tau)
        return self._cache[key]

    def __len__(self):
        return len(self._cache)


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
