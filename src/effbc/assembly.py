"""Galerkin assembly on structured grids and fast reference solvers.

The discrete operator is multilinear elements with one-point (cell
center) quadrature.  Because every cell shares one Jacobian, the element
geometry collapses to a single d x 2^d weight matrix ``grid.phi`` and the
constant-coefficient operator is diagonalized exactly by fast transforms:
periodic lateral axes give a circulant structure (FFT), and the vertical
axis leaves one Hermitian Toeplitz tridiagonal per lateral Fourier mode,
which a phase twist and a sine transform (DST) diagonalize.  The strip
solve gives the harmonic-extension initial guess and the preconditioner of
the linear and nonlinear strip solvers; the torus solve preconditions the
cell problems.  The strip solvers apply the operator matrix free; the
assembled matrix serves the torus cell problems of homogenization and the
tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "assemble_matrix",
    "corner_node_ids",
    "strip_dof_partition",
    "StripReferenceSolver",
    "TorusReferenceSolver",
]


def corner_node_ids(grid):
    """Global node index of each cell corner: array (2^d, n_cells)."""
    ids = np.arange(grid.n_nodes).reshape(grid.node_shape)
    out = []
    for c in grid.corners:
        out.append(grid._gather_corner(ids, c).ravel())
    return np.stack(out)


def assemble_matrix(grid, tensor):
    """CSR matrix of the bilinear form for a LinearTensorField.

    Dof layout: component-major, dof = i * n_nodes + node.  Rows are test
    functions; nonsymmetric tensors produce nonsymmetric matrices.
    """
    N = tensor.n_components
    nn = grid.n_nodes
    centers = grid.cell_centers()
    A = tensor(centers)  # (d, d, N, N, *cells)
    A = A.reshape(A.shape[:4] + (-1,))  # flatten cells
    phi = grid.phi
    vals = np.einsum("ac,abijs,bd->sicjd", phi, A, phi, optimize=True) * grid.cellvol
    cid = corner_node_ids(grid)  # (2^d, ncells)
    ncells = cid.shape[1]
    nc = len(grid.corners)
    comp = np.arange(N) * nn
    rows = comp[None, :, None, None, None] + cid.T[:, None, :, None, None]
    cols = comp[None, None, None, :, None] + cid.T[:, None, None, None, :]
    rows = np.broadcast_to(rows, vals.shape).ravel()
    cols = np.broadcast_to(cols, vals.shape).ravel()
    K = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(N * nn, N * nn))
    return K.tocsr()


def strip_dof_partition(grid, n_components, top_dirichlet):
    """(free, bottom, top) dof index arrays for a strip grid."""
    nn = grid.n_nodes
    node_ids = np.arange(nn).reshape(grid.node_shape)
    bottom = node_ids[..., 0].ravel()
    top = node_ids[..., -1].ravel()
    fixed_nodes = np.concatenate([bottom, top]) if top_dirichlet else bottom
    fixed_mask = np.zeros(nn, dtype=bool)
    fixed_mask[fixed_nodes] = True
    free_nodes = np.nonzero(~fixed_mask)[0]
    comp = np.arange(n_components) * nn

    def expand(nodes):
        return (comp[:, None] + nodes[None, :]).ravel()

    return expand(free_nodes), expand(bottom), expand(top)


def _element_matrix_identity(grid):
    return grid.cellvol * (grid.phi.T @ grid.phi)


def _mode_angles(shape, half=False):
    """Angles 2 pi k / n of the discrete Fourier modes, one meshgrid array per
    axis of ``shape``; ``half`` keeps only the n // 2 + 1 modes that rfftn
    returns on the last axis."""
    angles = [2.0 * np.pi * np.arange(n) / n for n in shape]
    if half:
        angles[-1] = angles[-1][: shape[-1] // 2 + 1]
    return np.meshgrid(*angles, indexing="ij")


def _stencil_symbol(grid, modes):
    """Fourier symbol of the A = I element stencil, keyed by vertical offset.

    ``modes`` holds the mode angles of the leading, Fourier-transformed grid
    axes.  Corner pairs are grouped by their offset along the next axis, so
    a strip gets the bands {-1, 0, 1} of one vertical tridiagonal per mode;
    when every axis is transformed the single key 0 holds the whole symbol.
    """
    Ke = _element_matrix_identity(grid)
    n = len(modes)
    bands = {}
    for ci, c in enumerate(grid.corners):
        for cj, c2 in enumerate(grid.corners):
            diff = np.subtract(c2, c)
            key = int(diff[n]) if n < grid.d else 0
            phase = np.exp(1j * sum(k * th for k, th in zip(diff, modes)))
            bands[key] = bands.get(key, 0.0) + Ke[ci, cj] * phase
    return bands


class StripReferenceSolver:
    """Exact solver for the constant-coefficient (A = I) strip operator.

    Solves K_ref x = r on the free nodes (bottom Dirichlet, top either
    natural or Dirichlet).  A real lateral FFT leaves, per Fourier mode, a
    Hermitian Toeplitz tridiagonal in the vertical with bands
    (conj(a), t0, a); the natural top halves the last row to (conj(a), t0/2)
    because the shear cross terms cancel over corner pairs.  The twist
    x_k = exp(-i k arg a) y_k makes it the real symmetric (|a|, t0, |a|),
    which sine transforms diagonalize (Buzbee, Golub and Nielson, SIAM J.
    Numer. Anal. 7, 1970): DST-I for a Dirichlet top, eigenvalues
    t0 + 2|a| cos(j pi / (n + 1)); DST-III then DST-II for the natural top
    after doubling the last entry, eigenvalues t0 + 2|a| cos((j - 1/2) pi / n).

    ``null_mask`` flags the lateral modes of the rfftn half spectrum on
    which every band vanishes: hourglass modes of the one-point quadrature
    (zero discrete energy), pseudo-inverted to zero.
    """

    def __init__(self, grid, top_dirichlet=False):
        self.grid = grid
        self.top_dirichlet = bool(top_dirichlet)
        lat_shape = grid.lat_cells
        self.lat_axes = tuple(range(1, grid.d))  # axes of (N, *lat, levels) arrays
        T = _stencil_symbol(grid, _mode_angles(lat_shape, half=True))
        nv = grid.n_vert
        n_free = nv - 1 if self.top_dirichlet else nv
        if n_free < 1:
            raise ValueError("strip too shallow for a free interior")
        self.n_free = n_free
        a, t0 = np.abs(T[1]), T[0].real
        scale = max(np.abs(b).max() for b in T.values())
        self.null_mask = np.maximum(a, np.abs(T[0])) <= 1e-12 * scale
        j = np.arange(1, n_free + 1)
        if self.top_dirichlet:
            theta, norm, self._dst_types = j * np.pi / (n_free + 1), 2.0 * (n_free + 1), (1, 1)
        else:
            theta, norm, self._dst_types = (j - 0.5) * np.pi / n_free, 2.0 * n_free, (3, 2)
        mu = t0[..., None] + 2.0 * a[..., None] * np.cos(theta)
        self._inv = np.divide(
            1.0, mu * norm, out=np.zeros_like(mu), where=~self.null_mask[..., None]
        )
        # successive powers of exp(i arg a): a running product keeps the phase
        # step between neighbouring levels exact to rounding at any height
        step = np.exp(1j * np.angle(T[1]))[..., None]
        twist = np.cumprod(np.broadcast_to(step, step.shape[:-1] + (n_free,)), axis=-1)
        self._untwist = np.conj(twist)
        if not self.top_dirichlet:
            twist[..., -1] *= 2.0
        self._twist = twist

    def solve_free(self, r_free):
        """Solve for the free-level block; r_free is (N, *lat, n_free)."""
        from scipy import fft

        t_in, t_out = self._dst_types
        rhat = fft.rfftn(r_free, axes=self.lat_axes) * self._twist
        y = fft.dst(fft.dst(rhat, type=t_in, axis=-1) * self._inv, type=t_out, axis=-1)
        return fft.irfftn(y * self._untwist, s=self.grid.lat_cells, axes=self.lat_axes)

    def solve(self, r_full):
        """Solve with zero correction on fixed levels; r_full (N, *lat, levels)."""
        stop = -1 if self.top_dirichlet else r_full.shape[-1]
        corr = np.zeros_like(r_full)
        corr[..., 1:stop] = self.solve_free(r_full[..., 1:stop])
        return corr

    def lift(self, bottom, top=None):
        """Discrete harmonic extension of boundary values.

        bottom: (N, *lat); top: same shape (required iff top Dirichlet).
        """
        grid = self.grid
        levels = grid.n_vert + 1
        U = np.repeat(bottom[..., None], levels, axis=-1)
        if self.top_dirichlet:
            if top is None:
                raise ValueError("top values required for a Dirichlet top")
            frac = np.linspace(0.0, 1.0, levels)
            U = bottom[..., None] * (1.0 - frac) + top[..., None] * frac
        res = grid.apply_reference(U)
        return U - self.solve(res)


class TorusReferenceSolver:
    """FFT pseudo-inverse of the constant-coefficient torus operator.

    The symbol vanishes on the constant mode (and, for even cell counts,
    on the hourglass modes of the one-point quadrature); those modes are
    projected out, which fixes the zero-mean gauge of cell correctors.
    """

    def __init__(self, grid):
        self.grid = grid
        sigma = _stencil_symbol(grid, _mode_angles(grid.node_shape))[0]
        tol = 1e-12 * np.abs(sigma).max()
        self.null_mask = np.abs(sigma) <= tol
        inv = np.zeros_like(sigma)
        inv[~self.null_mask] = 1.0 / sigma[~self.null_mask]
        self._inv = inv
        self.axes = tuple(range(1, grid.d + 1))

    def solve(self, r):
        rhat = np.fft.fftn(r, axes=self.axes)
        return np.real(np.fft.ifftn(rhat * self._inv, axes=self.axes))

    def project_out_null(self, U):
        uhat = np.fft.fftn(U, axes=self.axes)
        uhat[..., self.null_mask] = 0.0
        return np.real(np.fft.ifftn(uhat, axes=self.axes))
