"""Assembled Galerkin matrices: the oracle of the matrix-free operators.

The library applies every operator matrix free (``grid.scatter_flux`` of
the cell flux of ``grid.phys_gradient``).  The tests check it against the
textbook construction kept here: per cell the element matrix
phi^T A phi * vol, phi the physical gradient weight of each of the cell's
2^d corners, scattered to the corners' global nodes and summed by a
COO -> CSR conversion.  scipy is a test-only dependency.  The same corner
weights give ``corner_symbol``, the Fourier symbol of the A = I element
stencil summed over corner pairs, the oracle of the reference solvers'
symbol, which the library takes from the stencil passes.

``apply_tensor`` is the unfolded form of the library's linear operator
(``grid.TensorOperator``, which folds both geometry maps into the cell
tensors): the cell flux of the tensor times ``grid.phys_gradient``, then
``grid.scatter_flux``.

``lift`` is the stencil form of the reference solver's harmonic extension:
the residual of the repeated bottom from one gradient / scatter pair, then
a full reference solve.  The library builds the same residual in mode space.

``meshgrid_coords`` is the textbook form of a strip grid's point
coordinates: full meshgrid index arrays, each times its edge vector, added
axis by axis onto zeros, then the origin.  The library adds the same terms
in the same order on broadcast arrays, so the two agree bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp


def corners(d):
    """The 2^d corners of a cell as 0/1 offsets per axis."""
    return tuple(itertools.product((0, 1), repeat=d))


def corner_weights(grid):
    """Physical gradient weight of each cell corner, (d, 2^d): the cell
    gradient is sum_c phi[:, c] U(corner c)."""
    d = grid.d
    ref = np.array([[(1.0 if c[ax] else -1.0) for c in corners(d)] for ax in range(d)])
    return grid.grad_map @ ref / 2.0 ** (d - 1)


def corner_symbol(grid, modes):
    """Fourier symbol of the A = I element stencil summed over corner pairs,
    keyed by the offset along the first untransformed axis (0 when ``modes``
    covers every axis)."""
    phi = corner_weights(grid)
    Ke = grid.cellvol * (phi.T @ phi)
    n = len(modes)
    cs = corners(grid.d)
    bands = {}
    for ci, c in enumerate(cs):
        for cj, c2 in enumerate(cs):
            diff = np.subtract(c2, c)
            key = int(diff[n]) if n < grid.d else 0
            phase = np.exp(1j * sum(k * th for k, th in zip(diff, modes)))
            bands[key] = bands.get(key, 0.0) + Ke[ci, cj] * phase
    return bands


def gather_corner(grid, U, c):
    """Values of U (..., *node_shape) at corner c of every cell:
    (..., *cell_shape).  A periodic axis rolls, so its last cell takes node 0;
    any other axis slices."""
    A = U
    for ax, (offset, periodic) in enumerate(zip(c, grid.periodic)):
        axis = A.ndim - grid.d + ax
        if periodic:
            if offset:
                A = np.roll(A, -1, axis=axis)
        else:
            idx = [slice(None)] * A.ndim
            idx[axis] = slice(1, None) if offset else slice(None, -1)
            A = A[tuple(idx)]
    return A


def corner_node_ids(grid):
    """Global node index of each cell corner: array (2^d, n_cells)."""
    ids = np.arange(grid.n_nodes).reshape(grid.node_shape)
    return np.stack([gather_corner(grid, ids, c).ravel() for c in corners(grid.d)])


def assemble_matrix(grid, tensor):
    """CSR matrix of the bilinear form for a LinearTensorField.

    Dof layout: component-major, dof = i * n_nodes + node.  Rows are test
    functions; nonsymmetric tensors produce nonsymmetric matrices.
    """
    N = tensor.n_components
    nn = grid.n_nodes
    A = tensor(grid.cell_centers())  # (d, d, N, N, *cells)
    A = A.reshape(A.shape[:4] + (-1,))  # flatten cells
    phi = corner_weights(grid)
    vals = np.einsum("ac,abijs,bd->sicjd", phi, A, phi, optimize=True) * grid.cellvol
    cid = corner_node_ids(grid)  # (2^d, ncells)
    comp = np.arange(N) * nn
    rows = comp[None, :, None, None, None] + cid.T[:, None, :, None, None]
    cols = comp[None, None, None, :, None] + cid.T[:, None, None, None, :]
    rows = np.broadcast_to(rows, vals.shape).ravel()
    cols = np.broadcast_to(cols, vals.shape).ravel()
    K = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(N * nn, N * nn))
    return K.tocsr()


def strip_dof_partition(grid, n_components):
    """(free, bottom) dof index arrays for a strip grid: the bottom level is
    Dirichlet, every other level (the natural top included) is free."""
    nn = grid.n_nodes
    node_ids = np.arange(nn).reshape(grid.node_shape)
    comp = np.arange(n_components) * nn

    def expand(nodes):
        return (comp[:, None] + nodes[None, :]).ravel()

    return expand(node_ids[..., 1:].ravel()), expand(node_ids[..., 0].ravel())


def apply_reference(grid, U):
    """Discrete Laplacian (A = I) applied componentwise, matrix free."""
    return grid.scatter_flux(grid.phys_gradient(U))


def apply_tensor(grid, A, V):
    """scatter_flux(A grad V) for cell tensors A (d, d, N, N, *cells): the
    flux of the physical gradient, each geometry map applied on its own."""
    return grid.scatter_flux(np.einsum("abij...,bj...->ai...", A, grid.phys_gradient(V)))


def meshgrid_coords(grid, shape, offset):
    """Coordinates (d, *shape) of the points (index + offset) of ``grid``."""
    idx = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    pts = np.zeros((grid.d,) + tuple(shape))
    for ax in range(grid.d):
        coord = idx[ax] + offset
        for comp in range(grid.d):
            pts[comp] += coord * grid.edges[comp, ax]
    return pts + grid.origin.reshape((grid.d,) + (1,) * len(shape))


def lift(ref, bottom):
    """Harmonic extension of bottom (N, *lat) through the stencil: the
    repeated bottom minus the reference solve of its residual."""
    U = np.repeat(bottom[..., None], ref.grid.n_vert + 1, axis=-1)
    return U - ref.solve(apply_reference(ref.grid, U))
