"""Structured grids for periodic strips and the unit torus.

A strip grid discretizes {s < y . xi_hat < s + R} in sheared coordinates:
lateral axes follow the boundary period lattice vectors ell_j (so lateral
wraparound is an exact lattice translation and coefficient fields stay
periodic across the identification), the last axis follows xi_hat.  Every
cell is the same parallelepiped, so the multilinear element geometry is a
single constant Jacobian.

Gradients are evaluated once per cell at the cell center (one point
quadrature); this is part of the definition of the discrete operator.
There the reference gradient along axis a is the forward difference along
a of the nodal values averaged over every other axis, so ``phys_gradient``
is d difference-and-average passes, one per axis, and ``scatter_flux`` is
their exact transpose.  These passes are the only description of the
discrete operator: the reference solvers take its Fourier symbol from the
same passes and ``_gradient_map``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidMeshError
from .lattice import RationalDirection

__all__ = ["StripGrid", "TorusGrid", "build_strip_grid", "planar_strip_grid"]

_DIV_TOL = 1e-9
_MAX_SPACING = 1.0 / 8.0  # at least 8 cells per unit length


def _along(ndim, axis, sl):
    """Index tuple taking slice ``sl`` on ``axis`` and everything elsewhere."""
    idx = [slice(None)] * ndim
    idx[axis] = sl
    return tuple(idx)


def _along_shape(ndim, axis, n):
    """Shape with n on ``axis`` and 1 elsewhere."""
    return (1,) * axis + (n,) + (1,) * (ndim - axis - 1)


_LO, _HI = slice(None, -1), slice(1, None)
_FIRST, _LAST = slice(0, 1), slice(-1, None)


def _pairsum(A, axis):
    """Sum of neighbouring entries along axis: n + 1 -> n."""
    return A[_along(A.ndim, axis, _HI)] + A[_along(A.ndim, axis, _LO)]


def _spread(B, axis, sign):
    """Transpose of _pairsum (sign 1) or of the forward difference (sign -1)
    along axis: n -> n + 1."""
    shape = list(B.shape)
    shape[axis] += 1
    out = np.empty(shape)
    mid = out[_along(out.ndim, axis, slice(1, -1))]
    lo, hi = B[_along(B.ndim, axis, _LO)], B[_along(B.ndim, axis, _HI)]
    (np.add if sign > 0 else np.subtract)(lo, hi, out=mid)
    # a plain negated copy: np.negative(..., out=) into this strided end
    # slice returns wrong values with numpy 2.4
    out[_along(out.ndim, axis, _FIRST)] = sign * B[_along(B.ndim, axis, _FIRST)]
    out[_along(out.ndim, axis, _LAST)] = B[_along(B.ndim, axis, _LAST)]
    return out


def _combine(row, arrays, out=None):
    """sum_j row[j] * arrays[j] over the non-zero entries of row."""
    terms = [(m, a) for m, a in zip(row, arrays) if m]
    acc = np.multiply(terms[0][1], terms[0][0], out=out)
    for m, a in terms[1:]:
        acc += m * a
    return acc


class _MeshBase:
    """Shared cell calculus; subclasses fix topology and geometry.

    ``periodic`` flags each grid axis: a periodic axis has as many nodes as
    cells and wraps around, any other axis has one node more than cells.
    """

    def _setup(self, edges):
        self.edges = np.asarray(edges, dtype=float)  # columns are cell edge vectors
        self.cellvol = abs(float(np.linalg.det(self.edges)))
        self.grad_map = np.linalg.inv(self.edges).T  # ref gradient -> physical
        # the passes below add and subtract without the 1/2 of each average,
        # which rides on the geometry factors instead
        halves = 0.5 ** (self.d - 1)
        self._gradient_map = self.grad_map * halves
        self._flux_map = self.grad_map.T * (self.cellvol * halves)

    # calculus -----------------------------------------------------------
    # A periodic axis is closed by appending its first node slice, so every
    # pass is a slice sum or difference over n + 1 nodes and n cells.
    def _wrap(self, U):
        lead = U.ndim - self.d
        E = np.empty(U.shape[:lead] + tuple(n + p for n, p in zip(U.shape[lead:], self.periodic)))
        E[tuple(slice(0, n) for n in U.shape)] = U
        for ax, p in enumerate(self.periodic):
            if p:
                axis = lead + ax
                E[_along(E.ndim, axis, _LAST)] = E[_along(E.ndim, axis, _FIRST)]
        return E

    def _fold(self, E):
        for ax, p in enumerate(self.periodic):
            if p:
                axis = E.ndim - self.d + ax
                E[_along(E.ndim, axis, _FIRST)] += E[_along(E.ndim, axis, _LAST)]
                E = E[_along(E.ndim, axis, _LO)]
        return np.ascontiguousarray(E)

    def _edge_sums(self, U):
        """Per axis a, the forward difference along a of U summed over the
        two nodes of every other axis: (d, ..., *cell_shape)."""
        E = self._wrap(U)
        lead = U.ndim - self.d
        g = np.empty((self.d,) + U.shape[:lead] + self.cell_shape)
        for a in range(self.d):
            A = E
            for b in range(self.d):
                if b != a:
                    A = _pairsum(A, lead + b)
            axis = lead + a
            np.subtract(A[_along(A.ndim, axis, _HI)], A[_along(A.ndim, axis, _LO)], out=g[a])
        return g

    def phys_gradient(self, U):
        """Physical cell-center gradient of nodal values U (..., *node_shape).

        In reference coordinates the gradient along axis a is the forward
        difference along a of U averaged over every other axis.
        """
        sums = self._edge_sums(U)
        out = np.empty_like(sums)
        for row, g in zip(self._gradient_map, out):
            _combine(row, sums, out=g)
        return out

    def scatter_flux(self, q):
        """Adjoint of phys_gradient including the cell volume weight.

        q has shape (d, N, *cell_shape); result (N, *node_shape).  The
        entries are the partial derivatives of sum_cells vol * F(grad u)
        with respect to nodal values when q = DF(grad u).
        """
        lead = q.ndim - 1 - self.d
        total = None
        for a in range(self.d):
            B = _spread(_combine(self._flux_map[a], q), lead + a, -1)
            for b in range(self.d):
                if b != a:
                    B = _spread(B, lead + b, 1)
            if total is None:
                total = B
            else:
                total += B
        return self._fold(total)


class StripGrid(_MeshBase):
    """Periodic-lateral strip mesh.

    ``periods`` are the lateral translation vectors (the identification of
    opposite lateral faces), ``normal`` the unit vector of the strip axis.
    ``xi`` keeps the originating RationalDirection when there is one.
    """

    def __init__(self, periods, normal, s, R, lat_cells, n_vert, xi=None, check_resolution=True):
        normal = np.asarray(normal, dtype=float)
        self.xi = xi
        self.d = normal.shape[0]
        self.normal = normal
        self.s = float(s)
        self.R = float(R)
        self.lat_cells = tuple(int(n) for n in lat_cells)
        self.n_vert = int(n_vert)
        if len(self.lat_cells) != self.d - 1:
            raise InvalidMeshError("one lateral cell count per period vector required")
        if self.n_vert < 2 or any(n < 2 for n in self.lat_cells):
            raise InvalidMeshError("need at least 2 cells per direction")
        lat_edges = [
            np.asarray(ell, dtype=float) / n for ell, n in zip(periods, self.lat_cells)
        ]
        h_r = self.R / self.n_vert
        edges = np.column_stack(lat_edges + [h_r * normal])
        self.spacings = tuple(float(np.linalg.norm(e)) for e in edges.T)
        if check_resolution and max(self.spacings) > _MAX_SPACING * (1.0 + 1e-9):
            raise InvalidMeshError(
                f"spacing {max(self.spacings):.4g} coarser than 8 cells per unit length"
            )
        self.node_shape = self.lat_cells + (self.n_vert + 1,)
        self.cell_shape = self.lat_cells + (self.n_vert,)
        self.origin = self.s * normal
        self.periodic = (True,) * (self.d - 1) + (False,)
        self._setup(edges)

    # --- coordinates -----------------------------------------------------
    def coord_columns(self, shape, offset=0.0):
        """Per component, the coordinates of the points (index + offset) of
        an index block ``shape``, as an array broadcastable to ``shape``
        with length 1 along every axis it is constant on.

        Each component starts from 0.0 and adds (index + offset) * edge per
        axis in axis order, then the origin: the same operations, entry by
        entry, as a sum over full meshgrid arrays.  A term that is the same
        float (bit for bit) at every index keeps one entry, which adds what
        every entry would have added.
        """
        cols = []
        for comp in range(self.d):
            acc = 0.0
            for ax, n in enumerate(shape):
                term = (np.arange(n) + offset) * self.edges[comp, ax]
                if (term.view(np.int64) == term.view(np.int64)[0]).all():
                    term = term[:1]
                acc = acc + term.reshape(_along_shape(len(shape), ax, term.size))
            cols.append(acc + self.origin[comp])
        return cols

    def _coords(self, shape, offset):
        # (d, *shape): one broadcast copy per component, no meshgrid, and the
        # same bits as the meshgrid sum (tests/assembly_oracle.py); the node
        # coordinates, the cell centers and the bottom plane all come here
        return np.stack([np.broadcast_to(c, shape) for c in self.coord_columns(shape, offset)])

    def node_coords(self):
        return self._coords(self.node_shape, 0.0)

    def cell_centers(self):
        return self._coords(self.cell_shape, 0.5)

    def bottom_coords(self):
        # level 0 alone: a one-level node block has the same lateral coords
        return self._coords(self.lat_cells + (1,), 0.0)[..., 0]

    @property
    def n_nodes(self):
        return int(np.prod(self.node_shape))

    def level_index(self, z):
        """Grid level closest to physical height z above the boundary."""
        h_r = self.R / self.n_vert
        k = int(round(z / h_r))
        if abs(k * h_r - z) > 1e-9 * max(1.0, abs(z)):
            raise InvalidMeshError(f"height {z} is not a grid level (h_r = {h_r})")
        return k

    def describe(self):
        return {
            "xi": self.xi.xi.tolist() if self.xi is not None else None,
            "normal": self.normal.tolist(),
            "s": self.s,
            "R": self.R,
            "lat_cells": list(self.lat_cells),
            "n_vert": self.n_vert,
            "spacings": list(self.spacings),
        }


class TorusGrid(_MeshBase):
    """Uniform grid on the unit torus [0,1)^d, periodic in every axis."""

    def __init__(self, d, n_cells):
        self.d = d
        self.n_cells = int(n_cells)
        if self.n_cells < 2:
            raise InvalidMeshError("need at least 2 cells per direction")
        self.node_shape = (self.n_cells,) * d
        self.cell_shape = self.node_shape
        self.periodic = (True,) * d
        self._setup(np.eye(d) / self.n_cells)
        self.spacings = (1.0 / self.n_cells,) * d

    def cell_centers(self):
        idx = np.meshgrid(*[np.arange(self.n_cells)] * self.d, indexing="ij")
        pts = np.stack([(g + 0.5) / self.n_cells for g in idx])
        return pts

    @property
    def n_nodes(self):
        return self.n_cells**self.d


def _cells_from_spacing(length, h, what):
    n = int(round(length / h))
    if n < 1 or abs(n * h - length) > _DIV_TOL * max(1.0, length):
        raise InvalidMeshError(f"h = {h} does not divide {what} = {length}")
    return n


def build_strip_grid(xi: RationalDirection, s, R, h=None, cells=None) -> StripGrid:
    """Grid for the strip {s < y . xi_hat < s + R}.

    With ``h`` given, h must divide the height R and every lateral period
    length exactly (InvalidMeshError otherwise).  ``cells`` overrides the
    per-direction cell counts directly, which is the only way to mesh
    geometries whose period lengths are incommensurable.
    """
    if cells is not None:
        lat_cells = tuple(cells[:-1])
        n_vert = cells[-1]
    else:
        if h is None:
            raise InvalidMeshError("either h or cells must be given")
        lat_cells = tuple(
            _cells_from_spacing(math.sqrt(float(ell @ ell)), h, "lateral period")
            for ell in xi.periods
        )
        n_vert = _cells_from_spacing(R, h, "strip height R")
    return StripGrid(xi.periods, xi.xi_hat, s, R, lat_cells, n_vert, xi=xi)


def planar_strip_grid(period, R, n_lat, n_vert, s=0.0) -> StripGrid:
    """Axis-aligned 2-d strip [0, period) x (s, s + R).

    Used for reduced problems whose lateral period is not tied to a
    lattice direction (it may be incommensurable with R).
    """
    return StripGrid(
        [np.array([float(period), 0.0])],
        np.array([0.0, 1.0]),
        s,
        R,
        (n_lat,),
        n_vert,
    )
