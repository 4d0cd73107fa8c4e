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
discrete operator: each is a list of ufunc steps on frames, arrays of the
wrapped-node shape with the values in their leading corner, so that every
pass is one contiguous ufunc.  ``phys_gradient`` and ``scatter_flux``
run the steps that a ``StencilWork`` built once on the frames it keeps:
the one handed to them (a nonlinear strip solve keeps one for the whole
solve), else a new one per call.  They combine the edge sums with the
geometry maps on whole frames and on the contiguous flux, and copy the
corner out or in once.  ``TensorOperator``, the linear Galerkin operator of
cell tensors, builds the same passes once on frames of its own, with the
flux map, the gradient map and the cell volume folded into the cell
tensors.  The reference solvers take the operator's Fourier symbol from
the same passes and ``_gradient_map``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidMeshError
from .lattice import RationalDirection

__all__ = ["StencilWork", "StripGrid", "TorusGrid", "build_strip_grid", "planar_strip_grid"]

_DIV_TOL = 1e-9
_MAX_SPACING = 1.0 / 8.0  # at least 8 cells per unit length


def _along(axis, sl):
    """Index tuple taking slice ``sl`` on ``axis`` and everything elsewhere."""
    return (_ALL,) * axis + (sl,)


def _along_shape(ndim, axis, n):
    """Shape with n on ``axis`` and 1 elsewhere."""
    return (1,) * axis + (n,) + (1,) * (ndim - axis - 1)


_ALL, _LO = slice(None), slice(None, -1)
_FIRST = slice(0, 1)


def _corner(A, shape):
    """The leading corner of shape ``shape`` over A's last axes."""
    return A[(Ellipsis,) + tuple(slice(0, n) for n in shape)]


# A pass reads two views of a frame, a C-ordered array of the wrapped-node
# shape whose leading corner holds the values, that are one entry apart
# along an axis: the whole flat array shifted by the axis' stride, so that
# the pass is one contiguous ufunc.  Where the shift carries into the next
# row the result mixes rows; no value in the corner reads such an entry,
# and every entry of an output frame is written by each pass.
def _ends(A, axis):
    """Views of the frame A without its last and without its first entry
    along axis, flat."""
    s = A.strides[axis] // A.itemsize
    flat = A.reshape(-1)
    return flat[:-s], flat[s:]


def _difference(op, A, axis, out):
    """Steps writing op(next, this) of A's neighbours along axis into the
    frame out (its last row along the flat shift, mixed rows, is zeroed)."""
    lo, hi = _ends(A, axis)
    flat = out.reshape(-1)
    return [(op, (hi, lo, flat[: lo.size])), (np.copyto, (flat[lo.size :], 0.0))]


def _assign_negated(out, B):
    # a plain negated copy: np.negative(..., out=) into a strided end slice
    # (the first entries along the last axis of a (2, 8) frame) returns
    # wrong values with numpy 2.4
    out[...] = -1 * B


def _spread(B, axis, n, sign, out):
    """Steps writing into the frame out the transpose of the pair sum
    (sign 1) or of the forward difference (sign -1) of the n entries of the
    frame B along axis: the first n + 1 entries of out along axis."""
    lo, hi = _ends(B, axis)
    mid = out.reshape(-1)[-lo.size :]
    first = (out[_along(axis, _FIRST)], B[_along(axis, _FIRST)])
    last = (out[_along(axis, slice(n, n + 1))], B[_along(axis, slice(n - 1, n))])
    return [
        (np.add if sign > 0 else np.subtract, (lo, hi, mid)),
        (np.copyto if sign > 0 else _assign_negated, first),
        (np.copyto, last),
    ]


def _run(steps):
    for f, args in steps:
        f(*args)


def _combination(terms, out, tmp):
    """Steps writing sum m * a over the pairs (m, a) of ``terms``, m a
    scalar or an array, into out, each later product through tmp (out's
    shape); without terms, steps zeroing out (it may hold other scratch)."""
    if not terms:
        return [(np.copyto, (out, 0.0))]
    steps = [(np.multiply, terms[0] + (out,))]
    for m, a in terms[1:]:
        steps += [(np.multiply, (m, a, tmp)), (np.add, (out, tmp, out))]
    return steps


def _nonzero(pairs):
    """The pairs (m, a) whose scalar coefficient m is not zero."""
    return [(m, a) for m, a in pairs if m]


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
    # axis of the wrapped nodes has one entry more than the cells, and every
    # pass is a sum or difference over n + 1 nodes and n cells.  Each pass
    # is one step (ufunc, args) writing into a frame given when the steps
    # are built: once, on the frames of a StencilWork for phys_gradient and
    # scatter_flux and on the buffers of a TensorOperator.
    def _wrapped_shape(self, lead):
        return lead + tuple(n + 1 for n in self.cell_shape)

    def _gradient_passes(self, E, scratch, sums):
        """Steps filling the corners of the frames sums[a] with the edge
        sums of the wrapped nodes E (*lead, *wrapped), whose first node
        slices are set: they close the periodic axes of E, then per axis a
        sum neighbouring nodes along every other axis (into the ``scratch``
        frames in turn) and take the forward difference along a."""
        lead = E.ndim - self.d
        steps = []
        for ax, p in enumerate(self.periodic):
            if p:
                axis = lead + ax
                last = E[_along(axis, slice(-1, None))]
                steps.append((np.copyto, (last, E[_along(axis, _FIRST)])))
        for a in range(self.d):
            A = E
            for k, b in enumerate(b for b in range(self.d) if b != a):
                steps += _difference(np.add, A, lead + b, scratch[k % 2])
                A = scratch[k % 2]
            steps += _difference(np.subtract, A, lead + a, sums[a])
        return steps

    def _scatter_passes(self, a, src, scratch, total, accumulate):
        """Steps spreading the corner of the frame src, the weight of axis
        a's edge sums, back onto the wrapped nodes: the transposed
        difference along a, then the transposed pair sum along every other
        axis (into the ``scratch`` frames in turn), the last into ``total``
        or, when ``accumulate``, added onto it."""
        lead = src.ndim - self.d
        axes = [a] + [b for b in range(self.d) if b != a]
        extents = list(self.cell_shape)
        steps = []
        B = src
        for k, b in enumerate(axes):
            out = total if k == len(axes) - 1 and not accumulate else scratch[k % 2]
            steps += _spread(B, lead + b, extents[b], 1 if k else -1, out)
            extents[b] += 1
            B = out
        if accumulate:
            steps.append((np.add, (total, B, total)))
        return steps

    def _fold_passes(self, T):
        """Steps adding the closing node slice of each periodic axis of the
        wrapped nodes T onto the first, and the view of T they leave."""
        steps = []
        for ax, p in enumerate(self.periodic):
            if p:
                axis = T.ndim - self.d + ax
                first = T[_along(axis, _FIRST)]
                steps.append((np.add, (first, T[_along(axis, slice(-1, None))], first)))
                T = T[_along(axis, _LO)]
        return steps, T

    def phys_gradient(self, U, out=None, work=None):
        """Physical cell-center gradient of nodal values U (..., *node_shape),
        into ``out`` when given, else into a new array.

        In reference coordinates the gradient along axis a is the forward
        difference along a of U averaged over every other axis.  The passes
        run on the frames of ``work``, a StencilWork of this grid and U's
        leading shape, or of a new one.
        """
        lead = U.shape[: U.ndim - self.d]
        work = StencilWork(self, lead) if work is None else work
        if out is None:
            out = np.empty((self.d,) + lead + self.cell_shape)
        np.copyto(work._nodes, U)
        _run(work._gradient)
        for steps, g in zip(work._rows, out):
            _run(steps)
            np.copyto(g, work._row)
        return out

    def scatter_flux(self, q, out=None, work=None):
        """Adjoint of phys_gradient including the cell volume weight.

        q has shape (d, N, *cell_shape); result (N, *node_shape), into
        ``out`` when given.  The entries are the partial derivatives of
        sum_cells vol * F(grad u) with respect to nodal values when
        q = DF(grad u).  The passes run on the frames of ``work``, a
        StencilWork of this grid and shape (N,), or of a new one; without
        ``out`` the result is a new array, or with a new StencilWork the
        frame itself when the fold leaves it contiguous.
        """
        new = work is None
        if new:
            work = StencilWork(self, q.shape[1 : q.ndim - self.d])
        flux, tmp = work.cells
        for a in range(self.d):
            _run(_combination(_nonzero(zip(self._flux_map[a], q)), flux, tmp))
            np.copyto(work._weight, flux)
            _run(work._scatter[a])
        _run(work._fold)
        if out is None:
            return np.ascontiguousarray(work._folded) if new else work._folded.copy()
        np.copyto(out, work._folded)
        return out


class StencilWork:
    """The frames of phys_gradient and scatter_flux on ``grid`` for values of
    leading shape ``lead``, and the pass steps built on them once.

    A frame is a C-ordered array of the wrapped-node shape; there are
    1 + d + min(2, d - 1) of them (d >= 2), shared by both halves as the
    frames of a TensorOperator are.  The gradient reads the wrapped nodes
    E, sums into ``sums`` through the pair-sum scratch W, and combines the
    edge sums with the gradient map row by row on whole frames, into E
    through W[0]; each row's corner is then copied out once.  The spread of axis a reads the
    corner of W[0], which takes its weights, a combination of the flux rows
    made on ``cells``, two contiguous arrays of shape lead + cell_shape at
    the start of the sum frames, and copied in once; the spreads run
    through the sum frames into E, and the fold leaves its view of E.
    The frames start zeroed, and each call writes every entry it reads
    first, but those past the corner of W[0]: the spreads read them (zeros,
    or a gradient's pair sums) only into entries that a later step
    overwrites.  So a StencilWork serves any sequence of calls, and between
    calls ``cells`` hold nothing (a caller may use them as scratch).  The
    results land in arrays the caller gives or owns.
    """

    def __init__(self, grid, lead):
        d = grid.d
        frame = grid._wrapped_shape(tuple(lead))
        E = np.zeros(frame)
        sums = np.zeros((d,) + frame)
        W = np.zeros((min(2, d - 1),) + frame)
        self._nodes = _corner(E, grid.node_shape)
        self._gradient = grid._gradient_passes(E, W, sums)
        self._rows = [_combination(_nonzero(zip(row, sums)), E, W[0]) for row in grid._gradient_map]
        self._row = _corner(E, grid.cell_shape)
        cells = tuple(lead) + grid.cell_shape
        self.cells = [f.reshape(-1)[: math.prod(cells)].reshape(cells) for f in sums[:2]]
        self._weight = _corner(W[0], grid.cell_shape)
        self._scatter = [
            grid._scatter_passes(a, W[0], sums, E, accumulate=a > 0) for a in range(d)
        ]
        self._fold, self._folded = grid._fold_passes(E)


def _symmetric_cells(A):
    """Whether every cell tensor of A (d, d, N, N, *cells) is exactly
    symmetric, A^{ab}_{ij} = A^{ba}_{ji}; then so is the discrete operator."""
    return np.array_equal(A, np.swapaxes(np.swapaxes(A, 0, 1), 2, 3))


class TensorOperator:
    """The Galerkin operator of the cell tensors A (d, d, N, N, *cells) on
    ``grid``, matrix free at stencil cost: V (N, *node_shape) -> the
    assembled matrix times V, on every level.

    The flux map F, the gradient map G and the cell volume are folded into
    the cell tensors once, M^ab_ij = F[a, c] A^ce_ij G[e, b], and A is not
    kept; blocks of M that are zero on every cell are dropped, and when A is
    ``symmetric`` (A^ab_ij = A^ba_ji on every cell) the block (b, a, j, i)
    is the block (a, b, i, j), so M is exactly symmetric and half of it is
    stored.  An application is the edge sums of phys_gradient, one
    (d N) x (d N) combination with M per cell, and the transposed spreads
    and the fold of scatter_flux: the same pass steps, built once here on
    the frames of three buffers (M's blocks are zero outside the corner).
    Each buffer serves both halves: the wrapped nodes also take the spread
    sums and the combination's products, the edge sums share theirs with
    the scratch of the spreads, and the combined weights with the scratch
    of the pair sums.  A StencilWork lays out the frames of phys_gradient
    and scatter_flux the same way, with the geometry maps applied per call
    rather than folded, since a nonlinear flux sits between the halves.
    """

    def __init__(self, grid, A):
        d, N = grid.d, A.shape[2]
        self.symmetric = symmetric = _symmetric_cells(A)
        frame = grid._wrapped_shape(())
        F, G = grid._flux_map, grid._gradient_map
        # per (i, j), the blocks A^ce_ij that are not zero on every cell
        fields = {
            (i, j): [(c, e, A[c, e, i, j]) for c, e in np.ndindex(d, d) if A[c, e, i, j].any()]
            for i, j in np.ndindex(N, N)
        }
        blocks = {}
        tmp = np.empty(grid.cell_shape)
        for a, b, i, j in np.ndindex(d, d, N, N):
            if symmetric and (b, a, j, i) in blocks:
                blocks[a, b, i, j] = blocks[b, a, j, i]
                continue
            terms = _nonzero((F[a, c] * G[e, b], x) for c, e, x in fields[i, j])
            if terms:
                blocks[a, b, i, j] = np.zeros(frame)
                _run(_combination(terms, _corner(blocks[a, b, i, j], grid.cell_shape), tmp))
        E = np.zeros((N,) + frame)
        sums, weights = (np.zeros((d, N) + frame) for _ in range(2))
        self._nodes = _corner(E, grid.node_shape)
        steps = grid._gradient_passes(E, weights, sums)
        for a, i in np.ndindex(d, N):
            # weights[a, i] = sum_(b, j) M^ab_ij sums[b, j] per cell
            terms = [(blocks[a, b, i, j], sums[b, j])
                     for b, j in np.ndindex(d, N) if (a, b, i, j) in blocks]
            steps += _combination(terms, weights[a, i], E[0])
        for a in range(d):
            steps += grid._scatter_passes(a, weights[a], sums, E, accumulate=a > 0)
        fold, self._folded = grid._fold_passes(E)
        self._steps = steps + fold

    def __call__(self, V, out=None):
        """The operator applied to V, into ``out`` when given, else into a
        new array (the buffers are overwritten by the next application)."""
        np.copyto(self._nodes, V)
        _run(self._steps)
        if out is None:
            return self._folded.copy()
        np.copyto(out, self._folded)
        return out


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
        entry, as a sum over full meshgrid arrays.  A term is the same float
        at every index when its axis has one entry or its edge entry is zero
        (index + offset is never negative, so every product is the same
        signed zero); it keeps one entry, which adds what every entry would
        have added.
        """
        cols = []
        for comp in range(self.d):
            acc = 0.0
            for ax, n in enumerate(shape):
                edge = self.edges[comp, ax]
                term = (np.arange(1 if edge == 0.0 else n) + offset) * edge
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
