"""Fast reference solvers for the constant-coefficient Galerkin operator.

The discrete operator is multilinear elements with one-point (cell
center) quadrature.  Because every cell shares one Jacobian, the
constant-coefficient operator is diagonalized exactly by fast transforms,
and its symbol comes from the grid's own stencil passes (the difference and
pair-sum passes of ``grid.phys_gradient`` and ``grid._gradient_map``):
periodic lateral axes give a circulant structure (FFT), and the vertical
axis leaves one Hermitian Toeplitz tridiagonal per lateral Fourier mode,
which a phase twist and one DST-III / DST-II pair diagonalize.  The strip
solve preconditions the linear and nonlinear strip solvers, and it gives
their initial guess, the discrete harmonic extension of the boundary data
(``lift``).  The residual of the bottom repeated on every level is
diagonal in the lateral modes as well, so the lift builds it in mode space
from the bands of the symbol, without a stencil pass; laterally constant
data is exactly harmonic and returns the repeated column as it is.  The
torus solve preconditions the linear cell problems of ``homogenize``.
Every operator is applied matrix free (``grid.scatter_flux`` of the flux
of ``grid.phys_gradient``, or for cell tensors the
``grid.TensorOperator``; both run the same passes on frames); no matrix
is assembled.  The transforms run on ``numpy.fft``, except the real DFT
pair along the last lateral axis of a narrow strip, which is a product with
cos/sin tables.  ``solve`` writes into a given array, the free levels
straight from the last inverse transform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StripReferenceSolver", "TorusReferenceSolver"]

# Strips with fewer cells than this on their last lateral axis run its real
# DFT pair as products with cos/sin tables built once; wider ones keep
# numpy.fft's rfft / irfft, whose cost per entry grows as log L where the
# tables' grows as L (and their memory as L^2).  One full solve of a 2-d
# strip with 4 L levels, median of 9x50 in-process on a 2-core Xeon:
# L = 49: 380 -> 265 us, L = 56: 422 -> 350 us, L = 64: 495 -> 520 us,
# where OpenBLAS also starts a second thread for the products.
_DENSE_DFT_CELLS = 64


def _mode_angles(shape, half=False):
    """Angles 2 pi k / n of the discrete Fourier modes, one meshgrid array per
    axis of ``shape``; ``half`` keeps only the n // 2 + 1 modes that rfftn
    returns on the last axis."""
    angles = [2.0 * np.pi * np.arange(n) / n for n in shape]
    if half:
        angles[-1] = angles[-1][: shape[-1] // 2 + 1]
    return np.meshgrid(*angles, indexing="ij")


def _stencil_symbol(grid, modes):
    """Fourier symbol of the A = I stencil, keyed by vertical offset.

    ``modes`` holds the mode angles of the leading, Fourier-transformed grid
    axes.  The reference gradient along axis a is the forward difference
    along a of the pair sums along every other axis: on a transformed axis
    each pass multiplies a mode by e^{i theta} - 1 or e^{i theta} + 1, and on
    the untransformed vertical axis of a strip by lo + hi z, z the shift by
    one level.  The stencil is vol sigma^H (G^T G) sigma with G =
    ``grid._gradient_map``; the pair (z^p, z^q) of coefficients of sigma
    lands in band q - p, so a strip gets the bands {-1, 0, 1} of one vertical
    tridiagonal per mode, and a torus, every axis transformed, the key 0.
    """
    phases = [np.exp(1j * th) for th in modes]
    vertical = len(phases) < grid.d
    sigma = []  # per axis, the coefficients of z^0 and z^1
    for a in range(grid.d):
        lateral = 1.0
        for b, z in enumerate(phases):
            lateral = lateral * (z - 1.0 if b == a else z + 1.0)
        if vertical:
            sigma.append((-lateral if a == len(phases) else lateral, lateral))
        else:
            sigma.append((lateral,))
    G = grid._gradient_map
    M = grid.cellvol * (G.T @ G)
    bands = {}
    for p in range(len(sigma[0])):
        for q in range(len(sigma[0])):
            band = sum(
                M[a, b] * np.conj(sigma[a][p]) * sigma[b][q]
                for a in range(grid.d) for b in range(grid.d)
            )
            bands[q - p] = bands.get(q - p, 0.0) + band
    return bands


def _interior_diagonal(grid):
    """Diagonal entry of the A = I operator at an interior node.

    Each of the 2^d cells there adds vol |G s|^2, s the sign vector of the
    node's corner and G = ``grid._gradient_map``; summed over the corners
    the cross terms cancel, leaving vol 2^d sum G^2.
    """
    return grid.cellvol * 2.0**grid.d * float((grid._gradient_map**2).sum())


def _plane_constant(bottom):
    """Whether bottom values (N, *lat) are constant on the plane, per
    component; decided by equality, so NaN data is never constant."""
    first = bottom[(slice(None),) + (slice(0, 1),) * (bottom.ndim - 1)]
    return bool((bottom == first).all())


class StripReferenceSolver:
    """Exact solver for the constant-coefficient (A = I) strip operator.

    Solves K_ref x = r on the free nodes (bottom Dirichlet, natural top).
    A real lateral DFT leaves, per Fourier mode, a Hermitian Toeplitz
    tridiagonal in the vertical with bands (conj(a), t0, a); the natural
    top halves the last row to (conj(a), t0/2) because the shear cross
    terms cancel over corner pairs.  The twist x_k = exp(-i k arg a) y_k
    makes it the real symmetric (|a|, t0, |a|), and after doubling the last
    entry DST-III then DST-II diagonalize it (Buzbee, Golub and Nielson,
    SIAM J. Numer. Anal. 7, 1970), eigenvalues t0 + 2|a| cos((j - 1/2) pi / n).

    The sine transform pair runs as complex FFTs along the vertical:
    rev DCT-II(diag(mu)^-1 DCT-II^-1(rev x)), since each DST is a DCT of the
    reversed sequence up to (-1)^k signs, and the signs of the two cancel.
    A DCT-II of complex data is one length-n FFT of the reordered sequence
    v (v_m = x_2m, v_(n-1-m) = x_(2m+1)) with twiddles,
    C_k = w_k V_k + conj(w_k) V_(n-k), w_k = exp(-i pi k / 2n), and the
    inverse is V_k = conj(w_k) (C_k - i C_(n-k)) / 2 with C_n = 0 (Makhoul,
    IEEE Trans. ASSP 28, 1980).  The eigenvalues divide in the order of v,
    so the reordering is never carried out, and the twist, the reversals and
    the twiddles are folded into four factor arrays built once.

    The real DFT along the last lateral axis is numpy's rfft / irfft, or on
    fewer than ``_DENSE_DFT_CELLS`` cells products with cos/sin tables of
    that axis: there one short FFT per level costs more in call overhead
    than the whole product, and on a prime count (41 on the (1,5) strips)
    pocketfft falls back to Bluestein's algorithm.  Other lateral axes use
    complex FFTs.

    ``null_mask`` flags the lateral modes of the rfftn half spectrum on
    which every band vanishes: hourglass modes of the one-point quadrature
    (zero discrete energy), pseudo-inverted to zero.
    """

    def __init__(self, grid):
        self.grid = grid
        self.lat_axes = tuple(range(1, grid.d))  # axes of (N, *lat, levels) arrays
        T = _stencil_symbol(grid, _mode_angles(grid.lat_cells, half=True))
        n = self.n_free = grid.n_vert  # every level above the bottom
        a, t0 = np.abs(T[1]), T[0].real
        scale = max(np.abs(b).max() for b in T.values())
        self.null_mask = np.maximum(a, np.abs(T[0])) <= 1e-12 * scale
        # residual of a unit constant column, per lateral mode: a free row
        # sums its three bands, the natural top its lower band and half t0
        self._col = T[-1] + T[0] + T[1]
        self._col_top = T[-1] + 0.5 * T[0]
        theta = (np.arange(1, n + 1) - 0.5) * np.pi / n
        mu = t0[..., None] + 2.0 * a[..., None] * np.cos(theta)
        inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=~self.null_mask[..., None])
        # successive powers of exp(i arg a): a running product keeps the phase
        # step between neighbouring levels exact to rounding at any height
        step = np.exp(1j * np.angle(T[1]))[..., None]
        twist = np.cumprod(np.broadcast_to(step, step.shape[:-1] + (n,)), axis=-1)
        untwist = np.conj(twist)
        twist[..., -1] *= 2.0
        w = np.exp(-0.5j * np.pi * np.arange(n) / n)
        # V_k = conj(w_k) (u_k - i u_(n-k)) / 2 of u = rev(twist r); the
        # factors of u_(n-k) sit at k - 1, padded to full rows (the pad's
        # product is never read), so that both passes run on whole arrays
        self._in_rev = 0.5 * np.conj(w) * twist[..., ::-1]
        self._in_prev = np.ones_like(self._in_rev)
        self._in_prev[..., :-1] = -0.5j * np.conj(w[1:]) * twist[..., :-1]
        # v_m = x_(order[m])
        order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]])
        self._inv = np.ascontiguousarray(inv[..., order])
        # y_k = C_(n-1-k) = w_(n-1-k) W_(n-1-k) + conj(w_(n-1-k)) W_(k+1 mod n),
        # W the FFT of v, then untwisted; the factor of W_(k+1 mod n) sits at
        # k + 1 mod n, so that W is scaled as a whole
        self._out_rev = untwist * w[::-1]
        self._out_next = np.roll(untwist * np.conj(w[::-1]), 1, axis=-1)
        self._dft = self._idft = None
        L = grid.lat_cells[-1]
        if L < _DENSE_DFT_CELLS:
            # angles from (k j) mod L, so that every table entry is the
            # rounded value of an exactly reduced angle
            k = np.arange(L // 2 + 1)
            angle = 2.0 * np.pi * ((k[:, None] * np.arange(L)) % L) / L
            cos, sin = np.cos(angle), np.sin(angle)
            self._dft = (cos, -sin)
            # irfft: weight 1 on k = 0 and the Nyquist mode, 2 on the others
            weight = np.full(len(k), 2.0 / L)
            weight[0] = 1.0 / L
            if L % 2 == 0:
                weight[-1] = 1.0 / L
            self._idft = np.concatenate((cos.T * weight, -sin.T * weight), axis=1)

    def _lateral_fft(self, x):
        """Lateral modes of x (N, *lat, ...): the real DFT on the last lateral
        axis, complex FFTs on the others."""
        *other, last = self.lat_axes
        if self._dft is None:
            xhat = np.fft.rfft(x, axis=last)
        else:
            cos, sin = self._dft
            # the bottom plane (N, *lat) has no levels axis to multiply along
            cols = x if x.ndim > self.grid.d else x[..., None]
            xhat = np.empty(cols.shape[:-2] + (len(cos), cols.shape[-1]), dtype=complex)
            np.matmul(cos, cols, out=xhat.real)
            np.matmul(sin, cols, out=xhat.imag)
            if cols is not x:
                xhat = xhat[..., 0]
        for ax in other:
            np.fft.fft(xhat, axis=ax, out=xhat)
        return xhat

    def _lateral_ifft(self, y, out=None):
        """Inverse of _lateral_fft, into ``out`` when given; overwrites y."""
        *other, last = self.lat_axes
        for ax in other:
            np.fft.ifft(y, axis=ax, out=y)
        if self._idft is None:
            return np.fft.irfft(y, n=self.grid.lat_cells[-1], axis=last, out=out)
        parts = np.concatenate((y.real, y.imag), axis=-2)
        return np.matmul(self._idft, parts, out=out)

    def solve_free(self, r_free, out=None):
        """Solve for the free-level block; r_free is (N, *lat, n_free).  The
        result goes into ``out`` (an array or view of that shape) when
        given."""
        return self._lateral_ifft(self._dst3_dst2_pair(self._lateral_fft(r_free)), out)

    def _dst3_dst2_pair(self, rhat):
        # rhat's buffer is reused: first for a product, then for the result.
        # A shift by one level is a shift of the flat contiguous array; the
        # one entry per row that it carries over from the next row is put
        # back, so each pass is one contiguous ufunc.
        V = rhat[..., ::-1] * self._in_rev
        rhat *= self._in_prev
        first = V[..., 0].copy()
        V.reshape(-1)[1:] += rhat.reshape(-1)[:-1]  # V_k += rhat_(k-1)
        V[..., 0] = first
        np.fft.ifft(V, axis=-1, out=V)
        V *= self._inv
        W = np.fft.fft(V, axis=-1, out=V)
        y = np.multiply(W[..., ::-1], self._out_rev, out=rhat)
        W *= self._out_next
        y[..., -1] += W[..., 0]
        last = y[..., -1].copy()
        y.reshape(-1)[:-1] += W.reshape(-1)[1:]  # y_k += W_(k+1)
        y[..., -1] = last
        return y

    def solve(self, r_full, out=None):
        """Solve with zero correction on the bottom level; r_full (N, *lat,
        levels).  The free levels are transformed straight into ``out`` when
        given, else into a new array."""
        if out is None:
            out = np.empty_like(r_full)
        out[..., 0] = 0.0
        self.solve_free(r_full[..., 1:], out[..., 1:])
        return out

    def lift(self, bottom):
        """Discrete harmonic extension of the bottom values (N, *lat).

        The bottom repeated on every level, minus the reference solve of its
        residual.  That residual is built in mode space: per lateral mode it
        is the bottom's coefficient times the column sums ``_col`` (free
        rows) and ``_col_top`` (the natural top), so no stencil is applied
        and only the bottom plane is transformed forward.  The bottom level
        is the data bit for bit, and laterally constant data (checked by
        equality, not by a residual) returns the repeated column exactly.
        On a null mode every band vanishes, and so does its residual.
        """
        U = np.repeat(bottom[..., None], self.grid.n_vert + 1, axis=-1)
        if _plane_constant(bottom):
            return U  # a constant column is exactly harmonic
        bhat = self._lateral_fft(bottom)
        rhat = np.empty(bhat.shape + (self.n_free,), dtype=complex)
        rhat[..., :-1] = (bhat * self._col)[..., None]
        rhat[..., -1] = bhat * self._col_top
        U[..., 1:] -= self._lateral_ifft(self._dst3_dst2_pair(rhat))
        return U


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

    def solve(self, r, out=None):
        """The pseudo-inverse applied to r, into ``out`` when given."""
        rhat = np.fft.fftn(r, axes=self.axes)
        x = np.real(np.fft.ifftn(rhat * self._inv, axes=self.axes))
        if out is None:
            return x
        np.copyto(out, x)
        return out

    def project_out_null(self, U):
        uhat = np.fft.fftn(U, axes=self.axes)
        uhat[..., self.null_mask] = 0.0
        return np.real(np.fft.ifftn(uhat, axes=self.axes))
