"""Monotone operator specifications and their numerical validation.

Nonlinear operators are maps p -> a(y, p) that are uniformly monotone,

    (a(y, p) - a(y, q)) . (p - q) >= lam |p - q|^2,

Lipschitz in p, and (optionally) positively 1-homogeneous.  Validation is
sampling based: declared constants are checked against empirical
quotients with a recorded witness, never assumed.  The sampled points are
those of ``sampling.weyl_points``, so a seed gives the same report on
every platform and numpy version.

The builtin fluxes and potentials write into ``out=`` when given (the
potentials through the scratch of ``work=``), with the same ufuncs in
the same order as into new arrays, so that every bit is the same; the
nonlinear strip solves hand them the buffers of their workspace.

The builtin ``root kink`` operator is the fixed 3-d map

    a(p) = (p1, p2, p3 + f(p1, p3)),   f = (sqrt(8 p1^2 + 9 p3^2) + p3) / 8,

whose flux has a 1-homogeneous square-root kink at the origin.  Its
defining algebraic identity 8 f^2 - 2 p3 f - (p1^2 + p3^2) = 0 is checked
in the tests.  Restricting to gradients orthogonal to e1 gives the scalar
2-d map (p1, (9/8) p2 + (3/8)|p2|), which is the gradient of the convex
potential p1^2/2 + (9/16) p2^2 + (3/16) p2 |p2|.

``restrict`` is the one restriction of a spatially homogeneous operator
to the gradients in a plane, written in the coordinates of an orthonormal
frame Q of that plane: Q^T A Q for a constant tensor, Q^T a(Q p) with the
potential F(Q p) for a map, or a map's own closed form (the root kink's on
the planes through e3).  The directional limits of ``second_cell`` solve
on it, and so does a strip solve whose data is invariant along a lateral
axis.
"""

from __future__ import annotations

import numpy as np

from .errors import OperatorInvalidError
from .fields import LinearTensorField, constant_tensor
from .sampling import weyl_points

__all__ = [
    "QuadraticPotential",
    "KinkPotential2D",
    "RootKinkOperator",
    "ReducedRootKink",
    "DirectMap",
    "validate_operator",
    "homogeneity_check",
    "reduce_tensor",
    "restrict",
    "potential_gradient_consistency",
    "huber_abs",
    "huber_abs_integral",
]


def huber_abs(t, tau, out=None):
    """C^1 surrogate for |t| with width tau; exact |t| when tau <= 0.

    Quadratic cap t^2/(2 tau) inside |t| <= tau, |t| - tau/2 outside, so
    the value at 0 stays exactly 0 and the slope stays within [-1, 1].
    Written into ``out`` (not t) when given, else into a new array.
    """
    t = np.asarray(t, dtype=float)
    a = np.abs(t, out=np.empty(t.shape) if out is None else out)
    if tau > 0.0:
        cap = a <= tau
        a -= tau / 2.0
        np.multiply(t, t, out=a, where=cap)
        np.divide(a, 2.0 * tau, out=a, where=cap)
    return a


def huber_abs_integral(t, tau, out=None, work=None):
    """Odd antiderivative of huber_abs, zero at 0 (t |t| / 2 when tau <= 0).

    Written into ``out`` when given, through the scratch array ``work`` of
    t's shape when given (neither may be t), else into new arrays.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape) if out is None else out
    a = np.abs(t, out=np.empty(t.shape) if work is None else work)
    if tau <= 0.0:
        np.multiply(t, a, out=out)
        out /= 2.0
        return out
    # a^3 / (6 tau) inside |t| <= tau, a^2 / 2 - tau a / 2 + tau^2 / 6
    # outside, each ufunc on its own cells
    cap = np.less_equal(a, tau, out=np.empty(t.shape, dtype=bool))
    np.power(a, 3, out=out, where=cap)
    np.divide(out, 6.0 * tau, out=out, where=cap)
    np.logical_not(cap, out=cap)
    np.multiply(a, a, out=out, where=cap)
    np.divide(out, 2.0, out=out, where=cap)
    np.multiply(a, tau, out=a, where=cap)
    np.divide(a, 2.0, out=a, where=cap)
    np.subtract(out, a, out=out, where=cap)
    np.add(out, tau * tau / 6.0, out=out, where=cap)
    out *= np.sign(t, out=a)
    return out


class QuadraticPotential:
    """F(y, p) = 1/2 p . A(y) p for a scalar symmetric tensor A.

    The gradient flux a(y, p) = A(y) p makes the nonlinear solve agree
    with the linear path on the same mesh, which the tests exploit.
    """

    is_variational = True
    homogeneous = True

    def __init__(self, tensor):
        if tensor.n_components != 1:
            raise ValueError("quadratic potentials are scalar (N = 1)")
        if not tensor.is_symmetric():
            raise ValueError("quadratic potential needs a symmetric tensor")
        self.tensor = tensor
        self.d = tensor.d
        self.lam = tensor.lam
        self.lip = 1.0
        self.y_dependent = tensor.y_dependent

    def _matrix(self, y):
        if y is None:
            return self.tensor(np.zeros((self.d, 1)))[:, :, 0, 0, 0]
        return self.tensor(y)[:, :, 0, 0]

    def flux(self, p, y=None, tau=0.0):
        A = self._matrix(y)
        return np.einsum("ab...,b...->a...", A, p)

    def potential(self, p, y=None, tau=0.0):
        return 0.5 * np.einsum("a...,ab...,b...->...", p, self._matrix(y), p)

    def describe(self):
        return {"kind": "quadratic_potential", "tensor": self.tensor.describe()}


class KinkPotential2D:
    """Scalar 2-d energy density with an |p2| kink in the flux.

    F(p) = p1^2/2 + (9/16) p2^2 + (3/8) * int_0^{p2} |t| dt, smoothed by
    ``tau`` at solve time.  The flux derivative stays in [3/4, 3/2] for
    every tau >= 0, so smoothing never degrades the ellipticity constants.
    """

    is_variational = True
    homogeneous = True
    y_dependent = False
    d = 2
    lam = 0.75
    lip = 1.5

    def flux(self, p, y=None, tau=0.0, out=None):
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape) if out is None else out
        huber_abs(p[1], tau, out=out[1])
        out[1] *= 3.0 / 8.0
        out[1] += np.multiply(p[1], 9.0 / 8.0, out=out[0])
        np.copyto(out[0], p[0])
        return out

    def potential(self, p, y=None, tau=0.0, out=None, work=None):
        """The density per point of p (2, ...), into ``out`` when given,
        through the two scratch arrays of ``work`` (2, ...) when given."""
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape[1:]) if out is None else out
        x, z = np.empty(p.shape) if work is None else work
        huber_abs_integral(p[1], tau, out=out, work=x)
        out *= 3.0 / 8.0
        np.multiply(np.square(p[0], out=x), 0.5, out=x)
        x += np.multiply(np.square(p[1], out=z), 9.0 / 16.0, out=z)
        out += x
        return out

    def describe(self):
        return {"kind": "builtin", "name": "section7_reduced"}


def _root_kink(w, p1, p3, tau, out, tmp):
    """(sqrt(w p1^2 + 9 p3^2 + tau^2) - tau + p3) / 8 into out, through tmp
    (the root without tau when tau <= 0): the kink term of the root-kink
    map (w = 8) and of its restrictions (w = 8 mu)."""
    q = np.multiply(np.square(p1, out=out), w, out=out)
    q += np.multiply(np.square(p3, out=tmp), 9.0, out=tmp)
    # sqrt(q + tau^2) - tau: vanishes with q and keeps the same slope bounds
    if tau > 0.0:
        q += tau * tau
    np.sqrt(q, out=q)
    if tau > 0.0:
        q -= tau
    q += p3
    q /= 8.0
    return q


class RootKinkOperator:
    """The builtin 3-d monotone map with direction-dependent far fields.

    Not a gradient: the Jacobian of the third component has an asymmetric
    p1 coupling, so solves use the monotone fixed-point path rather than
    energy minimization.
    """

    is_variational = False
    homogeneous = True
    y_dependent = False
    d = 3
    lam = 0.75
    lip = 1.5

    @staticmethod
    def f(p1, p3, tau=0.0):
        p1, p3 = np.asarray(p1, dtype=float), np.asarray(p3, dtype=float)
        shape = np.broadcast_shapes(p1.shape, p3.shape)
        return _root_kink(8.0, p1, p3, tau, np.empty(shape), np.empty(shape))

    def flux(self, p, y=None, tau=0.0, out=None):
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape) if out is None else out
        _root_kink(8.0, p[0], p[2], tau, out[2], out[0])
        out[2] += p[2]
        np.copyto(out[0], p[0])
        np.copyto(out[1], p[1])
        return out

    def reduced(self, eta):
        """2-d restriction for gradients in span(eta, e3), eta unit, eta . e3 = 0.

        Coordinates are (t, r) = (x . eta, x . e3).  The restriction is the
        gradient of a convex potential exactly when eta has no e1 part.
        """
        eta = np.asarray(eta, dtype=float)
        if abs(eta[2]) > 1e-12 or abs(np.linalg.norm(eta) - 1.0) > 1e-9:
            raise ValueError("eta must be a unit vector orthogonal to e3")
        mu = float(eta[0]) ** 2
        if mu < 1e-14:
            return KinkPotential2D()
        return ReducedRootKink(mu)

    def describe(self):
        return {"kind": "builtin", "name": "section7"}


class ReducedRootKink:
    """2-d restriction of the root-kink map with in-plane e1 weight mu."""

    is_variational = False
    homogeneous = True
    y_dependent = False
    d = 2
    lam = 0.75
    lip = 1.5

    def __init__(self, mu=1.0):
        self.mu = float(mu)

    def flux(self, p, y=None, tau=0.0, out=None):
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape) if out is None else out
        _root_kink(8.0 * self.mu, p[0], p[1], tau, out[1], out[0])
        out[1] += p[1]
        np.copyto(out[0], p[0])
        return out

    def describe(self):
        return {"kind": "builtin", "name": "section7_reduced_skew", "mu": self.mu}


class DirectMap:
    """Wrap a plain callable flux p -> a(p) for validation experiments."""

    is_variational = False
    y_dependent = False

    def __init__(self, func, d, lam=0.0, lip=1.0, homogeneous=False, name="direct"):
        self._func = func
        self.d = d
        self.lam = lam
        self.lip = lip
        self.homogeneous = homogeneous
        self.name = name

    def flux(self, p, y=None, tau=0.0):
        return self._func(np.asarray(p, dtype=float))

    def describe(self):
        return {"kind": "direct", "name": self.name}


def reduce_tensor(A0, *frame):
    """Constant tensor of the restriction to the plane of the orthonormal
    vectors ``frame``: Q^T A0 Q, Q = [frame] (say reduce_tensor(A0, eta,
    xi_hat)).

    Exactly symmetric (under the (a, b)(i, j) swap) whenever A0 is, so that
    the reduced strip solves take the symmetric (CG) path; the einsum alone
    can leave the off-diagonal pair an ulp apart.
    """
    A0 = np.asarray(A0, dtype=float)
    Q = np.stack([np.asarray(v, dtype=float) for v in frame], axis=1)
    B = np.einsum("xa,xyij,yb->abij", Q, A0, Q)
    if np.array_equal(A0, A0.swapaxes(0, 1).swapaxes(2, 3)):
        return 0.5 * (B + B.swapaxes(0, 1).swapaxes(2, 3))
    return B


class _ReducedMonotone:
    """The restriction Q^T a(Q p) of a spatially homogeneous map to the
    plane of the orthonormal columns of Q (d, d'), and the potential
    F(Q p) of a variational one.  The map's monotonicity and Lipschitz
    constants bound the restriction's, so they are kept."""

    y_dependent = False

    def __init__(self, op, Q):
        self._op = op
        self._Q = Q
        self.d = Q.shape[1]
        self.is_variational = op.is_variational
        for name in ("lam", "lip", "homogeneous"):
            if hasattr(op, name):
                setattr(self, name, getattr(op, name))

    def flux(self, p, y=None, tau=0.0, out=None):
        # einsum's own loop, not BLAS, as solve._dot
        q = self._op.flux(np.einsum("xa,a...->x...", self._Q, p), tau=tau)
        return np.einsum("xa,x...->a...", self._Q, q, out=out)

    def potential(self, p, y=None, tau=0.0):
        return self._op.potential(np.einsum("xa,a...->x...", self._Q, p), tau=tau)

    def describe(self):
        return {"kind": "reduced", "base": self._op.describe(), "Q": self._Q.tolist()}


def restrict(op, Q):
    """The y-independent operator ``op`` on the gradients in the plane of
    the orthonormal columns of Q (d, d'), in the coordinates of Q.

    A tensor (read at y = 0) gives the constant tensor Q^T A Q, exactly
    symmetric when A is.  A map with a closed-form ``reduced(eta)``, the
    restriction to span(eta, e_d) in the coordinates (x . eta, x . e_d),
    gives it when Q = [eta, e_d]; any other map gives Q^T a(Q p), variational
    when the map is.
    """
    Q = np.asarray(Q, dtype=float)
    if isinstance(op, LinearTensorField):
        A0 = op(np.zeros((op.d, 1)))[..., 0]
        return constant_tensor(reduce_tensor(A0, *Q.T), lam=op.lam)
    if hasattr(op, "reduced") and Q.shape[1] == 2 and np.array_equal(Q[:, 1], np.eye(op.d)[-1]):
        return op.reduced(Q[:, 0])
    return _ReducedMonotone(op, Q)


def _sample_pairs(d, sample_count, radius, seed):
    """Sampled pairs in [-radius, radius]^d plus structured axis pairs that probe kink slopes."""
    pq = weyl_points(sample_count, 2 * d, -radius, radius, seed)
    p, q = pq[:d], pq[d:]
    mags = np.concatenate([np.geomspace(1e-6, radius, 8), [0.0]])
    # per axis, (sa a, sb b) over a, b in mags and signs sa, sb in that
    # nesting order, close pairs left out
    a, b, sa, sb = np.meshgrid(mags, mags, (-1.0, 1.0), (-1.0, 1.0), indexing="ij")
    u, v = (sa * a).ravel(), (sb * b).ravel()
    keep = ~np.isclose(u, v)
    u, v = u[keep], v[keep]
    m = u.size
    extra_p, extra_q = np.zeros((d, d * m)), np.zeros((d, d * m))
    for axis in range(d):
        extra_p[axis, axis * m:(axis + 1) * m] = u
        extra_q[axis, axis * m:(axis + 1) * m] = v
    return np.concatenate([p, extra_p], axis=1), np.concatenate([q, extra_q], axis=1)


def validate_operator(op, sample_count=2000, radius=2.0, seed=0, tau=0.0):
    """Empirical monotonicity and Lipschitz constants over sampled pairs.

    Returns ``(lambda_hat, lipschitz_hat, report)``.  A nonpositive
    monotonicity quotient raises OperatorInvalidError carrying the
    witness pair.
    """
    if sample_count < 10:
        raise ValueError("sample_count too small for a meaningful estimate")
    p, q = _sample_pairs(op.d, sample_count, radius, seed)
    ap = op.flux(p, tau=tau)
    aq = op.flux(q, tau=tau)
    dp = p - q
    da = ap - aq
    den = np.sum(dp * dp, axis=0)
    keep = den > 1e-24
    dp, da, den = dp[:, keep], da[:, keep], den[keep]
    mono = np.sum(da * dp, axis=0) / den
    lips = np.sqrt(np.sum(da * da, axis=0) / den)
    i_min = int(np.argmin(mono))
    lambda_hat = float(mono[i_min])
    lipschitz_hat = float(lips.max())
    witness = (p[:, keep][:, i_min].copy(), q[:, keep][:, i_min].copy())
    if lambda_hat <= 0.0:
        raise OperatorInvalidError(
            f"monotonicity violated: quotient {lambda_hat:.3e}", witness=witness
        )
    report = {
        "lambda_hat": lambda_hat,
        "lipschitz_hat": lipschitz_hat,
        "declared_lambda": getattr(op, "lam", None),
        "declared_lipschitz": getattr(op, "lip", None),
        "pairs": int(den.shape[0]),
        "witness_min": [witness[0].tolist(), witness[1].tolist()],
    }
    return lambda_hat, lipschitz_hat, report


def homogeneity_check(op, sample_count=500, radius=2.0, seed=0):
    """Max relative defect of a(t p) = t a(p) over sampled points and t in [0.1, 10]."""
    if not getattr(op, "homogeneous", False):
        raise ValueError("operator is not flagged positively 1-homogeneous")
    p = weyl_points(sample_count, op.d, -radius, radius, seed)
    ts = np.geomspace(0.1, 10.0, 13)
    defect = 0.0
    base = op.flux(p)
    for t in ts:
        lhs = op.flux(t * p)
        rhs = t * base
        num = np.linalg.norm(lhs - rhs, axis=0)
        den = t * np.linalg.norm(p, axis=0) + 1e-30
        defect = max(defect, float((num / den).max()))
    return defect


def potential_gradient_consistency(op, sample_count=200, h=1e-4, seed=0, tau=0.0):
    """Max defect between the analytic flux and central differences of F at sampled points."""
    if not op.is_variational:
        raise ValueError("operator has no potential")
    p = weyl_points(sample_count, op.d, -2.0, 2.0, seed)
    a = op.flux(p, tau=tau)
    defect = 0.0
    for axis in range(op.d):
        e = np.zeros((op.d, 1))
        e[axis] = h
        fd = (op.potential(p + e, tau=tau) - op.potential(p - e, tau=tau)) / (2.0 * h)
        defect = max(defect, float(np.max(np.abs(fd - a[axis]))))
    return defect


def root_kink_identity_residual(sample_count=10000, seed=0):
    """Relative residual of 8 f^2 - 2 p3 f - (p1^2 + p3^2) at sampled points."""
    p1, p3 = weyl_points(sample_count, 2, -3.0, 3.0, seed)
    f = RootKinkOperator.f(p1, p3)
    res = 8.0 * f * f - 2.0 * p3 * f - (p1 * p1 + p3 * p3)
    scale = p1 * p1 + p3 * p3 + 1e-30
    return float(np.max(np.abs(res) / scale))
