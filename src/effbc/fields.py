"""Exactly evaluable Z^d-periodic boundary data and coefficient fields.

Fields are trigonometric polynomials plus a constant: each term is
``coef * trig(2 pi k . y)`` with an integer frequency vector k.  This
keeps every derivative analytic and C^m norm bounds available in closed
form, so no quadrature of the data itself is ever needed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .sampling import weyl_points

__all__ = [
    "PeriodicFieldExpr",
    "LinearTensorField",
    "evaluate_field",
    "constant_field",
    "cosine_field",
    "constant_tensor",
    "identity_tensor",
    "isotropic_tensor",
    "validate_tensor",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PeriodicFieldExpr:
    """Trigonometric polynomial R^d -> R^N.

    terms: tuple of (coef, freq, phase) with coef an (N,) array, freq an
    integer d-vector and phase "cos" or "sin".  constant: (N,) array.
    Scalar fields use N = 1 and evaluate with the component axis squeezed
    away when N == 1.
    """

    d: int
    n_components: int
    constant: np.ndarray
    terms: tuple

    def __post_init__(self):
        self.constant.setflags(write=False)

    def __call__(self, y):
        return evaluate_field(self, y)

    def scale_argument(self, factor: int) -> "PeriodicFieldExpr":
        """Field y -> f(factor * y); factor must be a positive integer
        so the result stays Z^d periodic."""
        if int(factor) != factor or factor < 1:
            raise ValueError("argument scale must be a positive integer")
        terms = tuple(
            (c, (np.asarray(k, dtype=np.int64) * int(factor)), ph) for c, k, ph in self.terms
        )
        return PeriodicFieldExpr(self.d, self.n_components, self.constant.copy(), terms)

    def c_norm_bound(self, m: int) -> float:
        """Upper bound for the C^m norm: sum over terms of
        |coef| (2 pi |k|_1)^j, maximized over 0 <= j <= m."""
        best = float(np.max(np.abs(self.constant))) if m >= 0 else 0.0
        for j in range(m + 1):
            s = 0.0 if j > 0 else float(np.max(np.abs(self.constant)))
            for c, k, _ in self.terms:
                s += float(np.max(np.abs(c))) * (_TWO_PI * float(np.sum(np.abs(k)))) ** j
            best = max(best, s)
        return best

    def grad_sup_bound(self) -> float:
        """Upper bound for sup |grad f|."""
        s = 0.0
        for c, k, _ in self.terms:
            s += float(np.max(np.abs(c))) * _TWO_PI * float(np.linalg.norm(k))
        return s

    def describe(self):
        return {
            "d": self.d,
            "n_components": self.n_components,
            "constant": self.constant.tolist(),
            "terms": [
                {"coef": c.tolist(), "freq": np.asarray(k).tolist(), "phase": ph}
                for c, k, ph in self.terms
            ],
        }


def _as_coef(c, n_components):
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.shape != (n_components,):
        raise ValueError(f"coefficient shape {arr.shape} != ({n_components},)")
    arr.setflags(write=False)
    return arr


def make_field(d, terms=(), constant=0.0, n_components=1) -> PeriodicFieldExpr:
    const = _as_coef(constant if np.ndim(constant) else [constant] * n_components, n_components)
    packed = []
    for coef, freq, phase in terms:
        if phase not in ("cos", "sin"):
            raise ValueError(f"phase must be cos or sin, got {phase!r}")
        k = np.asarray(freq, dtype=np.int64)
        if k.shape != (d,):
            raise ValueError(f"frequency shape {k.shape} != ({d},)")
        packed.append((_as_coef(coef if np.ndim(coef) else [coef] * n_components, n_components), k, phase))
    return PeriodicFieldExpr(d=d, n_components=n_components, constant=const, terms=tuple(packed))


def constant_field(d, value, n_components=1):
    return make_field(d, terms=(), constant=value, n_components=n_components)


def cosine_field(d, freq, amplitude=1.0, constant=0.0, phase="cos", n_components=1):
    return make_field(
        d,
        terms=[(amplitude, freq, phase)],
        constant=constant,
        n_components=n_components,
    )


def evaluate_field(field: PeriodicFieldExpr, y):
    """Evaluate the field at points y.

    y has shape (d, ...); the result has shape (N, ...) or (...) when the
    field is scalar.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] != field.d:
        raise ValueError(f"points have dimension {y.shape[0]}, field expects {field.d}")
    out_shape = (field.n_components,) + y.shape[1:]
    out = np.zeros(out_shape)
    out += field.constant.reshape((field.n_components,) + (1,) * (y.ndim - 1))
    for coef, k, phase in field.terms:
        # k . y as an explicit d-term sum: a tensordot here is a BLAS gemv
        # over every point, which wakes a second BLAS thread for no gain
        arg = np.zeros(y.shape[1:])
        for kj, yj in zip(k, y):
            if kj:
                arg += (_TWO_PI * float(kj)) * yj
        vals = (np.cos if phase == "cos" else np.sin)(arg)
        out += coef.reshape((field.n_components,) + (1,) * (y.ndim - 1)) * vals
    if field.n_components == 1:
        return out[0]
    return out


@dataclass(frozen=True)
class LinearTensorField:
    """Coefficient tensor A^{alpha beta}_{ij}(y) for an N-component system.

    ``entries[alpha][beta][i][j]`` is a scalar PeriodicFieldExpr.  The
    declared ellipticity is lambda |xi|^2 <= xi^T A xi <= |xi|^2 for
    matrix-valued xi, which normalizes the upper bound to 1.
    """

    d: int
    n_components: int
    entries: tuple
    lam: float

    def __call__(self, y):
        """Evaluate at points y (d, ...) -> array (d, d, N, N, ...).

        Each distinct entry is evaluated once (an isotropic tensor repeats
        its profile and its zero), and an entry without terms is filled
        with 0.0 + its constant, the value evaluate_field gives it.
        """
        y = np.asarray(y, dtype=float)
        out = np.empty((self.d, self.d, self.n_components, self.n_components) + y.shape[1:])
        values = {}
        for idx in np.ndindex(out.shape[:4]):
            a, b, i, j = idx
            e = self.entries[a][b][i][j]
            if not e.terms:
                out[idx] = 0.0 + float(e.constant[0])
                continue
            key = _field_key(e)
            if key not in values:
                values[key] = evaluate_field(e, y)
            out[idx] = values[key]
        return out

    @property
    def y_dependent(self):
        """Whether any entry varies with y (a constant tensor has no terms)."""
        return any(
            e.terms for row in self.entries for col in row for comp in col for e in comp
        )

    def scale_argument(self, factor: int) -> "LinearTensorField":
        return _tensor(
            self.d, self.n_components,
            lambda a, b, i, j: self.entries[a][b][i][j].scale_argument(factor), self.lam,
        )

    def is_symmetric(self, samples=64, seed=0):
        """Whether A^{ab}_{ij} = A^{ba}_{ji} at sampled points of the unit cell."""
        A = self(weyl_points(samples, self.d, 0.0, 1.0, seed))
        return bool(np.allclose(A, A.transpose(1, 0, 3, 2, 4), atol=1e-12))

    def describe(self):
        return {
            "kind": "linear_tensor",
            "d": self.d,
            "n_components": self.n_components,
            "lambda": self.lam,
            "entries": [
                [
                    [[self.entries[a][b][i][j].describe() for j in range(self.n_components)]
                     for i in range(self.n_components)]
                    for b in range(self.d)
                ]
                for a in range(self.d)
            ],
        }

    def digest(self):
        import json

        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _field_key(e: PeriodicFieldExpr):
    """What evaluate_field reads of a scalar field, as a hashable key."""
    return (e.d, e.constant.tobytes()) + tuple(
        (c.tobytes(), np.asarray(k).tobytes(), ph) for c, k, ph in e.terms
    )


def _tensor(d, N, entry, lam) -> LinearTensorField:
    """The field with entries[a][b][i][j] = entry(a, b, i, j)."""
    ent = tuple(
        tuple(tuple(tuple(entry(a, b, i, j) for j in range(N)) for i in range(N)) for b in range(d))
        for a in range(d)
    )
    return LinearTensorField(d, N, ent, lam=lam)


def constant_tensor(A0, lam) -> LinearTensorField:
    """Wrap a constant (d, d, N, N) array as a LinearTensorField."""
    A0 = np.asarray(A0, dtype=float)
    d, _, N, _ = A0.shape
    return _tensor(d, N, lambda a, b, i, j: constant_field(d, A0[a, b, i, j]), lam)


def identity_tensor(d, n_components=1, scale=1.0) -> LinearTensorField:
    """Constant tensor A = scale * I (the Laplacian when scale = 1)."""
    return isotropic_tensor(constant_field(d, scale), scale, n_components)


def isotropic_tensor(profile: PeriodicFieldExpr, lam, n_components=1) -> LinearTensorField:
    """A(y) = a(y) * I for a scalar profile a."""
    zero = constant_field(profile.d, 0.0)
    return _tensor(
        profile.d, n_components,
        lambda a, b, i, j: profile if (a == b and i == j) else zero, lam,
    )


def laminate_tensor(d=2, amplitude=0.5, mean_scale=2.0 / 3.0, axis=0, n_components=1):
    """Scalar laminate a(y) = mean_scale * (1 + amplitude cos(2 pi y_axis)) I.

    The default scaling keeps the upper ellipticity bound at 1.
    """
    freq = [0] * d
    freq[axis] = 1
    profile = make_field(
        d,
        terms=[(mean_scale * amplitude, freq, "cos")],
        constant=mean_scale,
    )
    lam = mean_scale * (1.0 - amplitude)
    A = isotropic_tensor(profile, lam=lam, n_components=n_components)
    return A


def validate_tensor(A: LinearTensorField, sample_count=1024, seed=0):
    """Check lambda |xi|^2 <= xi^T A xi <= |xi|^2 at sampled points.

    Points y of the unit cell and directions xi of the cube [-1, 1]^(dN)
    are drawn as one point set (the quotient does not see the scale of xi).
    Returns (lam_hat, upper_hat); raises ValueError when the declared
    bounds fail on a sample.
    """
    d, N = A.d, A.n_components
    pts = weyl_points(sample_count, d + d * N, [0.0] * d + [-1.0] * (d * N), 1.0, seed)
    Av = A(pts[:d])  # (d, d, N, N, S)
    xi = pts[d:].reshape(d, N, sample_count)
    sq = np.einsum("ais,ais->s", xi, xi)
    quad = np.einsum("ais,abijs,bjs->s", xi, Av, xi)
    ratios = quad / sq
    lam_hat = float(ratios.min())
    upper_hat = float(ratios.max())
    if lam_hat < A.lam - 1e-9:
        raise ValueError(f"ellipticity below declared lambda: {lam_hat} < {A.lam}")
    if upper_hat > 1.0 + 1e-9:
        raise ValueError(f"upper ellipticity bound exceeded: {upper_hat} > 1")
    return lam_hat, upper_hat
