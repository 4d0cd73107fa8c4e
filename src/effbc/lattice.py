"""Rational directions, boundary period lattices, and Diophantine approximation.

A rational direction is an irreducible lattice vector ``xi`` in Z^d
(d in {2, 3}).  Boundary data restricted to the hyperplane xi-perp is
periodic with respect to the rank d-1 lattice Z^d intersect xi-perp; this
module computes a short basis of that lattice with exact integer
arithmetic, splits an arbitrary unit vector into a nearby rational
direction plus an approach direction, and finds best rational
approximations of irrational directions under a denominator budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDirectionError

__all__ = [
    "RationalDirection",
    "DirectionalApproach",
    "DiophantineApprox",
    "make_rational_direction",
    "decompose_direction",
    "dirichlet_approximate",
    "brute_force_approximate",
    "parse_direction",
]

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class RationalDirection:
    """Irreducible lattice vector with its boundary period lattice.

    ``periods`` is a basis of Z^d intersect xi-perp.  In d=2 it is the
    rotation (-xi_2, xi_1); in d=3 a Gauss-reduced rank-2 basis.
    ``period_bound`` is the longest basis vector, the length scale M that
    controls strip widths and decay rates.
    """

    xi: np.ndarray
    xi_hat: np.ndarray
    norm: float
    periods: tuple
    period_bound: float

    def __post_init__(self):
        self.xi.setflags(write=False)
        self.xi_hat.setflags(write=False)
        for ell in self.periods:
            ell.setflags(write=False)

    @property
    def d(self):
        return self.xi.shape[0]

    def __repr__(self):
        return f"RationalDirection(xi={self.xi.tolist()})"


@dataclass(frozen=True)
class DirectionalApproach:
    """Split of a unit vector n as (cos eps) xi_hat - (sin eps) eta.

    ``eta`` is a unit vector perpendicular to xi; ``epsilon`` is the angle
    between n and xi_hat, in [0, pi].
    """

    n: np.ndarray
    xi: RationalDirection
    epsilon: float
    eta: np.ndarray

    def reconstruct(self):
        return math.cos(self.epsilon) * self.xi.xi_hat - math.sin(self.epsilon) * self.eta


@dataclass(frozen=True)
class DiophantineApprox:
    """Best rational approximation xi/k of a unit vector n with k <= Q.

    ``error`` is |n - xi/k|, minimal over 1 <= k <= Q and |xi| <= 2k.
    ``constant`` records the empirical Dirichlet constant
    error * k * Q^(1/(d-1)).
    """

    n: np.ndarray
    xi: np.ndarray
    k: int
    Q: int
    error: float
    constant: float = field(default=0.0)


def _as_int_vector(v):
    arr = np.asarray(v)
    out = np.rint(arr).astype(np.int64)
    if not np.allclose(arr, out, atol=1e-9):
        raise InvalidDirectionError(f"not an integer vector: {v!r}")
    return out


def _gauss_reduce(u, v):
    """Gauss-reduce a rank-2 integer lattice basis (shortest-vector pair)."""
    u = u.copy()
    v = v.copy()
    if u @ u > v @ v:
        u, v = v, u
    while True:
        t = int(round((u @ v) / (u @ u)))
        v = v - t * u
        if v @ v >= u @ u:
            return u, v
        u, v = v, u


def _perp_lattice_basis(xi):
    """Basis of Z^d intersect xi-perp, exact over the integers.

    d=3 construction: with g = gcd(xi_1, xi_2) and u xi_1 + v xi_2 = g,
    the vectors (xi_2/g, -xi_1/g, 0) and (-u xi_3, -v xi_3, g) generate
    the full kernel lattice of z -> z . xi because xi is irreducible.
    """
    d = xi.shape[0]
    if d == 2:
        return (np.array([-xi[1], xi[0]], dtype=np.int64),)
    if d != 3:
        raise InvalidDirectionError(f"dimension {d} not supported")
    x1, x2, x3 = (int(c) for c in xi)
    if x1 == 0 and x2 == 0:
        return (np.array([1, 0, 0], dtype=np.int64), np.array([0, 1, 0], dtype=np.int64))
    g = math.gcd(x1, x2)
    # extended gcd for u*x1 + v*x2 == g
    old_r, r = x1, x2
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    sign = 1 if old_r > 0 else -1
    u, v = sign * old_s, sign * old_t
    k1 = np.array([x2 // g, -x1 // g, 0], dtype=np.int64)
    k2 = np.array([-u * x3, -v * x3, g], dtype=np.int64)
    a, b = _gauss_reduce(k1, k2)
    return (a, b)


def make_rational_direction(v) -> RationalDirection:
    """Reduce an integer vector to an irreducible direction with periods."""
    xi = _as_int_vector(v)
    if not xi.any():
        raise InvalidDirectionError("zero vector has no direction")
    g = math.gcd(*(int(abs(c)) for c in xi))
    xi = xi // g
    norm = math.sqrt(float(xi @ xi))
    periods = _perp_lattice_basis(xi)
    for ell in periods:
        assert int(ell @ xi) == 0
    bound = max(math.sqrt(float(ell @ ell)) for ell in periods)
    return RationalDirection(
        xi=xi,
        xi_hat=xi.astype(float) / norm,
        norm=norm,
        periods=periods,
        period_bound=bound,
    )


def _default_eta(xi: RationalDirection):
    """Deterministic unit vector perpendicular to xi (degenerate split)."""
    eta = xi.periods[0].astype(float)
    eta /= np.linalg.norm(eta)
    nz = np.nonzero(np.abs(eta) > 1e-14)[0][0]
    if eta[nz] < 0:
        eta = -eta
    return eta


def decompose_direction(n, xi: RationalDirection) -> DirectionalApproach:
    """Write n = (cos eps) xi_hat - (sin eps) eta with eta unit, eta . xi = 0."""
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > _UNIT_TOL:
        raise InvalidDirectionError(f"|n| = {np.linalg.norm(n)} is not 1")
    c = float(np.clip(n @ xi.xi_hat, -1.0, 1.0))
    residual = c * xi.xi_hat - n
    rnorm = np.linalg.norm(residual)
    # sin eps = |residual|: atan2 keeps eps accurate near alignment, where
    # acos(c) loses half the digits
    eps = math.atan2(rnorm, c)
    if rnorm < 1e-13:
        eta = _default_eta(xi)
        eps = 0.0 if c > 0 else math.pi
    else:
        eta = residual / rnorm
    return DirectionalApproach(n=n, xi=xi, epsilon=eps, eta=eta)


def dirichlet_approximate(n, Q: int) -> DiophantineApprox:
    """Minimize |n - xi/k| over 1 <= k <= Q, xi integer with |xi| <= 2k.

    For each k the minimizing xi is the componentwise rounding of k*n,
    so a scan over k is already exhaustive over the full candidate set.
    """
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > _UNIT_TOL:
        raise InvalidDirectionError(f"|n| = {np.linalg.norm(n)} is not 1")
    if Q < 1:
        raise InvalidDirectionError("Q must be >= 1")
    d = n.shape[0]
    ks = np.arange(1, Q + 1, dtype=np.int64)
    cand = np.rint(ks[:, None] * n[None, :])
    errs = np.linalg.norm(n[None, :] - cand / ks[:, None], axis=1)
    best = int(np.argmin(errs))
    k = int(ks[best])
    xi = cand[best].astype(np.int64)
    err = float(errs[best])
    const = err * k * Q ** (1.0 / (d - 1))
    return DiophantineApprox(n=n, xi=xi, k=k, Q=Q, error=err, constant=const)


def brute_force_approximate(n, Q: int) -> DiophantineApprox:
    """Literal enumeration oracle over all (xi, k), 1 <= k <= Q, |xi| <= 2k."""
    n = np.asarray(n, dtype=float)
    d = n.shape[0]
    best = None
    for k in range(1, Q + 1):
        rng = np.arange(-2 * k, 2 * k + 1)
        grids = np.meshgrid(*([rng] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= 2 * k]
        errs = np.linalg.norm(n[None, :] - pts / k, axis=1)
        i = int(np.argmin(errs))
        if best is None or errs[i] < best[0] - 1e-15:
            best = (float(errs[i]), pts[i].astype(np.int64), k)
    err, xi, k = best
    return DiophantineApprox(
        n=n, xi=xi, k=k, Q=Q, error=err, constant=err * k * Q ** (1.0 / (d - 1))
    )


def parse_direction(spec):
    """Parse a direction literal.

    Accepts ``"rational: [p,q,r]"`` / ``"unit: [x,y,z]"`` strings or the
    dict forms ``{"rational": [...]}`` / ``{"unit": [...]}``.  Returns a
    RationalDirection or a unit numpy vector respectively.
    """
    import json

    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        kind = kind.strip()
        vec = json.loads(rest.strip())
    elif isinstance(spec, dict) and len(spec) == 1:
        kind, vec = next(iter(spec.items()))
    else:
        raise InvalidDirectionError(f"cannot parse direction {spec!r}")
    if kind == "rational":
        return make_rational_direction(vec)
    if kind == "unit":
        n = np.asarray(vec, dtype=float)
        nn = np.linalg.norm(n)
        if nn == 0:
            raise InvalidDirectionError("zero vector has no direction")
        return n / nn
    raise InvalidDirectionError(f"unknown direction kind {kind!r}")
