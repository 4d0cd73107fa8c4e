"""Closed-form sample points for the sampled checks of the library.

Every sampled check (operator monotonicity and Lipschitz quotients,
homogeneity, potential consistency, tensor ellipticity and symmetry) draws
its points from one seeded Kronecker (Weyl) sequence in the unit cube,

    u[j, k] = frac(k alpha_j + frac(seed beta_j)),   k = 1, ..., count,

with alpha_j = frac(sqrt(p_j)) and beta_j = frac(sqrt(p_{dim + j})) over
the first 2 dim primes p.  The square roots of distinct primes and 1 are
linearly independent over the rationals, so the points equidistribute in
the cube (Weyl, Math. Ann. 77, 1916), and the seed rotates the whole set
along an independent irrational direction: the same seed gives the same
points, distinct seeds give distinct ones.  Only +, -, *, sqrt and floor
enter, each exact or correctly rounded in IEEE 754, so a seed gives the
same bits on every platform and numpy version, which a ``numpy.random``
stream does not promise.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["weyl_points"]


def _primes(n):
    """The first n primes."""
    found = []
    k = 2
    while len(found) < n:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


def _frac(x):
    return x - np.floor(x)


def weyl_points(count, dim, low, high, seed=0):
    """``count`` points of the seeded sequence in the box [low, high], shape (dim, count).

    ``low`` and ``high`` are scalars or one bound per coordinate.  ``seed``
    is a non-negative integer.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rates = _frac(np.sqrt(np.array(_primes(2 * dim), dtype=float)))
    shift = _frac(float(seed) * rates[dim:])
    u = _frac(np.arange(1, count + 1, dtype=float) * rates[:dim, None] + shift[:, None])
    low = np.broadcast_to(np.asarray(low, dtype=float), (dim,))[:, None]
    high = np.broadcast_to(np.asarray(high, dtype=float), (dim,))[:, None]
    return low + (high - low) * u
