"""Sampled checks of operator properties that only the tests make.

``homogeneity_check`` measures a(t p) = t a(p), ``potential_gradient_consistency``
the flux against central differences of the potential, and
``root_kink_identity_residual`` the defining identity of the root kink's
f.  The points are those of ``effbc.sampling.weyl_points``, as in the
library's ``validate_operator``.
"""

from __future__ import annotations

import numpy as np

from effbc.operators import RootKinkOperator
from effbc.sampling import weyl_points


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
