"""Directional limits via the reduced half-space problem for the
effective operator, and the continuity / discontinuity experiments.

A sequence of directions approaching a rational direction xi along a unit
vector eta perpendicular to xi has its limit determined by a half-space
problem for the effective operator with boundary data given by the shift
profile read along eta.  Because that data is invariant under
translations orthogonal to both xi and eta, the solve reduces exactly to
two variables (t, r) = (x . eta, x . xi_hat): a planar strip with lateral
period equal to the profile period.  This reduction is always used; the
full d-dimensional problem is never discretized here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EffbcError
from .fields import LinearTensorField
from .grid import planar_strip_grid
from .homogenize import HomogenizedTensor, homogenize_linear
from .lattice import (
    RationalDirection,
    decompose_direction,
    dirichlet_approximate,
    make_rational_direction,
)
from .layers import ShiftProfile, doubling_ladder, ladder_limit, shift_profile
from .operators import reduce_tensor, restrict
from .solve import StripProblem, solve_nonlinear

__all__ = [
    "DirectionalLimit",
    "GapCertificate",
    "SweepReport",
    "directional_limit",
    "effective_operator",
    "eta_independence_check",
    "predict_phi_star",
    "continuity_sweep",
    "subsolution_residual",
    "gap_certificate",
    "reduced_kink_residual",
    "reduce_tensor",
]


@dataclass
class DirectionalLimit:
    value: np.ndarray  # (N,)
    eta: np.ndarray
    error_bar: float
    heights_used: list = field(default_factory=list)
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)


def effective_operator(operator, h_cell=None):
    """The operator of the directional limits of problems with ``operator``:
    the homogenized tensor of a linear field (on the cell mesh ``h_cell``),
    or a spatially homogeneous map as it stands.  A y-dependent nonlinear
    map has none here, since only linear fields are homogenized."""
    if isinstance(operator, LinearTensorField):
        return homogenize_linear(operator, h_cell=h_cell)
    if operator.y_dependent:
        raise EffbcError("a y-dependent nonlinear map has no effective operator here")
    return operator


def _reduced_operator(effective, eta, xi_hat):
    """The 2-d operator of the reduction of a spatially homogeneous
    effective operator, ``operators.restrict`` to the frame [eta, xi_hat],
    and whether it is linear."""
    if getattr(effective, "y_dependent", False):
        raise EffbcError("directional limits need a homogeneous operator (homogenize first)")
    if isinstance(effective, HomogenizedTensor):
        effective = effective.as_tensor_field()
    elif not (isinstance(effective, LinearTensorField) or hasattr(effective, "flux")):
        raise EffbcError(f"cannot interpret effective operator {effective!r}")
    op2 = restrict(effective, np.stack([np.asarray(eta, float), np.asarray(xi_hat, float)], axis=1))
    return op2, isinstance(op2, LinearTensorField)


def _profile_data(profile, kind):
    interp = profile.interpolator(kind)

    def data(coords):
        vals = interp(coords[0])
        return np.moveaxis(vals, -1, 0)

    return data


def directional_limit(
    xi: RationalDirection,
    eta,
    profile: ShiftProfile,
    effective,
    tolerance=1e-8,
    n_lat=None,
    tau=0.0,
    max_factor=64,
    solvers=None,
    rtol=1e-10,
) -> DirectionalLimit:
    """Limit along approach direction eta of the reduced effective problem.

    Boundary data is the periodic interpolant of the profile at t = x . eta
    (cubic for linear effective operators, linear otherwise).  The error
    bar stacks the strip ladder bar, the worst profile sample bar, and the
    cubic/linear interpolation gap.  ``solvers`` is the reference-solver
    cache of ladder_limit; the limits of one profile solve on the same
    planar strips whatever eta is, so a dict passed to each of them builds
    one solver per rung height.  ``rtol`` is the Krylov tolerance of the
    reduced strip solves.
    """
    eta = np.asarray(eta, dtype=float)
    if abs(float(eta @ xi.xi)) > 1e-9:
        raise EffbcError("eta must be orthogonal to xi")
    op2, is_linear = _reduced_operator(effective, eta, xi.xi_hat)
    interp = "cubic" if is_linear else "linear"
    data = _profile_data(profile, interp)
    T = profile.period
    if n_lat is None:
        n_lat = max(16, 2 * len(profile.shifts), int(math.ceil(8.0 * T)))
    h_t = T / n_lat
    ladder = doubling_ladder(4.0 * T, max_factor * T)

    def make(R):
        grid = planar_strip_grid(T, R, n_lat, int(round(R / h_t)))
        return StripProblem(grid, op2, data, tau=tau, rtol=rtol)

    result, _ = ladder_limit(make, ladder, tolerance, solvers=solvers)
    bar = result.error_bar + profile.max_error_bar + profile.interpolation_gap()
    return DirectionalLimit(
        value=result.value,
        eta=eta,
        error_bar=float(bar),
        heights_used=result.heights_used,
        converged=result.converged,
        diagnostics={"strip_bar": result.error_bar, "interp": interp},
    )


def eta_independence_check(xi, profile, effective, eta_set, tolerance=1e-8, **kwargs):
    """Directional limits for several approach directions and their spread.

    For linear effective operators the limits agree up to error bars with
    the period average of the profile, independently of eta.  The limits
    share one reference-solver cache (``solvers``) unless given their own;
    the other keyword arguments (``tau``, ``n_lat``, ``rtol``, ...) go to
    each ``directional_limit``.
    """
    kwargs.setdefault("solvers", {})
    limits = [
        directional_limit(xi, eta, profile, effective, tolerance, **kwargs)
        for eta in eta_set
    ]
    vals = np.stack([lim.value for lim in limits])
    spread = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            spread = max(spread, float(np.max(np.abs(vals[i] - vals[j]))))
    return {"limits": limits, "spread": spread}


@dataclass
class PredictedValue:
    n: np.ndarray
    value: np.ndarray
    error_bar: float  # numeric bar plus the fitted angle term
    xi: RationalDirection
    k: int
    epsilon: float
    eta: np.ndarray
    approx_error: float
    provenance: str  # "rational" (exact direction) or "prediction"
    converged: bool = True
    numeric_bar: float = 0.0  # solver + profile + interpolation only
    angle_term: float = 0.0


def predict_phi_star(
    n,
    operator,
    data,
    Q=12,
    tolerance=1e-7,
    profile_samples=16,
    h=None,
    tau=0.0,
    effective=None,
    n_lat=None,
) -> PredictedValue:
    """Far-field value at an arbitrary direction via a rational approximant.

    Chain: Dirichlet approximation -> approach split -> shift profile ->
    reduced directional limit.  For rational n the angle epsilon vanishes
    and the result is exactly the directional limit of its own direction;
    otherwise the bar carries an extra angle term C |xi|^(1/2) eps^(1/2)
    (the constants are not pinned by theory; C is the gradient bound of the
    data, or 1 when it has none).
    """
    n = np.asarray(n, dtype=float)
    if effective is None:
        effective = effective_operator(operator)
    ap = dirichlet_approximate(n, Q)
    xi = make_rational_direction(ap.xi)
    dec = decompose_direction(n, xi)
    if not isinstance(operator, LinearTensorField):
        # only Hoelder regularity of the profile is guaranteed here, so the
        # linear-interpolation fallback gets twice the samples
        profile_samples = 2 * profile_samples
    profile = shift_profile(
        operator, data, xi, sample_count=profile_samples, tolerance=tolerance,
        h=h, tau=tau,
    )
    lim = directional_limit(xi, dec.eta, profile, effective, tolerance, tau=tau, n_lat=n_lat)
    angle_term = 0.0
    provenance = "rational"
    if dec.epsilon > 1e-13:
        C = data.grad_sup_bound() if hasattr(data, "grad_sup_bound") else 1.0
        angle_term = float(C * xi.norm**0.5 * dec.epsilon**0.5)
        provenance = "prediction"
    return PredictedValue(
        n=n,
        value=lim.value,
        error_bar=lim.error_bar + angle_term,
        xi=xi,
        k=ap.k,
        epsilon=dec.epsilon,
        eta=dec.eta,
        approx_error=ap.error,
        provenance=provenance,
        converged=lim.converged,
        numeric_bar=lim.error_bar,
        angle_term=angle_term,
    )


@dataclass
class SweepReport:
    rows: list
    alpha_hat: float
    prefactor_hat: float
    pairs_used: int
    degenerate: bool
    pairs: list = field(default_factory=list)  # (dist, gap) of every fitted pair
    alpha_range: list = field(default_factory=lambda: [float("nan")] * 2)

    def table(self):
        out = []
        for r in self.rows:
            if r["ok"]:
                p = r["prediction"]
                out.append(
                    {
                        "n": p.n.tolist(),
                        "value": p.value.tolist(),
                        "error_bar": p.error_bar,
                        "xi": p.xi.xi.tolist(),
                        "k": p.k,
                        "epsilon": p.epsilon,
                        "provenance": p.provenance,
                        "ok": True,
                    }
                )
            else:
                out.append({"n": r["n"], "ok": False, "error": r["error"]})
        return out


def continuity_sweep(operator, data, directions, Q=12, tolerance=1e-7, **kwargs) -> SweepReport:
    """Far-field values over a direction list with a modulus-of-continuity fit.

    Pairs whose value difference sits below the combined error bars are
    excluded from the fit (they carry no signal about the modulus); rows
    whose solve fails are flagged, never dropped silently.  ``alpha_range``
    is the range of the fitted exponent as every fitted gap moves within
    its numeric bars.  The effective operator is found once for the whole
    sweep unless ``effective`` is given.
    """
    if kwargs.get("effective") is None:
        try:
            kwargs["effective"] = effective_operator(operator)
        except EffbcError:
            pass  # every row then meets the failure itself and is flagged
    rows = []
    for n in directions:
        try:
            pred = predict_phi_star(n, operator, data, Q=Q, tolerance=tolerance, **kwargs)
            rows.append({"n": np.asarray(n, float).tolist(), "ok": True, "prediction": pred})
        except EffbcError as exc:
            rows.append({"n": np.asarray(n, float).tolist(), "ok": False, "error": str(exc)})
    good = [r["prediction"] for r in rows if r["ok"]]
    pairs, bars = [], []
    for i in range(len(good)):
        for j in range(i + 1, len(good)):
            gap = float(np.max(np.abs(good[i].value - good[j].value)))
            # the numeric bars separate signal from solver noise; the angle
            # term is the modulus under study and must not mask the fit
            bar = good[i].numeric_bar + good[j].numeric_bar
            dist = float(np.linalg.norm(good[i].n - good[j].n))
            if gap > bar and dist > 0:
                pairs.append((dist, gap))
                bars.append(bar)
    report = SweepReport(
        rows=rows, alpha_hat=float("nan"), prefactor_hat=float("nan"),
        pairs_used=len(pairs), degenerate=len(pairs) < 2, pairs=pairs,
    )
    if not report.degenerate:
        dn, dv = np.array(pairs).T
        log_dn = np.log(dn)
        coeff = np.polyfit(log_dn, np.log(dv), 1)
        report.alpha_hat = float(coeff[0])
        report.prefactor_hat = float(np.exp(coeff[1]))
        # the fitted slope is linear in each log gap with the sign of
        # log dist - mean, so moving every gap to the end of its bar that
        # raises (lowers) the slope gives its exact extremes over the bars
        up = np.sign(log_dn - log_dn.mean()) * np.array(bars)
        report.alpha_range = [
            float(np.polyfit(log_dn, np.log(dv - up), 1)[0]),
            float(np.polyfit(log_dn, np.log(dv + up), 1)[0]),
        ]
    return report


def subsolution_residual(y, z):
    """Piecewise closed-form bound for the residual of the comparison
    function w(y, z) = (1/3 + cos y) e^{-z} under the reduced kink map.

    Nonpositive everywhere, and zero exactly on {cos y = 1}; evaluating it
    on a grid certifies that w is a subsolution, which is what drives the
    gap certificate of the discontinuity demo.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    c = np.cos(y)
    val = np.where(c < 0.0, -4.0 / 9.0 - c / 3.0, 0.25 * (c - 1.0))
    return val * np.exp(-z)


@dataclass
class GapCertificate:
    gap: float  # min over t of v - w at the certificate height
    domination: float  # min of v - w over the whole strip
    height: float
    solution: object  # the StripSolution v


def gap_certificate(effective, tau) -> GapCertificate:
    """Certificate of a positive directional limit at xi = e3 along e2.

    Solves the problem of ``effective`` reduced along eta = e2, in the
    coordinates (t, r) = (x . e2, x . e3), at the scale of the closed
    forms: lateral period 2 pi, height 8, 128 x 128 cells, data
    1/3 + cos t.  The comparison function w = (1/3 + cos t) e^{-r} is a
    subsolution of the reduced kink map (subsolution_residual), so v >= w;
    the gap is min_t (v - w) at height 1, and a positive gap bounds the
    limit along e2 away from the limit 0 along e1.
    """
    height = 1.0
    grid = planar_strip_grid(2.0 * np.pi, 8.0, 128, 128)
    reduced, _ = _reduced_operator(effective, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    data = lambda c: 1.0 / 3.0 + np.cos(c[0])
    sol = solve_nonlinear(StripProblem(grid, reduced, data, tau=tau))
    pts = grid.node_coords()
    diff = sol.values[0] - (1.0 / 3.0 + np.cos(pts[0])) * np.exp(-pts[1])
    gap = float(diff[:, grid.level_index(height)].min())
    return GapCertificate(gap=gap, domination=float(diff.min()), height=height, solution=sol)


def reduced_kink_residual(y, z):
    """Exact residual of w(y, z) = (1/3 + cos y) e^{-z} under the map
    (w_y, (9/8) w_z + (3/8)|w_z|), by direct differentiation.

    Piecewise in the sign of g = 1/3 + cos y (the sign of -w_z):
    [cos(y)/4 - 1/4] e^{-z} where g >= 0 and [-cos(y)/2 - 1/2] e^{-z}
    where g < 0.  Also nonpositive, vanishing on cos y = 1 and cos y = -1.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    g = 1.0 / 3.0 + np.cos(y)
    c = np.cos(y)
    val = np.where(g >= 0.0, 0.25 * c - 0.25, -0.5 * c - 0.5)
    return val * np.exp(-z)
