"""Boundary layer limits, shift profiles, and exponential decay fits.

The far-field constant of a strip solve is read from the top slice of a
Neumann-top solve: the natural condition converges to the free constant
without knowing it in advance.  Limits are extracted on a height ladder
R = 4M, 8M, 16M, ... (M the longest boundary period) until the top-slice
oscillation drops below tolerance; the reported error bar combines that
oscillation with the change of the constant across the last two rungs,
plus a small algebraic floor.

Work is reused across rungs and shifts.  A rung whose grid extends the
previous one upward (same lateral mesh, origin, normal and vertical
spacing, more levels) starts from the previous rung's values, continued
above by their top slice; any other rung starts from the harmonic
extension.  The rungs of a doubling ladder nest: when h divides the
periods and heights every rung has spacing h, and otherwise the lateral
counts are rounded up per period and the vertical spacing is fixed once
from the first rung's height.  The stopping targets are those of a cold
start, so a warm rung is held to the same absolute residual.  A shift
profile builds one reference solver per rung geometry and shares it
between its shifts, which move only the strip's origin.  A rung whose data
and start are constant along lateral axes, under a y-independent operator,
is solved on a strip without them and its values broadcast back
(``effbc.solve``); the cache then holds only the reduced strip's solver.
``diagnostics["rungs"]`` records each rung's height, iteration count,
whether it started warm, and the lateral cells it was solved on; the
result's ``summary()`` carries that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import build_strip_grid
from .lattice import RationalDirection
from .solve import StripProblem, solve_strip

__all__ = [
    "BoundaryLayerResult",
    "ShiftProfile",
    "boundary_layer_limit",
    "doubling_ladder",
    "ladder_limit",
    "shift_profile",
    "fit_decay",
]

_OSC_FLOOR = 1e-13


def slice_stats(values):
    """(mean vector, oscillation) of a boundary-parallel slice (N, *lat)."""
    flat = values.reshape(values.shape[0], -1)
    mean = flat.mean(axis=1)
    osc = float((flat.max(axis=1) - flat.min(axis=1)).max())
    return mean, osc


@dataclass
class BoundaryLayerResult:
    value: np.ndarray  # far-field constant, (N,)
    decay_rate: float  # fitted rate per unit height; inf when degenerate
    error_bar: float
    heights_used: list
    converged: bool
    oscillations: list = field(default_factory=list)
    values_per_height: list = field(default_factory=list)
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)

    def summary(self):
        return {
            "value": np.asarray(self.value).tolist(),
            "decay_rate": None if not np.isfinite(self.decay_rate) else self.decay_rate,
            "error_bar": self.error_bar,
            "heights_used": list(self.heights_used),
            "converged": bool(self.converged),
            "oscillations": [float(o) for o in self.oscillations],
            "rungs": list(self.diagnostics.get("rungs", [])),
        }


def fit_decay(heights, oscillations, min_points=2):
    """Least-squares fit osc ~ C exp(-rate * R) on the log scale.

    Returns a dict with C, rate (per unit height), the fit residual and a
    ``degenerate`` flag (all oscillations at the floor, e.g. constant
    data).  Points at or below the floor are excluded from the fit.
    """
    heights = np.asarray(heights, dtype=float)
    osc = np.asarray(oscillations, dtype=float)
    floor = _OSC_FLOOR * max(1.0, float(osc.max(initial=0.0)))
    keep = osc > floor
    if keep.sum() < min_points:
        return {"C": 0.0, "rate": float("inf"), "residual": 0.0, "degenerate": True}
    x = heights[keep]
    y = np.log(osc[keep])
    coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
    rate = -float(coeffs[0])
    C = float(np.exp(coeffs[1]))
    residual = float(np.sqrt(res[0] / keep.sum())) if len(res) else 0.0
    return {"C": C, "rate": rate, "residual": residual, "degenerate": False}


def _nests(lower, upper):
    """Whether grid ``upper`` extends grid ``lower`` upward: the same lateral
    mesh, origin and normal, the same vertical spacing, more levels."""
    return (
        lower.lat_cells == upper.lat_cells
        and lower.s == upper.s
        and upper.n_vert > lower.n_vert
        and np.array_equal(lower.normal, upper.normal)
        and np.array_equal(lower.edges[:, :-1], upper.edges[:, :-1])
        and math.isclose(lower.R / lower.n_vert, upper.R / upper.n_vert, rel_tol=1e-12)
    )


def ladder_limit(problem_for_height, ladder, tolerance, stop_on_tolerance=True, solvers=None):
    """Run strip solves over a height ladder and extract the far field.

    ``problem_for_height`` maps a height R to a StripProblem.  A rung
    whose grid nests the previous rung's starts from that rung's values,
    extended upward by their top slice.  ``solvers``, a dict, caches one
    reference solver per geometry solved on (shared by the ladders of a
    shift profile); it is handed to the solve, so a rung that is solved on
    a strip without its invariant lateral axes (laterally invariant data
    and start, y-independent operator; its values broadcast back) builds
    only that strip's solver.  Each entry of ``diagnostics["rungs"]``
    records the rung's height, iterations, warm start and the lateral
    ``cells`` it was solved on (those of the reduced strip, say [32]).  Never silent: when
    the ladder is exhausted above tolerance the result carries
    converged=False plus diagnostics.
    """
    heights, means, oscs = [], [], []
    iters = 0
    solutions = []
    rungs = []
    for R in ladder:
        problem = problem_for_height(R)
        prev = solutions[-1] if solutions else None
        warm = prev is not None and _nests(prev.grid, problem.grid)
        if warm:  # the solver continues the lower rung upward by its top slice
            problem = replace(problem, start=prev.values)
        sol = solve_strip(problem, solvers)
        solutions.append(sol)
        mean, osc = slice_stats(sol.top_slice())
        heights.append(float(R))
        means.append(mean)
        oscs.append(osc)
        iters += sol.iterations
        rungs.append({
            "R": float(R), "iterations": sol.iterations, "warm": warm,
            "cells": list(sol.solved_cells),
        })
        # two rungs at least: the error bar compares the last two
        if stop_on_tolerance and len(heights) > 1 and osc <= tolerance:
            break
    value = means[-1]
    ladder_term = float(np.max(np.abs(means[-1] - means[-2]))) if len(means) > 1 else 0.0
    floor = 1e-12 * (1.0 + float(np.max(np.abs(value))))
    bar = oscs[-1] + ladder_term + floor
    fit = fit_decay(heights, oscs)
    converged = oscs[-1] <= tolerance
    result = BoundaryLayerResult(
        value=value,
        decay_rate=fit["rate"],
        error_bar=bar,
        heights_used=heights,
        converged=converged,
        oscillations=oscs,
        values_per_height=[m.tolist() for m in means],
        iterations=iters,
        diagnostics={"decay_fit": fit, "rungs": rungs},
    )
    return result, solutions


def doubling_ladder(start, stop):
    """Heights start, 2 start, 4 start, ... up to the first one >= stop."""
    ladder = [start]
    while ladder[-1] < stop - 1e-12:
        ladder.append(2.0 * ladder[-1])
    return ladder


def _cells_for(L, h):
    """Cells of spacing at most h over length L (tolerant of rounding)."""
    return max(2, math.ceil(L / h - 1e-9))


def _mesh_for(xi, R, h, R0):
    """Mesh keywords for a ladder rung of height R on a ladder starting at
    R0: exact divisibility when h allows it, otherwise lateral cell counts
    rounded up per period (d=3 directions with incommensurable period
    lengths) and a vertical spacing fixed once by the first rung,
    R0 / ceil(R0 / h), so that every rung nests in the one below."""
    periods = [math.sqrt(float(ell @ ell)) for ell in xi.periods]
    lengths = periods + [float(R)]
    exact = all(abs(round(L / h) - L / h) <= 1e-9 * max(1.0, L / h) for L in lengths)
    if exact:
        return {"h": h}
    spacing = R0 / _cells_for(R0, h)
    cells = tuple(_cells_for(L, h) for L in periods) + (_cells_for(R, spacing),)
    return {"cells": cells}


def boundary_layer_limit(
    operator,
    data,
    xi: RationalDirection,
    s=0.0,
    tolerance=1e-8,
    h=None,
    tau=0.0,
    R_ladder=None,
    max_factor=64,
    rtol=1e-10,
    stop_on_tolerance=True,
    keep_solutions=False,
    solvers=None,
):
    """Far-field constant of the half-space problem in direction xi, shift s.

    The ladder defaults to R = 4M, 8M, ..., 64M.  Heights are multiples
    of M = max |ell_j| so a spacing h dividing the periods also divides
    every rung.  ``solvers`` is the reference-solver cache of ladder_limit.
    """
    M = xi.period_bound
    if R_ladder is None:
        R_ladder = doubling_ladder(4.0 * M, max_factor * M)
    if h is None:
        h = min(0.125, M / 16.0)

    def make(R):
        grid = build_strip_grid(xi, s, R, **_mesh_for(xi, R, h, R_ladder[0]))
        return StripProblem(grid, operator, data, tau=tau, rtol=rtol)

    result, solutions = ladder_limit(
        make, R_ladder, tolerance, stop_on_tolerance, solvers=solvers
    )
    if keep_solutions:
        result.diagnostics["solutions"] = solutions
    return result


@dataclass
class ShiftProfile:
    """Sampled map s -> far-field constant over one period of shifts.

    The profile is 1/|xi| periodic; ``mean`` is the trapezoid average
    over the period, which on a uniform periodic grid is the plain sample
    average.
    """

    xi: RationalDirection
    shifts: np.ndarray
    samples: list  # list of (s, BoundaryLayerResult)
    period: float
    mean: np.ndarray
    n_components: int = 1

    @property
    def values(self):
        return np.stack([r.value for _, r in self.samples])  # (S, N)

    @property
    def max_error_bar(self):
        return max(r.error_bar for _, r in self.samples)

    def interpolator(self, kind="cubic"):
        """Periodic interpolant of the profile; returns f(t) -> (N,) array.

        ``cubic`` is the periodic C2 cubic spline through the samples, in
        closed form on the uniform shift grid: its knot second derivatives
        M solve the circulant system M[i-1] + 4 M[i] + M[i+1] =
        6 (v[i-1] - 2 v[i] + v[i+1]) / h^2, which the FFT diagonalizes
        (symbol 4 + 2 cos(2 pi k / S) >= 2).
        """
        v = self.values
        S = len(v)
        if kind == "cubic":
            h = self.period / S
            curv = np.roll(v, 1, axis=0) - 2.0 * v + np.roll(v, -1, axis=0)
            symbol = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(S // 2 + 1) / S)
            M = np.fft.irfft(
                np.fft.rfft(curv * (6.0 / h**2), axis=0) / symbol[:, None], n=S, axis=0
            )

            def spline(t):
                x = np.mod(t, self.period) / h
                i = np.minimum(np.floor(x).astype(int), S - 1)
                b = (x - i)[..., None]
                a = 1.0 - b
                j = (i + 1) % S
                return a * v[i] + b * v[j] + (h * h / 6.0) * (
                    (a**3 - a) * M[i] + (b**3 - b) * M[j]
                )

            return spline
        if kind == "linear":
            s = np.append(self.shifts, self.period)
            v = np.vstack([v, v[:1]])

            def f(t):
                tm = np.mod(t, self.period)
                out = np.empty(np.shape(tm) + (v.shape[1],))
                for j in range(v.shape[1]):
                    out[..., j] = np.interp(tm, s, v[:, j])
                return out
            return f
        raise ValueError(f"unknown interpolation kind {kind!r}")

    def interpolation_gap(self):
        """Max difference between cubic and linear interpolants at midpoints;
        an honest computable proxy for the profile interpolation error."""
        mids = self.shifts + 0.5 * self.period / len(self.shifts)
        c = self.interpolator("cubic")(mids)
        l = self.interpolator("linear")(mids)
        return float(np.max(np.abs(c - l)))

    def all_converged(self):
        return all(r.converged for _, r in self.samples)


def shift_profile(
    operator,
    data,
    xi: RationalDirection,
    sample_count=16,
    tolerance=1e-8,
    h=None,
    tau=0.0,
    **limit_kwargs,
) -> ShiftProfile:
    """Sample the far-field constant over shifts s in [0, 1/|xi|).

    Samples are independent ladders, run in s order in the calling thread,
    that share one reference solver per rung geometry, built on first use
    and dropped on return.
    """
    if sample_count < 8:
        raise ValueError("sample_count must be at least 8")
    period = 1.0 / xi.norm
    shifts = np.arange(sample_count) * (period / sample_count)
    solvers = {}
    results = [
        boundary_layer_limit(
            operator, data, xi, s=s, tolerance=tolerance, h=h, tau=tau, solvers=solvers,
            **limit_kwargs,
        )
        for s in shifts
    ]
    values = np.stack([r.value for r in results])
    mean = values.mean(axis=0)
    return ShiftProfile(
        xi=xi,
        shifts=shifts,
        samples=list(zip(shifts.tolist(), results)),
        period=period,
        mean=mean,
        n_components=values.shape[1],
    )
