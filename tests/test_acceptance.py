"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances and runtime caps are pinned here; nothing
is deferred to later calibration.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from effbc import (
    KinkPotential2D,
    RootKinkOperator,
    StripProblem,
    StripSolution,
    boundary_layer_limit,
    build_strip_grid,
    cosine_field,
    directional_limit,
    discrete_residual,
    epsilon_refinement_study,
    eta_independence_check,
    homogenize_linear,
    identity_tensor,
    laminate_tensor,
    make_field,
    make_rational_direction,
    planar_strip_grid,
    predict_phi_star,
    shift_profile,
    solve_nonlinear,
    subsolution_residual,
    validate_operator,
)
from effbc.cli import main
from effbc.second_cell import continuity_sweep
from effbc.solve import _masked_residual, nonlinear_energy


def _report(num, name, ok, detail, elapsed, cap):
    line = (
        f"[criterion {num}] {name}: {'PASS' if ok and elapsed <= cap else 'FAIL'}"
        f"  ({detail}; {elapsed:.1f}s of {cap:.0f}s budget)"
    )
    print(line)
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed <= cap, f"criterion {num} exceeded its runtime cap: {elapsed:.1f}s > {cap}s"


def _gap_certificate(n_lat, n_vert, tau):
    """Certified lower bound for the e2-approach limit of the kink problem.

    Solves the reduced problem at the scale of the closed forms (lateral
    period 2 pi), checks v >= w for the comparison function w, and reads
    the minimal gap on the grid row at height 1.
    """
    T, R = 2.0 * math.pi, 8.0
    grid = planar_strip_grid(T, R, n_lat, n_vert)
    prob = StripProblem(grid, KinkPotential2D(), lambda c: 1.0 / 3.0 + np.cos(c[0]), tau=tau)
    sol = solve_nonlinear(prob)
    pts = grid.node_coords()
    w = (1.0 / 3.0 + np.cos(pts[0])) * np.exp(-pts[1])
    diff = sol.values[0] - w
    k1 = grid.level_index(1.0)
    hmax = max(grid.spacings)
    return {
        "gap": float(diff[:, k1].min()),
        "domination_min": float(diff.min()),
        "tolerance": hmax**2 + tau,
        "top_mean": float(sol.top_slice().mean()),
    }


@pytest.fixture(scope="module")
def certificates():
    coarse = _gap_certificate(128, 128, 1.0 / 16.0)
    fine = _gap_certificate(256, 256, 1.0 / 32.0)
    return coarse, fine


def test_criterion_1_closed_form_residual_order():
    t0 = time.perf_counter()
    xi3 = make_rational_direction([0, 0, 1])
    hs = (1 / 16, 1 / 32, 1 / 64)
    rms, sup = [], []
    for h in hs:
        prob = StripProblem(build_strip_grid(xi3, 0.0, 1.0, h=h), RootKinkOperator(), None)
        g = prob.grid
        pts = g.node_coords()
        U = ((1.0 / 3.0 + np.cos(2 * np.pi * pts[0])) * np.exp(-2 * np.pi * pts[2]))[None]
        res = discrete_residual(StripSolution(prob, g, U, 0.0, 0))
        rms.append(res["rms"])
        sup.append(res["sup"])
    order = float(np.polyfit(np.log(hs), np.log(rms), 1)[0])
    elapsed = time.perf_counter() - t0
    _report(
        1, "injected closed form, residual order",
        order >= 1.8,
        f"fitted L2 order {order:.3f} (sup-norm order "
        f"{np.polyfit(np.log(hs), np.log(sup), 1)[0]:.3f})",
        elapsed, 120.0,
    )


def test_criterion_2_first_approach_limit_is_zero():
    t0 = time.perf_counter()
    xi3 = make_rational_direction([0, 0, 1])
    data = cosine_field(3, [1, 0, 0], constant=1.0 / 3.0)
    res = boundary_layer_limit(
        RootKinkOperator(), data, xi3, tolerance=1e-6, h=1 / 32,
        R_ladder=[4.0, 8.0], stop_on_tolerance=False, tau=0.0,
    )
    elapsed = time.perf_counter() - t0
    cstar = float(res.value[0])
    _report(
        2, "3-d solve far field (e1 data)",
        abs(cstar) <= 5e-3 and res.converged,
        f"|c*| = {abs(cstar):.2e} at h=1/32, R=8",
        elapsed, 300.0,
    )


def test_criterion_3_gap_certificate_stability(certificates):
    t0 = time.perf_counter()
    coarse, fine = certificates
    ok = (
        coarse["gap"] > 0
        and fine["gap"] > 0
        and abs(fine["gap"] - coarse["gap"]) <= 0.2 * coarse["gap"]
        and coarse["domination_min"] >= -coarse["tolerance"]
        and fine["domination_min"] >= -fine["tolerance"]
        and fine["top_mean"] >= fine["gap"]  # computed limit consistent with the bound
    )
    elapsed = time.perf_counter() - t0
    _report(
        3, "discontinuity gap certificate",
        ok,
        f"gap {coarse['gap']:.4f} -> {fine['gap']:.4f} under (h, tau) halving; "
        f"limit estimate {fine['top_mean']:.4f} >= gap",
        elapsed, 600.0,
    )


def test_criterion_4_subsolution_inequality():
    t0 = time.perf_counter()
    y = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    z = np.linspace(0.0, 4.0, 256)
    Y, Z = np.meshgrid(y, z, indexing="ij")
    vals = subsolution_residual(Y, Z)
    zero_rows = np.unique(np.where(np.abs(vals) < 1e-14)[0]).tolist()
    ok = vals.max() <= 0.0 and zero_rows == [0]
    elapsed = time.perf_counter() - t0
    _report(
        4, "subsolution residual sign",
        ok,
        f"max over 256x256 grid = {vals.max():.2e}, equality set = rows {zero_rows}",
        elapsed, 1.0,
    )


def test_criterion_5_average_formula_and_eta_independence():
    t0 = time.perf_counter()
    lam2 = laminate_tensor(2)
    hom2 = homogenize_linear(lam2)
    details = []
    ok = True
    cases = [
        ([0, 1], make_field(2, terms=[(1.0, [1, 1], "cos")], constant=1 / 3), 1 / 16),
        ([1, 1], make_field(2, terms=[(1.0, [1, 1], "cos")], constant=1 / 3), math.sqrt(2) / 16),
        ([1, 2], make_field(2, terms=[(0.5, [2, 2], "cos")], constant=1 / 3), math.sqrt(5) / 20),
    ]
    for v, data, h in cases:
        xi = make_rational_direction(v)
        prof = shift_profile(lam2, data, xi, sample_count=16, tolerance=1e-8, h=h)
        eta = xi.periods[0] / np.linalg.norm(xi.periods[0])
        lim = directional_limit(xi, eta, prof, hom2, tolerance=1e-9)
        gap = float(np.abs(lim.value - prof.mean).max())
        details.append(f"xi={v}: |L - mean| = {gap:.2e} vs 2 bars = {2 * lim.error_bar:.2e}")
        ok = ok and gap <= 2.0 * lim.error_bar
    # d = 3: spread over three approach directions
    lam3 = laminate_tensor(3)
    hom3 = homogenize_linear(lam3, h_cell=1 / 24)
    xi3 = make_rational_direction([0, 0, 1])
    data3 = make_field(
        3, terms=[(1.0, [0, 0, 1], "cos"), (0.5, [1, 0, 0], "cos")], constant=0.25
    )
    prof3 = shift_profile(lam3, data3, xi3, sample_count=16, tolerance=1e-7, h=1 / 16)
    s = 1.0 / math.sqrt(2.0)
    check = eta_independence_check(
        xi3, prof3, hom3, [[1, 0, 0], [0, 1, 0], [s, s, 0]], tolerance=1e-8
    )
    bars = max(l.error_bar for l in check["limits"])
    details.append(f"d=3 spread = {check['spread']:.2e} vs 2 bars = {2 * bars:.2e}")
    ok = ok and check["spread"] <= 2.0 * bars
    elapsed = time.perf_counter() - t0
    _report(5, "linear average formula", ok, "; ".join(details), elapsed, 900.0)


def test_criterion_6_decay_rates():
    t0 = time.perf_counter()
    I2 = identity_tensor(2)
    xi_e2 = make_rational_direction([0, 1])
    res1 = boundary_layer_limit(
        I2, cosine_field(2, [1, 0]), xi_e2, tolerance=1e-30, h=1 / 32,
        R_ladder=[0.75, 1.0, 1.25, 1.5, 1.75, 2.0], stop_on_tolerance=False,
    )
    err1 = abs(res1.decay_rate - 2 * math.pi) / (2 * math.pi)
    M = math.sqrt(5.0)
    xi12 = make_rational_direction([1, 2])
    res2 = boundary_layer_limit(
        I2, cosine_field(2, [1, 1]), xi12, tolerance=1e-30, h=M / 32,
        R_ladder=[0.5 * M, 0.75 * M, 1.0 * M, 1.25 * M], stop_on_tolerance=False,
    )
    err2 = abs(res2.decay_rate - 2 * math.pi / M) / (2 * math.pi / M)
    ok = err1 <= 0.05 and err2 <= 0.05
    elapsed = time.perf_counter() - t0
    _report(
        6, "exponential tail rates",
        ok,
        f"rate {res1.decay_rate:.4f} vs 2 pi ({100 * err1:.2f}%), "
        f"rate {res2.decay_rate:.4f} vs 2 pi / sqrt 5 ({100 * err2:.2f}%)",
        elapsed, 120.0,
    )


def test_criterion_7_laminate_effective_tensor():
    t0 = time.perf_counter()
    lam2 = laminate_tensor(2)
    hom = homogenize_linear(lam2, h_cell=1 / 64)
    harm = 1.0 / math.sqrt(3.0)
    arith = 2.0 / 3.0
    e_h = abs(hom.A0[0, 0, 0, 0] - harm)
    e_a = abs(hom.A0[1, 1, 0, 0] - arith)
    ok = e_h <= 1e-3 and e_a <= 1e-3
    elapsed = time.perf_counter() - t0
    _report(
        7, "homogenized laminate",
        ok,
        f"|A0_11 - harmonic| = {e_h:.2e}, |A0_22 - arithmetic| = {e_a:.2e} at h_cell=1/64",
        elapsed, 60.0,
    )


def test_criterion_8_epsilon_refinement():
    t0 = time.perf_counter()
    lam2 = laminate_tensor(2)
    xi_e2 = make_rational_direction([0, 1])
    study = epsilon_refinement_study(
        lam2, cosine_field(2, [1, 0]), xi_e2, [1 / 4, 1 / 8, 1 / 16], R=2.0
    )
    ratios = study["ratios"]
    ok = len(ratios) == 2 and all(r <= 0.75 for r in ratios)
    elapsed = time.perf_counter() - t0
    _report(
        8, "interior homogenization refinement",
        ok,
        f"error ratios per eps halving: {[f'{r:.3f}' for r in ratios]}, "
        f"fitted order {study['fitted_order']:.3f}",
        elapsed, 600.0,
    )


def test_criterion_9_property_suites(tmp_path, certificates):
    t0 = time.perf_counter()
    notes = []
    ok = True

    # discrete maximum principle (scalar, 2-d)
    lam2 = laminate_tensor(2)
    xi_e2 = make_rational_direction([0, 1])
    data = make_field(2, terms=[(1.0, [1, 1], "cos")], constant=1 / 3)
    from effbc import solve_linear

    sol = solve_linear(StripProblem(build_strip_grid(xi_e2, 0.0, 2.0, h=1 / 16), lam2, data))
    mp = (
        sol.values[..., 1:].max() <= sol.values[..., 0].max() + 1e-10
        and sol.values[..., 1:].min() >= sol.values[..., 0].min() - 1e-10
    )
    ok &= mp
    notes.append(f"max principle {'ok' if mp else 'VIOLATED'}")

    # energy descent on a kink solve
    g = planar_strip_grid(1.0, 2.0, 16, 32)
    prob = StripProblem(
        g, KinkPotential2D(), lambda c: 1 / 3 + np.cos(2 * np.pi * c[0]), tau=1 / 16
    )
    nsol = solve_nonlinear(prob)
    tr = nsol.energy_trace
    desc = all(tr[i + 1] <= tr[i] + 1e-12 * max(1.0, abs(tr[0])) for i in range(len(tr) - 1))
    ok &= desc
    notes.append(f"energy descent {'ok' if desc else 'VIOLATED'}")

    # discrete-energy gradient against central differences
    rng = np.random.default_rng(1)
    U = rng.standard_normal((1,) + g.node_shape)
    grad = _masked_residual(g, KinkPotential2D(), U, None, 1 / 16)
    worst = 0.0
    for i, k in zip(rng.integers(0, g.node_shape[0], 100), rng.integers(1, g.node_shape[1], 100)):
        h = 1e-6
        Up, Um = U.copy(), U.copy()
        Up[0, i, k] += h
        Um[0, i, k] -= h
        fd = (
            nonlinear_energy(KinkPotential2D(), g, Up, None, 1 / 16)
            - nonlinear_energy(KinkPotential2D(), g, Um, None, 1 / 16)
        ) / (2 * h)
        denom = max(abs(grad[0, i, k]), 1e-3 * np.abs(grad).max())
        worst = max(worst, abs(fd - grad[0, i, k]) / denom)
    ok &= worst <= 1e-6
    notes.append(f"gradient check {worst:.1e}")

    # profile periodicity within error bars (commensurate grid)
    M = math.sqrt(5.0)
    xi12 = make_rational_direction([1, 2])
    d22 = make_field(2, terms=[(0.5, [2, 2], "cos")], constant=1 / 3)
    r0 = boundary_layer_limit(lam2, d22, xi12, s=0.05, tolerance=1e-8, h=M / 20)
    r1 = boundary_layer_limit(lam2, d22, xi12, s=0.05 + 1.0 / M, tolerance=1e-8, h=M / 20)
    per = abs(r0.value[0] - r1.value[0]) <= 2.0 * (r0.error_bar + r1.error_bar)
    ok &= per
    notes.append(f"shift periodicity {'ok' if per else 'VIOLATED'}")

    # monotonicity constants of the reduced kink map
    lam_hat, lip_hat, _ = validate_operator(KinkPotential2D(), sample_count=10000, seed=1)
    mono = 0.74 <= lam_hat <= 0.76
    ok &= mono
    notes.append(f"lambda_hat {lam_hat:.4f}")

    # CLI determinism
    cfgs = []
    for name in ("r1", "r2"):
        cfg = {
            "experiment": "phi-star",
            "operator": {"kind": "laminate", "d": 2},
            "data": {"constant": 1 / 3, "terms": [{"coef": 1.0, "freq": [1, 1], "phase": "cos"}]},
            "direction": "rational: [0,1]",
            "mesh": {"h": 0.0625},
            "limit": {"tolerance": 1e-7, "sample_count": 8},
            "seed": 3,
            "out": str(tmp_path / name),
        }
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "phi-star"]) == 0
        cfgs.append(cfg)
    det = all(
        (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()
        for f in ("profile.csv", "profile.json", "profile.svg")
    )
    ok &= det
    notes.append(f"CLI determinism {'ok' if det else 'VIOLATED'}")

    # continuity contrast: positive-exponent fit on the linear example,
    # a jump wider than the numeric bars for the kink operator
    thetas = np.linspace(0.08, 0.45, 6)
    dirs = [np.array([math.sin(t), math.cos(t)]) for t in thetas]
    rep = continuity_sweep(lam2, data, dirs, Q=10, tolerance=1e-7, profile_samples=8)
    lin_ok = (not rep.degenerate) and rep.alpha_hat > 0.0
    ok &= lin_ok
    notes.append(f"linear sweep alpha_hat {rep.alpha_hat:.3f}")

    rk = RootKinkOperator()
    data3 = cosine_field(3, [0, 0, 1], constant=1 / 3)
    eps = 0.04
    preds = {}
    for axis, tag in ((0, "e1"), (1, "e2")):
        n = np.zeros(3)
        n[2] = math.cos(eps)
        n[axis] = -math.sin(eps)
        preds[tag] = predict_phi_star(
            n, rk, data3, Q=8, tolerance=1e-8, profile_samples=16, h=1 / 16,
            tau=1 / 64, n_lat=64,
        )
    jump = float(preds["e2"].value[0] - preds["e1"].value[0])
    delta_hat = certificates[1]["gap"]
    bars = preds["e1"].numeric_bar + preds["e2"].numeric_bar
    jump_ok = jump > bars and jump >= 0.5 * delta_hat
    ok &= jump_ok
    notes.append(f"kink jump {jump:.4f} vs certificate {delta_hat:.4f}")

    elapsed = time.perf_counter() - t0
    _report(9, "property suites", ok, "; ".join(notes), elapsed, 900.0)
