import json
import math

import numpy as np
import pytest

from effbc import (
    KinkPotential2D,
    QuadraticPotential,
    ReducedRootKink,
    RootKinkOperator,
    StripProblem,
    StripSolution,
    build_strip_grid,
    cosine_field,
    discrete_residual,
    make_rational_direction,
    planar_strip_grid,
    solve_linear,
    solve_nonlinear,
)
from effbc.assembly import StripReferenceSolver
from effbc.cli import main
from effbc.grid import _MeshBase
from effbc.solve import _masked_residual, nonlinear_energy


def test_quadratic_potential_matches_linear_path(laminate2, xi_e2, data_cos1):
    pL = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), laminate2, data_cos1)
    pN = StripProblem(
        build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), QuadraticPotential(laminate2), data_cos1
    )
    solL = solve_linear(pL)
    solN = solve_nonlinear(pN)
    assert np.abs(solL.values - solN.values).max() <= 1e-8


def test_energy_trace_nonincreasing(laminate2, xi_e2, data_diag):
    p = StripProblem(
        build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), QuadraticPotential(laminate2), data_diag
    )
    sol = solve_nonlinear(p)
    tr = sol.energy_trace
    assert len(tr) >= 2
    assert all(tr[i + 1] <= tr[i] + 1e-12 * max(1.0, abs(tr[0])) for i in range(len(tr) - 1))
    assert sol.energy == tr[-1]


def test_discrete_energy_gradient_matches_finite_differences():
    g = planar_strip_grid(1.0, 1.0, 12, 12)
    op = KinkPotential2D()
    tau = 1.0 / 12.0
    rng = np.random.default_rng(5)
    U = rng.standard_normal((1,) + g.node_shape)
    grad = _masked_residual(g, op, U, None, tau)
    E0 = nonlinear_energy(op, g, U, None, tau)
    h = 1e-6
    idx_lat = rng.integers(0, g.node_shape[0], 100)
    idx_lvl = rng.integers(1, g.node_shape[1], 100)
    for i, k in zip(idx_lat, idx_lvl):
        Up = U.copy()
        Up[0, i, k] += h
        Um = U.copy()
        Um[0, i, k] -= h
        fd = (nonlinear_energy(op, g, Up, None, tau) - nonlinear_energy(op, g, Um, None, tau)) / (
            2 * h
        )
        denom = max(abs(grad[0, i, k]), 1e-3 * np.abs(grad).max())
        assert abs(fd - grad[0, i, k]) / denom <= 1e-6


def test_injected_closed_form_residual_second_order():
    xi3 = make_rational_direction([0, 0, 1])
    rmss = []
    hs = (1 / 16, 1 / 32)
    for h in hs:
        prob = StripProblem(build_strip_grid(xi3, 0.0, 1.0, h=h), RootKinkOperator(), None)
        g = prob.grid
        pts = g.node_coords()
        U = ((1.0 / 3.0 + np.cos(2 * np.pi * pts[0])) * np.exp(-2 * np.pi * pts[2]))[None]
        res = discrete_residual(StripSolution(prob, g, U, 0.0, 0))
        rmss.append(res["rms"])
    assert math.log2(rmss[0] / rmss[1]) >= 1.8


def test_residual_grows_under_perturbation(xi_e2, data_cos1, laminate2):
    p = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), laminate2, data_cos1)
    sol = solve_linear(p)
    base = discrete_residual(sol)["sup"]
    h = 1 / 16
    rng = np.random.default_rng(0)
    noise = h**2 * rng.standard_normal(sol.values.shape)
    noisy = discrete_residual(sol, values=sol.values + noise)["sup"]
    assert noisy >= 10.0 * max(base, 1e-12)


def test_exact_discrete_solve_has_tiny_residual(xi_e2, data_cos1):
    from effbc import identity_tensor

    p = StripProblem(build_strip_grid(xi_e2, 0.0, 1.0, h=1 / 16), identity_tensor(2), data_cos1)
    sol = solve_linear(p)
    # algebraic residual of the solve itself
    assert sol.residual_norm <= 1e-9


def test_subsolution_dominated_by_kink_solution():
    # reduced problem at the scale of the closed forms: v >= w everywhere
    T, R = 2.0 * math.pi, 8.0
    g = planar_strip_grid(T, R, 64, 64)
    tau = R / 64
    prob = StripProblem(g, KinkPotential2D(), lambda c: 1.0 / 3.0 + np.cos(c[0]), tau=tau)
    sol = solve_nonlinear(prob)
    pts = g.node_coords()
    w = (1.0 / 3.0 + np.cos(pts[0])) * np.exp(-pts[1])
    hmax = max(g.spacings)
    assert (sol.values[0] - w).min() >= -(hmax**2 + tau)


def test_monotone_fixed_point_reduced_map():
    # non-gradient reduced map: closed-form solution decays to zero
    T, R = 1.0, 6.0
    g = planar_strip_grid(T, R, 32, 192)
    prob = StripProblem(
        g, ReducedRootKink(1.0), lambda c: 1.0 / 3.0 + np.cos(2 * np.pi * c[0]), tau=0.0
    )
    sol = solve_nonlinear(prob)
    assert sol.energy is None
    top = sol.top_slice()
    assert abs(top.mean()) <= 5e-3
    # residual trace decreased monotonically in the preconditioned norm
    tr = sol.energy_trace
    assert sol.iterations > 0 and len(tr) == sol.iterations + 1
    assert all(b < a for a, b in zip(tr, tr[1:]))


def test_root_kink_3d_small_solve():
    xi3 = make_rational_direction([0, 0, 1])
    data = cosine_field(3, [1, 0, 0], constant=1.0 / 3.0)
    p = StripProblem(build_strip_grid(xi3, 0.0, 2.0, h=1 / 8), RootKinkOperator(), data, tau=0.0)
    sol = solve_nonlinear(p)
    # far field of the closed-form solution is 0; coarse mesh bias only
    assert abs(sol.top_slice().mean()) <= 0.05


def test_descent_takes_one_gradient_per_energy(monkeypatch):
    # every residual of the descent reuses the gradient field of an energy
    # evaluation, and the lift, built in mode space, takes none
    counts = {"gradient": 0, "potential": 0, "lift": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    lift = StripReferenceSolver.lift

    def counted_lift(self, *args):
        before = counts["gradient"]
        out = lift(self, *args)
        counts["lift"] += counts["gradient"] - before
        return out

    monkeypatch.setattr(_MeshBase, "phys_gradient", counted("gradient", _MeshBase.phys_gradient))
    monkeypatch.setattr(StripReferenceSolver, "lift", counted_lift)
    monkeypatch.setattr(
        KinkPotential2D, "potential", counted("potential", KinkPotential2D.potential)
    )
    g = planar_strip_grid(1.0, 2.0, 16, 32)
    sol = solve_nonlinear(StripProblem(
        g, KinkPotential2D(), lambda c: 1 / 3 + np.cos(2 * np.pi * c[0]), tau=1 / 16
    ))
    assert sol.iterations > 0 and counts["lift"] == 0
    assert counts["gradient"] - counts["lift"] == counts["potential"]


# The benchmark's seed-0 runs.  The nonlinear ones take root-kink data
# 1/3 + cos(2 pi y_k) on the section 7 operator.

def run_pinned(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, out=str(tmp_path / "out"))))
    assert main(["--config", str(path), config["experiment"]]) == 0
    return tmp_path / "out"


def test_discontinuity_values_pinned(tmp_path):
    out = run_pinned(tmp_path, {
        "experiment": "discontinuity-demo",
        "operator": {"kind": "builtin", "name": "section7"},
        "data": {"constant": 1 / 3, "terms": [{"coef": 1.0, "freq": [0, 0, 1], "phase": "cos"}]},
        "nonlinear": {"tau": 1 / 16},
        "mesh": {"h": 1 / 16},
        "limit": {"tolerance": 1e-6, "sample_count": 32},
    })
    demo = json.loads((out / "discontinuity.json").read_text())
    values = [demo["L_e1"][0], demo["L_e2"][0]]
    pinned = [0.008140320271891467, 0.12631366197725352]
    assert values == pytest.approx(pinned, rel=1e-12, abs=0.0)


def test_sweep_values_pinned(tmp_path):
    # the benchmark's seed-0 linear sweep: the laminate with data
    # 1/3 + cos 2 pi (x1 + x2), whose far field at every direction is the
    # data's constant (no solution mode is parallel to (1, q)); the rows
    # miss it by 1.2e-7, 7.1e-8 and 1.1e-8 at the default mesh
    out = run_pinned(tmp_path, {
        "experiment": "sweep",
        "operator": {"kind": "laminate", "d": 2},
        "data": {"constant": 1 / 3, "terms": [{"coef": 1.0, "freq": [1, 1], "phase": "cos"}]},
        "directions": [
            {"unit": [math.sin(t), math.cos(t)]} for t in (math.atan2(1.0, k) for k in (6, 5, 4))
        ],
        "limit": {"tolerance": 1e-7, "sample_count": 8},
        "sweep": {"Q": 6},
    })
    values = [row["value"][0] for row in json.loads((out / "sweep.json").read_text())["rows"]]
    pinned = [0.33333345831523364, 0.33333340471481787, 0.33333332228598345]
    assert values == pytest.approx(pinned, rel=1e-12, abs=0.0)
    assert values == pytest.approx([1 / 3] * 3, rel=0.0, abs=1e-6)


def test_cell_solve_value_pinned(tmp_path):
    out = run_pinned(tmp_path, {
        "experiment": "cell-solve",
        "operator": {"kind": "builtin", "name": "section7"},
        "data": {"constant": 1 / 3, "terms": [{"coef": 1.0, "freq": [1, 0, 0], "phase": "cos"}]},
        "direction": "rational: [0,0,1]",
        "mesh": {"h": 1 / 32},
        "strip": {"R_ladder": [2.0, 4.0]},
        "nonlinear": {"tau": 1 / 64},
        "limit": {"tolerance": 1e-6},
    })
    c_star = json.loads((out / "result.json").read_text())["value"][0]
    assert c_star == pytest.approx(0.0037357381421962597, rel=1e-12, abs=0.0)
