"""Command line drivers for the canned experiments.

Every subcommand consumes one JSON config (--config), writes its reports
into --out, and finishes with a manifest listing every emitted file.
Exit codes: 0 ok, 2 config error, 3 solver failure, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import ConfigError, InvalidDirectionError, InvalidMeshError, NonConvergedError, SolverFailureError
from .fields import LinearTensorField
from .homogenize import epsilon_refinement_study, homogenize_linear
from .layers import boundary_layer_limit, shift_profile
from .lattice import make_rational_direction
from .operators import validate_operator
from .reports import Reporter, SvgPlot, solution_text, svg_panels
from .second_cell import (
    continuity_sweep, effective_operator, eta_independence_check, gap_certificate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NONCONV = 4


def _limit_kwargs(cfg: ExperimentConfig):
    """The ladder keywords of a config's strip solves, from limit.tolerance,
    mesh.h, nonlinear.tau, solver.tol, strip.R / strip.R_ladder and
    limit.max_factor."""
    kw = {"tolerance": cfg.tolerance, "h": cfg.h, "tau": cfg.tau, "rtol": cfg.solver_tol}
    if cfg.R_ladder:
        kw["R_ladder"] = list(cfg.R_ladder)
    elif cfg.R is not None:
        kw["R_ladder"] = [cfg.R / 2.0, cfg.R]
    else:
        kw["max_factor"] = cfg.max_factor
    return kw


def _operator_report(cfg):
    if isinstance(cfg.operator, LinearTensorField):
        return None
    lam_hat, lip_hat, report = validate_operator(cfg.operator, seed=cfg.seed, tau=cfg.tau)
    return report


def cmd_cell_solve(cfg: ExperimentConfig, rep: Reporter) -> int:
    rep.start("cell-solve")
    result = boundary_layer_limit(
        cfg.operator, cfg.data, cfg.direction, s=0.0, keep_solutions=True, **_limit_kwargs(cfg)
    )
    rep.stop("cell-solve")
    solutions = result.diagnostics.pop("solutions")
    with rep.open_binary("solution.csv") as f:
        solution_text(solutions[-1], out=f)
    summary = result.summary()
    vreport = _operator_report(cfg)
    if vreport:
        summary["operator_validation"] = vreport
    rep.write_json("result.json", summary)
    rep.finalize()
    return EXIT_OK if result.converged else EXIT_NONCONV


def _profile_rows(profile):
    rows = []
    for s, r in profile.samples:
        rate = r.decay_rate if np.isfinite(r.decay_rate) else float("inf")
        rows.append([s] + list(np.asarray(r.value)) + [r.error_bar, rate])
    return rows


def _write_profile(rep, profile, stem="profile"):
    N = profile.n_components
    header = ["s"] + [f"cstar_{i + 1}" for i in range(N)] + ["error_bar", "decay_rate"]
    rep.write_csv(f"{stem}.csv", header, _profile_rows(profile))
    rep.write_json(
        f"{stem}.json",
        {
            "xi": profile.xi.xi.tolist(),
            "period": profile.period,
            "mean": profile.mean.tolist(),
            "max_error_bar": profile.max_error_bar,
            "sample_count": len(profile.shifts),
            "all_converged": profile.all_converged(),
        },
    )
    plot = SvgPlot(title="far-field constant vs boundary shift", xlabel="s", ylabel="c*")
    plot.add_line(profile.shifts, profile.values[:, 0])
    plot.add_points(profile.shifts, profile.values[:, 0])
    rep.write_svg(f"{stem}.svg", plot.to_svg())
    return profile


def _config_profile(cfg: ExperimentConfig, rep: Reporter, phase):
    """The shift profile of the config's direction, timed as ``phase`` and
    written as profile.*."""
    rep.start(phase)
    profile = shift_profile(
        cfg.operator, cfg.data, cfg.direction, sample_count=cfg.sample_count, **_limit_kwargs(cfg)
    )
    rep.stop(phase)
    return _write_profile(rep, profile)


def cmd_phi_star(cfg: ExperimentConfig, rep: Reporter) -> int:
    profile = _config_profile(cfg, rep, "phi-star")
    rep.finalize()
    return EXIT_OK if profile.all_converged() else EXIT_NONCONV


def cmd_second_cell(cfg: ExperimentConfig, rep: Reporter) -> int:
    rep.start("homogenize")
    effective = effective_operator(cfg.operator, h_cell=cfg.h_cell)
    rep.stop("homogenize")
    profile = _config_profile(cfg, rep, "profile")
    etas = cfg.etas or [cfg.direction.periods[0] / np.linalg.norm(cfg.direction.periods[0])]
    rep.start("second-cell")
    check = eta_independence_check(
        cfg.direction, profile, effective, etas, tolerance=cfg.tolerance, tau=cfg.tau,
        rtol=cfg.solver_tol,
    )
    rep.stop("second-cell")
    rows = []
    N = profile.n_components
    for eta, lim in zip(etas, check["limits"]):
        rows.append(list(np.asarray(eta)) + list(lim.value) + [lim.error_bar])
    header = [f"eta_{i + 1}" for i in range(cfg.direction.d)] + [
        f"L_{i + 1}" for i in range(N)
    ] + ["error_bar"]
    rep.write_csv("directional_limits.csv", header, rows)
    rep.write_json(
        "second_cell.json",
        {
            "spread": check["spread"],
            "profile_mean": profile.mean.tolist(),
            "limits": [
                {"eta": np.asarray(e).tolist(), "value": l.value.tolist(), "error_bar": l.error_bar}
                for e, l in zip(etas, check["limits"])
            ],
        },
    )
    rep.finalize()
    ok = all(l.converged for l in check["limits"]) and profile.all_converged()
    return EXIT_OK if ok else EXIT_NONCONV


def cmd_homogenize(cfg: ExperimentConfig, rep: Reporter) -> int:
    rep.start("homogenize")
    hom = homogenize_linear(cfg.operator, h_cell=cfg.h_cell)
    rep.stop("homogenize")
    rep.write_json(
        "homogenized.json",
        {
            "A0": hom.A0.tolist(),
            "cell_mesh": hom.cell_mesh,
            "corrector_mean_abs": hom.corrector_means(),
            "lambda": hom.lam,
        },
    )
    if cfg.eps_ladder:
        if cfg.direction is None or cfg.data is None:
            raise ConfigError("the eps study needs 'direction' and 'data'")
        rep.start("eps-study")
        study = epsilon_refinement_study(
            cfg.operator, cfg.data, cfg.direction, cfg.eps_ladder,
            R=cfg.R if cfg.R is not None else 2.0, effective=hom,
        )
        rep.stop("eps-study")
        rows = [[r["eps"], r["sup_error"], study["fitted_order"]] for r in study["rows"]]
        rep.write_csv("eps_study.csv", ["eps", "sup_error", "fitted_order"], rows)
        plot = SvgPlot(title="interior homogenization error", xlabel="eps",
                       ylabel="sup error", logy=True)
        plot.add_line([r["eps"] for r in study["rows"]], [r["sup_error"] for r in study["rows"]])
        plot.add_points([r["eps"] for r in study["rows"]], [r["sup_error"] for r in study["rows"]])
        rep.write_svg("eps_study.svg", plot.to_svg())
    rep.finalize()
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, rep: Reporter) -> int:
    directions = [
        d.xi_hat if hasattr(d, "xi_hat") else np.asarray(d, dtype=float) for d in cfg.directions
    ]
    rep.start("sweep")
    report = continuity_sweep(
        cfg.operator, cfg.data, directions, Q=cfg.Q, tolerance=cfg.tolerance,
        profile_samples=cfg.sample_count, h=cfg.h, tau=cfg.tau,
        effective=effective_operator(cfg.operator, h_cell=cfg.h_cell),
    )
    rep.stop("sweep")
    rows = []
    for r in report.table():
        if r["ok"]:
            rows.append(
                [" ".join(map(str, r["n"])), " ".join(map(str, r["value"])), r["error_bar"],
                 " ".join(map(str, r["xi"])), r["k"], r["epsilon"], r["provenance"]]
            )
        else:
            rows.append([" ".join(map(str, r["n"])), "", "", "", "", "", f"FAILED: {r['error']}"])
    rep.write_csv(
        "sweep.csv", ["n", "value", "error_bar", "xi", "k", "epsilon", "provenance"], rows
    )
    rep.write_json(
        "sweep.json",
        {
            "alpha_hat": report.alpha_hat,
            "alpha_range": report.alpha_range,
            "prefactor_hat": report.prefactor_hat,
            "pairs_used": report.pairs_used,
            "degenerate": report.degenerate,
            "rows": report.table(),
        },
    )
    if not report.degenerate:
        dn, dv = np.array(report.pairs).T
        plot = SvgPlot(title="value modulus vs direction distance",
                       xlabel="|n1 - n2|", ylabel="|v1 - v2|", logy=True)
        plot.add_points(dn, dv)
        line_x = np.array([min(dn), max(dn)])
        line_y = report.prefactor_hat * line_x**report.alpha_hat
        plot.add_line(line_x, line_y, color="#2ca02c",
                      label=f"fit alpha = {report.alpha_hat:.3f}")
        rep.write_svg("sweep.svg", plot.to_svg())
    rep.finalize()
    if all(not r["ok"] for r in report.rows):
        return EXIT_SOLVER
    return EXIT_OK


def cmd_discontinuity_demo(cfg: ExperimentConfig, rep: Reporter) -> int:
    from .operators import RootKinkOperator
    from .fields import cosine_field

    op = cfg.operator if cfg.operator is not None else RootKinkOperator()
    data = cfg.data if cfg.data is not None else cosine_field(3, [0, 0, 1], constant=1.0 / 3.0)
    xi = make_rational_direction([0, 0, 1])
    tau = cfg.tau if cfg.tau > 0 else 1.0 / 16.0
    effective = effective_operator(op, h_cell=cfg.h_cell)
    rep.start("profile")
    profile = shift_profile(
        op, data, xi, sample_count=cfg.sample_count, tolerance=cfg.tolerance,
        h=cfg.h or 1.0 / 16.0, tau=tau,
    )
    rep.stop("profile")
    _write_profile(rep, profile)
    rep.start("limits")
    # approach directions from e1 to e2, the ends exact (cos(pi/2) is not 0)
    angles = np.linspace(0.0, np.pi / 2.0, 5)
    etas = (
        [np.array([1.0, 0.0, 0.0])]
        + [np.array([np.cos(th), np.sin(th), 0.0]) for th in angles[1:-1]]
        + [np.array([0.0, 1.0, 0.0])]
    )
    limits = eta_independence_check(
        xi, profile, effective, etas, tolerance=cfg.tolerance, tau=tau, n_lat=64
    )["limits"]
    lim1, lim2 = limits[0], limits[-1]
    Ls = [float(lim.value[0]) for lim in limits]
    rep.stop("limits")

    rep.start("certificate")
    cert = gap_certificate(effective, tau)
    rep.stop("certificate")

    line = (
        f"L(e3,e1)={lim1.value[0]:.6f}+-{lim1.error_bar:.2e}, "
        f"L(e3,e2)={lim2.value[0]:.6f}+-{lim2.error_bar:.2e}, "
        f"gap delta={cert.gap:.6f}, gap>0: {'PASS' if cert.gap > 0 else 'FAIL'}"
    )
    print(line)
    rep.write_csv("angle_sweep.csv", ["angle", "L"], [[a, l] for a, l in zip(angles, Ls)])
    panel1 = SvgPlot(title="shift profile of the far field", xlabel="s", ylabel="c*")
    panel1.add_line(profile.shifts, profile.values[:, 0])
    panel2 = SvgPlot(title="directional limit vs approach angle",
                     xlabel="angle from e1 to e2", ylabel="L")
    panel2.add_line(angles, Ls)
    panel2.add_points(angles, Ls)
    rep.write_svg("discontinuity.svg", svg_panels([panel1, panel2]))
    rep.write_json(
        "discontinuity.json",
        {
            "L_e1": lim1.value.tolist(),
            "L_e1_error_bar": lim1.error_bar,
            "L_e2": lim2.value.tolist(),
            "L_e2_error_bar": lim2.error_bar,
            "gap_certificate": cert.gap,
            "subsolution_domination_min": cert.domination,
            "certificate_height": cert.height,
            "summary": line,
        },
    )
    rep.finalize()
    if not (lim1.converged and lim2.converged):
        return EXIT_NONCONV
    return EXIT_OK if cert.gap > 0 else EXIT_NONCONV


def cmd_decay_fit(cfg: ExperimentConfig, rep: Reporter) -> int:
    rep.start("decay-fit")
    result = boundary_layer_limit(
        cfg.operator, cfg.data, cfg.direction, s=0.0, stop_on_tolerance=False,
        **_limit_kwargs(cfg),
    )
    rep.stop("decay-fit")
    fit = result.diagnostics["decay_fit"]
    rep.write_csv(
        "decay.csv", ["R", "oscillation"],
        [[R, o] for R, o in zip(result.heights_used, result.oscillations)],
    )
    rep.write_json("decay.json", {
        "rate": result.decay_rate if np.isfinite(result.decay_rate) else None,
        "C": fit["C"],
        "residual": fit["residual"],
        "degenerate": fit["degenerate"],
        "value": result.value.tolist(),
    })
    plot = SvgPlot(title="top-slice oscillation vs height", xlabel="R",
                   ylabel="oscillation", logy=True)
    plot.add_points(result.heights_used, result.oscillations)
    if not fit["degenerate"]:
        xs = np.linspace(min(result.heights_used), max(result.heights_used), 50)
        plot.add_line(xs, fit["C"] * np.exp(-fit["rate"] * xs), color="#2ca02c",
                      label=f"rate {fit['rate']:.4f}")
    rep.write_svg("decay.svg", plot.to_svg())
    rep.finalize()
    return EXIT_OK


_COMMANDS = {
    "cell-solve": cmd_cell_solve,
    "phi-star": cmd_phi_star,
    "second-cell": cmd_second_cell,
    "homogenize": cmd_homogenize,
    "sweep": cmd_sweep,
    "discontinuity-demo": cmd_discontinuity_demo,
    "decay-fit": cmd_decay_fit,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="effbc",
        description="boundary layer limits of periodic half-space problems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", required=False, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="ignored: runs are single threaded")
    parser.add_argument("--seed", type=int, default=None, help="seed for sampling validators")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    args = parser.parse_args(argv)
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(
            args.config,
            out_override=args.out,
            seed_override=args.seed,
            experiment_override=args.command,
        )
    except (ConfigError, InvalidDirectionError, InvalidMeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rep = Reporter(cfg.out, config=cfg.raw, version=__version__)
    try:
        return _COMMANDS[args.command](cfg, rep)
    except (ConfigError, InvalidMeshError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NonConvergedError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONV


if __name__ == "__main__":
    sys.exit(main())
