import json
import math
import os
import re

import numpy as np
import pytest

from effbc import (
    ConfigError, build_strip_grid, constant_field, identity_tensor, make_field,
    make_rational_direction,
)
from effbc.cli import main
from effbc.config import load_config, parse_field, parse_operator
from effbc.fields import LinearTensorField
from effbc.operators import KinkPotential2D, RootKinkOperator
from effbc.reports import canonical_json, fmt, parse_solution_text, solution_text
from effbc.solve import StripProblem, StripSolution, solve_strip


BASE = {
    "experiment": "cell-solve",
    "operator": {"kind": "laminate", "d": 2},
    "data": {"constant": 0.25, "terms": [{"coef": 1.0, "freq": [1, 1], "phase": "cos"}]},
    "direction": "rational: [0,1]",
    "mesh": {"h": 0.0625},
    "limit": {"tolerance": 1e-8},
}


def write_cfg(tmp_path, name="cfg.json", **patch):
    raw = json.loads(json.dumps(BASE))
    for key, val in patch.items():
        if val is None:
            raw.pop(key, None)
        else:
            raw[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path), raw


def test_parse_operator_kinds():
    assert isinstance(parse_operator({"kind": "identity", "d": 2}), LinearTensorField)
    assert isinstance(parse_operator({"kind": "builtin", "name": "section7"}), RootKinkOperator)
    assert isinstance(
        parse_operator({"kind": "builtin", "name": "section7_reduced"}), KinkPotential2D
    )
    with pytest.raises(ConfigError):
        parse_operator({"kind": "builtin", "name": "nope"})
    with pytest.raises(ConfigError):
        parse_operator({"no_kind": 1})


def test_parse_field_integer_frequencies():
    with pytest.raises(ConfigError):
        parse_field({"terms": [{"coef": 1.0, "freq": [0.5, 1]}]})


def test_config_roundtrip(tmp_path):
    path, raw = write_cfg(tmp_path)
    cfg = load_config(path)
    assert json.loads(cfg.canonical()) == json.loads(canonical_json(raw))


def test_config_rejects_bad_h(tmp_path):
    path, _ = write_cfg(tmp_path, mesh={"h": 0.11})
    with pytest.raises(ConfigError):
        load_config(path)
    path2, _ = write_cfg(tmp_path, name="c2.json", mesh={"h": 0.3})
    with pytest.raises(ConfigError):
        load_config(path2)


def test_config_rejects_small_R(tmp_path):
    path, _ = write_cfg(tmp_path, strip={"R": 2.0})
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_nonpositive_tau(tmp_path):
    path, _ = write_cfg(
        tmp_path,
        operator={"kind": "builtin", "name": "section7"},
        data={"d": 3, "constant": 0.33, "terms": [{"coef": 1.0, "freq": [0, 0, 1]}]},
        direction="rational: [0,0,1]",
        nonlinear={"tau": 0.0},
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_a_dirichlet_top(tmp_path):
    # every subcommand reads its far field from a natural top
    path, _ = write_cfg(tmp_path, strip={"top_bc": {"dirichlet": 0.0}}, out=str(tmp_path / "o"))
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["--config", path, "cell-solve"]) == 2
    assert not (tmp_path / "o").exists()


def test_config_rejects_unknown_experiment(tmp_path):
    path, _ = write_cfg(tmp_path, experiment="fly-to-the-moon")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "patch",
    [
        {"homogenise": {"h_cell": 0.0625}},  # a misspelled section
        {"threads": 2},  # a retired key
        {"limit": {"tolerance": 1e-8, "sample_cont": 8}},  # a misspelled section key
    ],
    ids=["section", "retired", "section-key"],
)
def test_config_rejects_unknown_keys(tmp_path, patch):
    # an unknown key would otherwise run silently with defaults
    path, _ = write_cfg(tmp_path, out=str(tmp_path / "o"), **patch)
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(path)
    assert main(["--config", path, "cell-solve"]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "patch",
    [
        {"limit": {"sample_count": "x"}},
        {"mesh": {"h": "0.0625"}},  # a number in a string
        {"limit": {"sample_count": 8.5}},
        {"strip": {"R_ladder": [1.0, "2"]}},
    ],
    ids=["int-text", "float-text", "int-fraction", "ladder-text"],
)
def test_config_rejects_mistyped_values(tmp_path, patch):
    # a raw ValueError / TypeError would escape main instead of exit code 2
    path, _ = write_cfg(tmp_path, out=str(tmp_path / "o"), **patch)
    key = next(iter(patch))
    with pytest.raises(ConfigError, match=f"^{key}\\."):
        load_config(path)
    assert main(["--config", path, "cell-solve"]) == 2
    assert not (tmp_path / "o").exists()


def test_readme_config_loads():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        blocks = re.findall(r"```json\n(.*?)```", f.read(), re.S)
    assert blocks
    for block in blocks:
        load_config(block)


def test_cli_exit_code_config_error(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, mesh={"h": 0.11})
    assert main(["--config", path, "cell-solve"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "cell-solve"]) == 2
    assert main(["--config", str(tmp_path / "missing.json"), "cell-solve"]) == 2


def test_cli_exit_code_solver_failure(tmp_path):
    path, _ = write_cfg(tmp_path, solver={"tol": 1e-30}, out=str(tmp_path / "o3"))
    assert main(["--config", path, "cell-solve"]) == 3


def test_phi_star_reads_the_solver_tolerance(tmp_path):
    path, _ = write_cfg(
        tmp_path, experiment="phi-star", solver={"tol": 1e-30},
        limit={"tolerance": 1e-7, "sample_count": 8}, out=str(tmp_path / "o"),
    )
    assert main(["--config", path, "phi-star"]) == 3


def test_second_cell_limits_read_the_solver_tolerance(tmp_path, monkeypatch):
    # the reduced strips of the directional limits solve at solver.tol too,
    # not only the shift profile
    import effbc.cli
    import effbc.layers

    seen = {"profile": set(), "limits": set()}
    phase = ["profile"]
    solve, check = effbc.layers.solve_strip, effbc.cli.eta_independence_check

    def recording_solve(problem, solvers=None):
        seen[phase[0]].add(problem.rtol)
        return solve(problem, solvers)

    def limits(*args, **kwargs):
        phase[0] = "limits"
        return check(*args, **kwargs)

    monkeypatch.setattr(effbc.layers, "solve_strip", recording_solve)
    monkeypatch.setattr(effbc.cli, "eta_independence_check", limits)
    path, _ = write_cfg(
        tmp_path, experiment="second-cell", solver={"tol": 1e-9}, etas=[[1.0, 0.0]],
        limit={"tolerance": 1e-7, "sample_count": 8}, out=str(tmp_path / "o"),
    )
    assert main(["--config", path, "second-cell"]) == 0
    assert seen == {"profile": {1e-9}, "limits": {1e-9}}


# the root-kink cell-solve of the paper's nonlinear example, at a small size
_KINK_CELL_SOLVE = {
    "operator": {"kind": "builtin", "name": "section7"},
    "data": {"constant": 1 / 3, "terms": [{"coef": 1.0, "freq": [1, 0, 0], "phase": "cos"}]},
    "direction": "rational: [0,0,1]",
    "mesh": {"h": 1 / 16},
    "strip": {"R_ladder": [2.0, 4.0]},
    "nonlinear": {"tau": 1 / 16},
    "limit": {"tolerance": 1e-6},
}


@pytest.mark.parametrize(
    "flag,seed",
    [("-1", None), (None, "abc"), (None, 1.5), (None, True)],
    ids=["flag-negative", "text", "fraction", "bool"],
)
def test_a_bad_seed_is_a_config_error(tmp_path, flag, seed):
    # a seed that is not a non-negative int would escape main as a traceback
    # or be truncated silently
    out = tmp_path / "o"
    raw = dict(_KINK_CELL_SOLVE, experiment="cell-solve", out=str(out))
    if seed is not None:
        raw["seed"] = seed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    extra = ["--seed", flag] if flag is not None else []
    assert main(["--config", str(path)] + extra + ["cell-solve"]) == 2
    assert not out.exists()
    with pytest.raises(ConfigError, match="seed"):
        load_config(str(path), seed_override=None if flag is None else int(flag))


@pytest.mark.parametrize(
    "command,patch",
    [
        ("sweep", {"directions": ["rational: [0,1]"], "direction": None}),
        ("homogenize", {}),
        ("cell-solve", {
            "operator": {"kind": "builtin", "name": "section7"},
            "data": {"constant": 0.25, "terms": [{"coef": 1.0, "freq": [1, 0, 0]}]},
            "direction": "rational: [0,0,1]", "nonlinear": {"tau": 0.0625},
        }),
    ],
    ids=["sweep", "homogenize", "nonlinear"],
)
def test_a_solver_tolerance_that_no_solve_reads_is_a_config_error(tmp_path, command, patch):
    path, _ = write_cfg(
        tmp_path, experiment=command, solver={"tol": 1e-9}, out=str(tmp_path / "o"), **patch
    )
    with pytest.raises(ConfigError, match="solver.tol"):
        load_config(path)
    assert main(["--config", path, command]) == 2
    assert not (tmp_path / "o").exists()


_QUADRATIC_LAMINATE = {"kind": "quadratic_potential", "tensor": {"kind": "laminate", "d": 2}}


@pytest.mark.parametrize(
    "command,patch",
    [
        ("sweep", {"strip": {"R": 4.0}}),
        ("sweep", {"strip": {"R_ladder": [4.0, 8.0]}}),
        ("sweep", {"limit": {"max_factor": 8}}),
        ("discontinuity-demo", {"strip": {"R": 4.0}}),
        ("discontinuity-demo", {"strip": {"R_ladder": [4.0, 8.0]}}),
        ("discontinuity-demo", {"limit": {"max_factor": 8}}),
        ("homogenize", {"strip": {"R_ladder": [4.0, 8.0]}}),
        ("homogenize", {"limit": {"max_factor": 8}}),
        ("decay-fit", {"strip": {"R_ladder": [0.75, 1.0, 1.25]}, "limit": {"max_factor": 8}}),
        ("decay-fit", {"strip": {"R_ladder": [0.75, 1.0, 1.25], "R": 4.0}}),
    ],
    ids=[
        "sweep-R", "sweep-R_ladder", "sweep-max_factor", "demo-R", "demo-R_ladder",
        "demo-max_factor", "homogenize-R_ladder", "homogenize-max_factor",
        "decay-fit-max_factor", "decay-fit-R",
    ],
)
def test_a_ladder_key_that_no_solve_reads_is_a_config_error(tmp_path, command, patch):
    extra = {"directions": ["rational: [0,1]"]} if command == "sweep" else {}
    if command == "discontinuity-demo":
        extra = {"operator": None, "data": None, "direction": None, "nonlinear": {"tau": 0.0625}}
    path, _ = write_cfg(
        tmp_path, experiment=command, out=str(tmp_path / "o"), **dict(extra, **patch)
    )
    key = "limit.max_factor" if "limit" in patch else "strip." + list(patch["strip"])[-1]
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(path)
    assert main(["--config", path, command]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,patch",
    [
        ("homogenize", {
            "operator": {"kind": "builtin", "name": "section7"}, "data": None, "direction": None,
        }),
        ("second-cell", {"operator": _QUADRATIC_LAMINATE}),
        ("sweep", {"operator": _QUADRATIC_LAMINATE, "directions": ["rational: [0,1]"]}),
        ("discontinuity-demo", {
            "operator": {"kind": "quadratic_potential", "tensor": {"kind": "laminate", "d": 3}},
            "data": None, "direction": None,
        }),
    ],
    ids=["homogenize-nonlinear", "second-cell", "sweep", "discontinuity-demo"],
)
def test_a_run_without_an_effective_operator_is_a_config_error(tmp_path, command, patch):
    # only linear fields are homogenized: these runs have no effective operator
    path, _ = write_cfg(
        tmp_path, experiment=command, nonlinear={"tau": 0.0625}, out=str(tmp_path / "o"),
        **patch,
    )
    with pytest.raises(ConfigError, match="linear operator|effective operator"):
        load_config(path)
    assert main(["--config", path, command]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["phi-star", "second-cell"])
@pytest.mark.parametrize(
    "patch",
    [{"strip": {"R_ladder": [2.0, 4.0]}}, {"limit": {"tolerance": 1e-7, "max_factor": 4}}],
    ids=["R_ladder", "max_factor"],
)
def test_profiles_read_the_ladder_keys(tmp_path, command, patch):
    # the shift profile's ladders are those of cell-solve, not the defaults
    profiles = []
    for name, extra in (("default", {}), ("patched", patch)):
        kw = dict({"limit": {"tolerance": 1e-7}}, **extra)
        path, _ = write_cfg(
            tmp_path, name=f"{name}.json", experiment=command, etas=[[1.0, 0.0]],
            out=str(tmp_path / name), **kw,
        )
        main(["--config", path, command])
        profiles.append((tmp_path / name / "profile.csv").read_text())
    assert profiles[0] != profiles[1]


@pytest.mark.parametrize(
    "etas", [[[0.0, 1.0]], [[1.0, 0.0], [0.6, 0.8]], [[1.0, 0.0, 0.0]]],
    ids=["along", "second-oblique", "wrong-dimension"],
)
def test_an_eta_off_the_plane_of_the_direction_is_a_config_error(tmp_path, etas):
    # rejected before the shift profile is solved: nothing is written
    path, _ = write_cfg(tmp_path, experiment="second-cell", etas=etas, out=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="orthogonal to the direction"):
        load_config(path)
    assert main(["--config", path, "second-cell"]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["cell-solve", "phi-star", "second-cell"])
def test_strip_R_with_R_ladder_is_a_config_error(tmp_path, command):
    # the explicit ladder would drop R without a word
    path, _ = write_cfg(
        tmp_path, experiment=command, strip={"R": 4.0, "R_ladder": [2.0, 3.0]},
        out=str(tmp_path / "o"),
    )
    with pytest.raises(ConfigError, match="not both"):
        load_config(path)
    assert main(["--config", path, command]) == 2
    assert not (tmp_path / "o").exists()


def test_discontinuity_demo_takes_32_samples_at_least(tmp_path):
    demo = {"experiment": "discontinuity-demo", "nonlinear": {"tau": 0.0625}}
    assert load_config(demo).sample_count == 32  # its default
    assert load_config(dict(demo, limit={"sample_count": 40})).sample_count == 40
    cfg = dict(demo, limit={"sample_count": 31}, out=str(tmp_path / "o"))
    with pytest.raises(ConfigError, match="at least 32"):
        load_config(cfg)
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "discontinuity-demo"]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_commands_are_the_config_experiments():
    import effbc.cli
    import effbc.config

    assert set(effbc.cli._COMMANDS) == set(effbc.config.EXPERIMENTS)


def test_cli_exit_code_nonconvergence(tmp_path):
    path, _ = write_cfg(
        tmp_path, limit={"tolerance": 1e-30, "max_factor": 8}, out=str(tmp_path / "o4")
    )
    assert main(["--config", path, "cell-solve"]) == 4


def test_cli_cell_solve_outputs(tmp_path):
    out = str(tmp_path / "out")
    path, _ = write_cfg(tmp_path, out=out)
    assert main(["--config", path, "cell-solve"]) == 0
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    assert result["converged"] is True
    # manifest lists every file in the directory except itself
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    on_disk = sorted(f for f in os.listdir(out) if f != "manifest.json")
    assert manifest["files"] == on_disk
    assert manifest["config_hash"]
    assert "cell-solve" in manifest["timings_seconds"]
    # solution file round-trips
    meta, header, rows = parse_solution_text((tmp_path / "out" / "solution.csv").read_text())
    assert "operator_hash" in meta
    assert header[0] == "i0"
    assert len(rows) > 100


def test_cli_determinism(tmp_path):
    outs = []
    for name in ("d1", "d2"):
        out = str(tmp_path / name)
        path, _ = write_cfg(
            tmp_path, name=f"{name}.json", experiment="phi-star",
            limit={"tolerance": 1e-7, "sample_count": 8}, out=out, seed=11,
        )
        assert main(["--config", path, "phi-star"]) == 0
        outs.append(out)
    for fname in ("profile.csv", "profile.json", "profile.svg"):
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b, f"{fname} differs between identical runs"


def test_cli_threads_flag_is_ignored(tmp_path):
    # the benchmark passes --threads 1; the run must not depend on it
    path, _ = write_cfg(tmp_path)
    outs = []
    for name, extra in (("t0", []), ("t1", ["--threads", "1"])):
        out = tmp_path / name
        assert main(["--config", path, "--out", str(out)] + extra + ["cell-solve"]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for fname in names:
        a, b = ((out / fname).read_bytes() for out in outs)
        if fname == "manifest.json":
            a, b = (json.loads(x) for x in (a, b))
            a.pop("timings_seconds"), b.pop("timings_seconds")
        assert a == b, f"{fname} depends on --threads"


def test_cli_second_cell(tmp_path):
    out = str(tmp_path / "sc")
    path, _ = write_cfg(
        tmp_path, experiment="second-cell",
        data={"constant": 0.3, "terms": [{"coef": 1.0, "freq": [1, 1], "phase": "cos"}]},
        etas=[[1.0, 0.0], [-1.0, 0.0]],
        limit={"tolerance": 1e-7, "sample_count": 8},
        out=out,
    )
    assert main(["--config", path, "second-cell"]) == 0
    summary = json.loads((tmp_path / "sc" / "second_cell.json").read_text())
    assert summary["spread"] <= 1e-6
    assert len(summary["limits"]) == 2


def test_cli_homogenize_and_eps_study(tmp_path):
    out = str(tmp_path / "hg")
    path, _ = write_cfg(
        tmp_path, experiment="homogenize",
        data={"terms": [{"coef": 1.0, "freq": [1, 0], "phase": "cos"}]},
        homogenize={"h_cell": 0.015625, "eps_ladder": [0.25, 0.125]},
        strip={"R": 2.0}, direction="rational: [0,1]",
        mesh=None, limit=None, out=out,
    )
    assert main(["--config", path, "homogenize"]) == 0
    hom = json.loads((tmp_path / "hg" / "homogenized.json").read_text())
    A0 = np.asarray(hom["A0"])
    assert A0[0][0][0][0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    lines = (tmp_path / "hg" / "eps_study.csv").read_text().splitlines()
    assert lines[0] == "eps,sup_error,fitted_order"
    assert len(lines) == 3


def test_cli_eps_study_homogenizes_on_the_config_cell_mesh(tmp_path, monkeypatch):
    # h_cell = 1/16 is not the d = 2 default (1/64), so a study that falls
    # back to the default cell mesh shows here; the study reuses the tensor
    # of homogenized.json, so the operator is homogenized once
    import effbc.cli
    import effbc.homogenize

    cell_meshes = []
    homogenize_linear = effbc.homogenize.homogenize_linear

    def recorded(A, h_cell=None):
        cell_meshes.append(h_cell)
        return homogenize_linear(A, h_cell=h_cell)

    monkeypatch.setattr(effbc.cli, "homogenize_linear", recorded)
    monkeypatch.setattr(effbc.homogenize, "homogenize_linear", recorded)
    path, _ = write_cfg(
        tmp_path, experiment="homogenize",
        data={"terms": [{"coef": 1.0, "freq": [1, 0], "phase": "cos"}]},
        homogenize={"h_cell": 1 / 16, "eps_ladder": [0.5, 0.25]},
        strip={"R": 1.0}, direction="rational: [0,1]",
        mesh=None, limit=None, out=str(tmp_path / "hg"),
    )
    assert main(["--config", path, "homogenize"]) == 0
    assert cell_meshes == [1 / 16]


def test_cli_decay_fit(tmp_path):
    out = str(tmp_path / "dc")
    path, _ = write_cfg(
        tmp_path, experiment="decay-fit",
        operator={"kind": "identity", "d": 2},
        data={"terms": [{"coef": 1.0, "freq": [1, 0], "phase": "cos"}]},
        mesh={"h": 0.03125},
        strip={"R_ladder": [0.75, 1.0, 1.25, 1.5]},
        out=out,
    )
    assert main(["--config", path, "decay-fit"]) == 0
    fit = json.loads((tmp_path / "dc" / "decay.json").read_text())
    assert fit["rate"] == pytest.approx(2.0 * math.pi, rel=0.05)


def test_cli_sweep(tmp_path):
    out = str(tmp_path / "sw")
    path, _ = write_cfg(
        tmp_path, experiment="sweep",
        directions=[
            {"unit": [math.sin(t), math.cos(t)]} for t in (0.1, 0.25, 0.4)
        ],
        limit={"tolerance": 1e-7, "sample_count": 8},
        sweep={"Q": 8},
        out=out,
    )
    assert main(["--config", path, "sweep"]) == 0
    summary = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert len(summary["rows"]) == 3
    assert all(r["ok"] for r in summary["rows"])
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("n,value")
    assert len(lines) == 4
    assert summary["degenerate"]
    assert summary["alpha_range"] == [None, None]  # NaN, written as null
    assert not (tmp_path / "sw" / "sweep.svg").exists()


def test_cli_sweep_homogenizes_on_the_config_cell_mesh(tmp_path, monkeypatch):
    import effbc.cli
    import effbc.second_cell
    from effbc.homogenize import homogenize_linear

    cell_meshes = []

    def recorded(A, h_cell=None):
        cell_meshes.append(h_cell)
        return homogenize_linear(A, h_cell=h_cell)

    monkeypatch.setattr(effbc.cli, "homogenize_linear", recorded)
    monkeypatch.setattr(effbc.second_cell, "homogenize_linear", recorded)
    path, _ = write_cfg(
        tmp_path, experiment="sweep", directions=[{"unit": [0.0, 1.0]}],
        limit={"tolerance": 1e-6, "sample_count": 8}, sweep={"Q": 3},
        homogenize={"h_cell": 1 / 16}, out=str(tmp_path / "sw"),
    )
    assert main(["--config", path, "sweep"]) == 0
    assert cell_meshes == [1 / 16]


def test_cli_sweep_plots_the_fitted_pairs(tmp_path):
    out = str(tmp_path / "sw")
    path, _ = write_cfg(
        tmp_path, experiment="sweep",
        directions=[{"unit": [1.0, k]} for k in (6, 5, 4)],
        limit={"tolerance": 1e-7, "sample_count": 8},
        sweep={"Q": 6},
        mesh=None,
        out=out,
    )
    assert main(["--config", path, "sweep"]) == 0
    summary = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert not summary["degenerate"]
    # the plot shows exactly the pairs that the fit line was fitted to
    svg = (tmp_path / "sw" / "sweep.svg").read_text()
    assert svg.count("<circle") == summary["pairs_used"]
    lo, hi = summary["alpha_range"]
    assert lo <= summary["alpha_hat"] <= hi


def test_cli_discontinuity_demo(tmp_path, capsys):
    out = str(tmp_path / "demo")
    cfg = {
        "experiment": "discontinuity-demo",
        "nonlinear": {"tau": 0.0625},
        "mesh": {"h": 0.0625},
        "limit": {"tolerance": 1e-6, "sample_count": 32},
        "out": out,
    }
    p = tmp_path / "demo.json"
    p.write_text(json.dumps(cfg))
    assert main(["--config", str(p), "discontinuity-demo"]) == 0
    printed = capsys.readouterr().out
    assert "gap>0: PASS" in printed
    summary = json.loads((tmp_path / "demo" / "discontinuity.json").read_text())
    assert summary["gap_certificate"] > 0
    assert summary["L_e2"][0] > summary["L_e1"][0]
    # the angle sweep's end points are the e1 and e2 limits themselves
    lines = (tmp_path / "demo" / "angle_sweep.csv").read_text().splitlines()
    assert float(lines[1].split(",")[1]) == summary["L_e1"][0]
    assert float(lines[-1].split(",")[1]) == summary["L_e2"][0]
    manifest = json.loads((tmp_path / "demo" / "manifest.json").read_text())
    on_disk = sorted(f for f in os.listdir(out) if f != "manifest.json")
    assert manifest["files"] == on_disk


# small configs of the subcommands whose import graph is checked below
_SCIPY_FREE_RUNS = {
    "sweep": {
        "operator": {"kind": "laminate", "d": 2},
        "data": {"constant": 0.25, "terms": [{"coef": 1.0, "freq": [1, 1], "phase": "cos"}]},
        "directions": [{"unit": [1.0, 2.0]}, {"unit": [1.0, 3.0]}],
        "limit": {"tolerance": 1e-6, "sample_count": 8},
        "sweep": {"Q": 3},
    },
    "cell-solve": {k: v for k, v in BASE.items() if k not in ("experiment", "out")},
    "cell-solve-kink": dict(_KINK_CELL_SOLVE, experiment="cell-solve"),
    "discontinuity-demo": {
        "nonlinear": {"tau": 0.0625},
        "mesh": {"h": 0.0625},
        "limit": {"tolerance": 1e-6, "sample_count": 32},
    },
}


def _modules_loaded_by_run(tmp_path, run, prefix):
    """Modules named ``prefix...`` in a fresh process: after importing the CLI, after ``run``."""
    import subprocess
    import sys

    import effbc

    experiment = _SCIPY_FREE_RUNS[run].get("experiment", run)
    cfg = dict(_SCIPY_FREE_RUNS[run], experiment=experiment, out=str(tmp_path / "out"))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "def loaded():\n"
        f"    return sorted(m for m in sys.modules if m.startswith({prefix!r}))\n"
        "from effbc.cli import main\n"
        "after_import = loaded()\n"
        f"assert main(['--config', {str(p)!r}, {experiment!r}]) == 0\n"
        "print(after_import, loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(effbc.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("experiment", sorted(_SCIPY_FREE_RUNS))
def test_subcommand_never_loads_scipy(tmp_path, experiment):
    # the runtime needs numpy alone: neither importing the CLI nor running a
    # subcommand loads any scipy module
    assert _modules_loaded_by_run(tmp_path, experiment, "scipy") == "[] []"


@pytest.mark.parametrize("run", sorted(_SCIPY_FREE_RUNS))
def test_subcommand_never_loads_numpy_random(tmp_path, run):
    # the sampled checks draw closed-form points: no run pays for importing
    # numpy.random, and a seed's report does not depend on the numpy release
    assert _modules_loaded_by_run(tmp_path, run, "numpy.random") == "[] []"


def _library_sources():
    """(file name, AST) of every module of the effbc package."""
    import ast

    import effbc

    root = os.path.dirname(effbc.__file__)
    files = sorted(f for f in os.listdir(root) if f.endswith(".py"))
    assert "assembly.py" in files and "solve.py" in files
    sources = []
    for name in files:
        with open(os.path.join(root, name), encoding="utf-8") as f:
            sources.append((name, ast.parse(f.read(), filename=name)))
    return sources


def test_library_source_never_imports_scipy():
    import ast

    for name, tree in _library_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), (name, node.lineno)


def test_library_source_never_uses_numpy_random():
    import ast

    sources = _library_sources()
    for name, tree in sources:
        numpy_names = {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("numpy.random"), (name, node.lineno)
                    if alias.name == "numpy":
                        numpy_names.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert not module.startswith("numpy.random"), (name, node.lineno)
                if module == "numpy":
                    assert "random" not in [a.name for a in node.names], (name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "random":
                base = node.value
                assert not (isinstance(base, ast.Name) and base.id in numpy_names), (
                    name, node.lineno
                )
    assert "sampling.py" in dict(sources)


def test_streamed_solution_text_is_the_joined_text(tmp_path):
    import io

    prob = StripProblem(
        build_strip_grid(
            make_rational_direction([1, 2]), 0.0, math.sqrt(5.0) / 5.0, h=math.sqrt(5.0) / 20.0
        ),
        identity_tensor(2),
        make_field(2, terms=[(1.0, [1, 1], "cos")], constant=0.25),
    )
    sol = solve_strip(prob)
    stream = io.BytesIO()
    assert solution_text(sol, out=stream) is None
    assert stream.getvalue().decode("ascii") == solution_text(sol)
    # and the CLI's streamed solution.csv is the text of its final rung
    from effbc import boundary_layer_limit
    from effbc.cli import _limit_kwargs

    path, _ = write_cfg(tmp_path)
    assert main(["--config", path, "--out", str(tmp_path / "out"), "cell-solve"]) == 0
    cfg = load_config(path)
    res = boundary_layer_limit(
        cfg.operator, cfg.data, cfg.direction, s=0.0, keep_solutions=True, **_limit_kwargs(cfg)
    )
    text = (tmp_path / "out" / "solution.csv").read_text()
    assert text == solution_text(res.diagnostics["solutions"][-1])


def _solution_text_per_node(solution):
    """The per-node serialization loop that solution_text replaced."""
    grid = solution.grid
    head = solution_text(solution).split("\n")[:6]
    lines = list(head)
    coords = grid.node_coords()
    N = solution.values.shape[0]
    for idx in np.ndindex(*grid.node_shape):
        row = [str(i) for i in idx]
        row += [fmt(coords[(c,) + idx]) for c in range(grid.d)]
        row += [fmt(solution.values[(c,) + idx]) for c in range(N)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "v,N,h", [([1, 2], 1, math.sqrt(5.0) / 20.0), ([1, 1, 1], 2, math.sqrt(2.0) / 12.0)]
)
def test_solution_text_matches_per_node_loop(v, N, h):
    xi = make_rational_direction(v)
    d = len(v)
    prob = StripProblem(
        build_strip_grid(xi, 0.0, 4 * h, h=h), identity_tensor(d, n_components=N),
        make_field(d, terms=[(1.0, [1] * d, "cos")], constant=0.25, n_components=N),
    )
    sol = solve_strip(prob)
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -1.0 / 3.0, 1e300, 12345678.0]
    vals = np.array(sol.values)
    vals.flat[: len(specials)] = specials
    # every column repeating 0.0 and -0.0, both signs of nan and subnormals, so
    # that many rows share each distinct text and -0.0 keeps its own
    pool = np.array([0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -2.5e-320, 1 / 3])
    repeated = np.random.default_rng(3).choice(pool, size=vals.shape)
    for v in (sol.values, vals, repeated):
        s = StripSolution(sol.problem, sol.grid, v, sol.residual_norm, sol.iterations)
        assert solution_text(s) == _solution_text_per_node(s)


def _writer_case(name):
    """A solution whose columns reduce in the way ``name`` says."""
    rng = np.random.default_rng(11)
    if name == "broadcast_3d":
        # the root kink on e3 with data varying along y1 only: solved on the
        # 2-d strip without y2 and broadcast along the second lateral axis
        prob = StripProblem(
            build_strip_grid(make_rational_direction([0, 0, 1]), 0.0, 0.5, h=1 / 8),
            RootKinkOperator(), make_field(3, terms=[(1.0, [1, 0, 0], "cos")], constant=1 / 3),
            tau=1 / 16,
        )
        sol = solve_strip(prob)
        assert sol.solved_cells == (8,)
        return sol
    if name == "sheared_3d_N2":
        grid = build_strip_grid(
            make_rational_direction([2, -1, 3]), 0.45, 0.5, cells=(30, 30, 4)
        )
        values = rng.standard_normal((2,) + grid.node_shape)
    elif name == "signed_zeros":
        # equal by == along the second lateral axis, but 0.0 and -0.0 alternate
        grid = build_strip_grid(make_rational_direction([0, 0, 1]), -0.25, 0.5, h=1 / 8)
        values = np.zeros((2,) + grid.node_shape)
        values[0, :, 1::2] = -0.0
        values[1] = np.arange(grid.node_shape[0])[:, None, None] * 0.0
        values[1, 3:] *= -1.0
    elif name == "specials_on_reduced_axes":
        # nan of both signs, infinities and subnormals, constant along the
        # first axis (one text for every slab) and along the second one
        grid = build_strip_grid(make_rational_direction([0, 0, 1]), 0.0, 1.0, h=1 / 8)
        pool = np.array([np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, 0.0, -0.0])
        levels = rng.choice(pool, size=grid.node_shape[-1])
        values = np.empty((2,) + grid.node_shape)
        values[0] = levels
        values[1] = rng.choice(pool, size=grid.node_shape[0])[:, None, None]
    elif name == "more_slabs_than_rows":
        # 2-d, 1400 slabs of 3 rows: the columns varying along the first
        # axis have more entries than a block of slabs (4096 rows), so their
        # text is made block by block, its width (up to 24 characters, the
        # negative subnormal's) changing from block to block
        grid = build_strip_grid(make_rational_direction([1, 2]), 0.3, 0.25, cells=(1400, 2))
        pool = np.array([np.nan, -np.nan, -0.0, 1e300, -1 / 3, -5e-324, -1.2345678901234567e-308])
        values = rng.choice(pool, size=(1,) + grid.node_shape)
    N = values.shape[0]
    data = constant_field(grid.d, [0.0] * N, n_components=N)
    prob = StripProblem(grid, identity_tensor(grid.d, n_components=N), data)
    return StripSolution(prob, grid, values, 0.0, 0)


@pytest.mark.parametrize(
    "name",
    ["broadcast_3d", "sheared_3d_N2", "signed_zeros", "specials_on_reduced_axes",
     "more_slabs_than_rows"],
)
def test_solution_text_matches_per_node_loop_on_reduced_columns(name):
    import io

    sol = _writer_case(name)
    text = solution_text(sol)
    assert text == _solution_text_per_node(sol)
    stream = io.BytesIO()
    assert solution_text(sol, out=stream) is None
    assert stream.getvalue().decode("ascii") == text


def test_solution_text_memory_stays_near_the_values():
    # a laterally invariant 32 x 32 x 129 solution, as kink-3d-ladder writes:
    # the text is streamed slab by slab from per-axis tables, so the peak
    # stays a small multiple of the values
    import tracemalloc

    grid = build_strip_grid(make_rational_direction([0, 0, 1]), 0.0, 4.0, h=1 / 32)
    assert grid.node_shape == (32, 32, 129)
    i0, _, level = np.indices((32, 1, 129), sparse=True)
    column = np.cos(i0 / 5.0) * np.exp(-level / 17.0)
    values = np.broadcast_to(column, (1,) + grid.node_shape).copy()
    prob = StripProblem(grid, RootKinkOperator(), constant_field(3, 0.0))
    sol = StripSolution(prob, grid, values, 0.0, 0)
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            solution_text(sol, out=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 6 * values.nbytes


def test_solution_text_memory_of_unreduced_values_stays_within_a_block():
    # random values vary along every axis, so their text is made a block of
    # slabs at a time: formatting the whole column at once would hold about
    # 16 times the values
    import tracemalloc

    grid = build_strip_grid(make_rational_direction([0, 0, 1]), 0.0, 4.0, h=1 / 32)
    values = np.random.default_rng(5).standard_normal((1,) + grid.node_shape)
    prob = StripProblem(grid, RootKinkOperator(), constant_field(3, 0.0))
    sol = StripSolution(prob, grid, values, 0.0, 0)
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            solution_text(sol, out=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * values.nbytes


def test_fmt_seventeen_digits():
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert float(fmt(math.pi)) == math.pi  # round trip


def test_fmt_renders_integers_and_special_floats():
    assert [fmt(x) for x in (7, np.int64(-3), True)] == ["7", "-3", "1"]
    specials = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float32(0.5)]
    assert [fmt(x) for x in specials] == [
        "nan", "nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "0.5"
    ]
