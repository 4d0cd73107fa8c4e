"""Seeded CLI configs for the benchmark workloads, and the gates that check them.

Each workload is one ``effbc`` subcommand run on a JSON config that
``make_config`` derives from the seed alone; the program sees only that
JSON.  The seed moves the inputs (data amplitudes, and the sweep's angles
within their Dirichlet approximants) but not the amount of work (solve,
ladder and iteration counts agree across seeds to about 1%), so that
run-to-run spread measures the machine and not the draw.
``check_outputs`` reads the CLI's own output files and returns a list of
failed gates (empty when the rep is correct).
"""

from __future__ import annotations

import json
import math
import os
import random

# Sweep directions sit near the rational directions (1, 4), (1, 5), (1, 6)
# (angles from e2).  Seed 0 uses them exactly; other seeds jitter each angle
# by at most SWEEP_JITTER rad, which keeps the Q = 6 Dirichlet approximant,
# and with it every strip that the sweep solves, unchanged.
SWEEP_CENTRES = tuple(math.atan2(1.0, k) for k in (6, 5, 4))
SWEEP_JITTER = 0.01
SWEEP_Q = 6


def _amplitude(rng, seed, seed0_value, lo, hi):
    return seed0_value if seed == 0 else rng.uniform(lo, hi)


def _linear_sweep(seed, rng):
    # The problem is linear, so the seeded amplitude scales every far-field
    # constant and leaves the solves and the fitted exponent alone.
    a = _amplitude(rng, seed, 1.0, 0.5, 1.0)
    angles = [
        t if seed == 0 else t + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)
        for t in SWEEP_CENTRES
    ]
    return {
        "experiment": "sweep",
        "operator": {"kind": "laminate", "d": 2},
        "data": {"constant": a / 3, "terms": [{"coef": a, "freq": [1, 1], "phase": "cos"}]},
        "directions": [{"unit": [math.sin(t), math.cos(t)]} for t in angles],
        "limit": {"tolerance": 1e-7, "sample_count": 8},
        "sweep": {"Q": SWEEP_Q},
    }


def _kink_3d_ladder(seed, rng):
    # The root-kink map is positively homogeneous, so scaling the data
    # scales the solution and leaves the iteration counts alone.  The
    # smoothing tau biases c* (1.6e-3 at tau = 0, 3.7e-3 at 1/64, 5.5e-3
    # at 1/32 for a = 1); the CLI needs tau > 0, so it is 1/64.
    a = _amplitude(rng, seed, 1.0, 0.5, 1.0)
    return {
        "experiment": "cell-solve",
        "operator": {"kind": "builtin", "name": "section7"},
        "data": {"constant": a / 3, "terms": [{"coef": a, "freq": [1, 0, 0], "phase": "cos"}]},
        "direction": "rational: [0,0,1]",
        "mesh": {"h": 1 / 32},
        "strip": {"R_ladder": [2.0, 4.0]},
        "nonlinear": {"tau": 1 / 64},
        "limit": {"tolerance": 1e-6},
    }


def _discontinuity(seed, rng):
    a = _amplitude(rng, seed, 1.0, 0.5, 1.0)
    return {
        "experiment": "discontinuity-demo",
        "operator": {"kind": "builtin", "name": "section7"},
        "data": {"constant": a / 3, "terms": [{"coef": a, "freq": [0, 0, 1], "phase": "cos"}]},
        "nonlinear": {"tau": 1 / 16},
        "mesh": {"h": 1 / 16},
        "limit": {"tolerance": 1e-6, "sample_count": 32},
    }


WORKLOADS = {
    "linear-sweep": _linear_sweep,
    "kink-3d-ladder": _kink_3d_ladder,
    "discontinuity": _discontinuity,
}


def make_config(workload, seed):
    """The config dict of ``workload`` for ``seed``; same seed, same dict."""
    return WORKLOADS[workload](seed, random.Random(f"{workload}:{seed}"))


def cli_argv(config, config_path, out_dir):
    """Arguments of ``effbc.cli.main`` for one rep: single-threaded pool."""
    return ["--config", config_path, "--out", out_dir, "--threads", "1", config["experiment"]]


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as f:
        return json.load(f)


def _gate_sweep(config, out_dir):
    s = _load(out_dir, "sweep.json")
    errors = []
    if len(s["rows"]) != len(config["directions"]):
        errors.append(f"{len(s['rows'])} rows for {len(config['directions'])} directions")
    if not all(r["ok"] for r in s["rows"]):
        errors.append("a sweep row failed")
    if s["degenerate"]:
        errors.append("degenerate continuity fit")
    elif not s["alpha_hat"] > 0.0:
        errors.append(f"alpha_hat = {s['alpha_hat']} is not positive")
    return errors


def _gate_cell_solve(config, out_dir):
    from effbc.reports import parse_solution_text

    r = _load(out_dir, "result.json")
    errors = []
    if not r["converged"]:
        errors.append("ladder did not converge")
    if not abs(r["value"][0]) <= 5e-3:
        errors.append(f"|c*| = {abs(r['value'][0]):.3e} > 5e-3")
    with open(os.path.join(out_dir, "solution.csv"), encoding="utf-8") as f:
        meta, header, rows = parse_solution_text(f.read())
    geometry = json.loads(meta["geometry"])
    nodes = math.prod(geometry["lat_cells"]) * (geometry["n_vert"] + 1)
    if len(rows) != nodes or any(len(row) != len(header) for row in rows):
        errors.append(f"solution.csv has {len(rows)} rows for {nodes} nodes")
    return errors


def _gate_discontinuity(config, out_dir):
    s = _load(out_dir, "discontinuity.json")
    errors = []
    if not s["gap_certificate"] > 0.0:
        errors.append(f"gap certificate {s['gap_certificate']} is not positive")
    jump = s["L_e2"][0] - s["L_e1"][0]
    bars = s["L_e1_error_bar"] + s["L_e2_error_bar"]
    if not jump > bars:
        errors.append(f"L_e2 - L_e1 = {jump:.3e} is not above the bars {bars:.3e}")
    return errors


_GATES = {
    "sweep": _gate_sweep,
    "cell-solve": _gate_cell_solve,
    "discontinuity-demo": _gate_discontinuity,
}


def check_outputs(config, out_dir):
    """Failed gates of one rep, read from the files the CLI wrote."""
    try:
        errors = _GATES[config["experiment"]](config, out_dir)
        manifest = _load(out_dir, "manifest.json")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    on_disk = sorted(f for f in os.listdir(out_dir) if f != "manifest.json")
    if manifest["files"] != on_disk:
        errors.append("manifest does not list the files on disk")
    return errors
