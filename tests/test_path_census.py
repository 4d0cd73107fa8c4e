"""Which path of the strip-solve front each benchmark workload takes.

``solve._solve`` scans the bottom data once for its invariant lateral axes
and picks one of three paths: the exact lift (data constant on the plane,
zero flux at rest), the reduced strip (data, and start, constant along
some lateral axes under a y-independent operator) or the full strip.  Each
workload of the benchmark runs here through ``cli.main`` on the config
that ``perfbench.workloads.make_config`` makes for SEED, with counting
wrappers on the three paths, so that a claim such as "no workload takes
this path" rests on a count.
"""

import json
import sys
from pathlib import Path

import pytest

from effbc import solve
from effbc.cli import main

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import cli_argv, make_config  # noqa: E402

SEED = 1
# exact lifts, the lateral cells of each reduced strip, full strips
CENSUS = {
    "linear-sweep": (0, [], 54),
    "kink-3d-ladder": (0, [(32,), (32,)], 0),
    "discontinuity": (64, [], 11),
}


@pytest.fixture
def census(monkeypatch):
    counts = {"exact": 0, "reduced": [], "full": 0}
    exact_lift, reduced_solve = solve._exact_lift, solve._reduced_solve

    def counted_exact_lift(*args):
        sol = exact_lift(*args)
        counts["exact"] += sol is not None
        return sol

    def counted_reduced_solve(*args):
        sol = reduced_solve(*args)
        if sol is not None:
            counts["reduced"].append(sol.solved_cells)
        return sol

    def counted(loop):
        # the front hands a loop the problem it reports as ``full``; the
        # reduced strip hands it a problem of its own
        def counted_loop(problem, grid, ref, U0, centers, full):
            counts["full"] += problem is full
            return loop(problem, grid, ref, U0, centers, full)

        return counted_loop

    monkeypatch.setattr(solve, "_exact_lift", counted_exact_lift)
    monkeypatch.setattr(solve, "_reduced_solve", counted_reduced_solve)
    for name in ("_linear_loop", "_nonlinear_loop"):
        monkeypatch.setattr(solve, name, counted(getattr(solve, name)))
    return counts


@pytest.mark.parametrize("workload", sorted(CENSUS))
def test_each_workload_takes_its_paths(tmp_path, census, workload):
    config = make_config(workload, SEED)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(cli_argv(config, str(path), str(tmp_path / "out"))) == 0
    assert (census["exact"], census["reduced"], census["full"]) == CENSUS[workload]
