"""Traced runs of every workload must show the predicted zero/non-zero pattern,
so that a binding site the tracer missed cannot pass as a silent zero.

Slow: one untraced and two traced reps of each workload (about a minute and a half).
"""

import json
import subprocess
import sys

import pytest

import run
from layer_metrics import PER_LAYER
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, run.__file__, "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        out[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def test_every_named_metric_is_present(traced):
    names = {name for name, _, _ in PER_LAYER}
    for workload, metrics in traced.items():
        assert set(metrics) == names, workload


@pytest.mark.parametrize("workload", ["kink-3d-ladder", "discontinuity"])
def test_nonlinear_workloads_bypass_assembly_and_krylov(traced, workload):
    m = traced[workload]
    assert m["assembly.matrix_calls"] == 0 and m["fields.eval_calls"] == 0
    assert m["solve.krylov_iters"] == 0
    assert m["solve.nonlinear_iters"] > 0 and m["operators.flux_calls"] > 0
    assert m["solve.flux_evals_per_nonlinear_iter"] >= 1
    assert m["grid.gradient_calls"] > 0 and m["grid.bytes_computed"] > 0


def test_linear_sweep_uses_assembly_and_krylov(traced):
    m = traced["linear-sweep"]
    assert m["assembly.matrix_calls"] > 0 and m["fields.eval_calls"] > 0
    assert m["solve.krylov_iters"] > 0 and m["solve.precond_per_krylov_iter"] >= 1
    assert m["solve.nonlinear_iters"] == 0 and m["operators.flux_calls"] == 0
    assert m["assembly.torus_solve_calls"] > 0 and m["homogenize.s"] > 0


def test_kink_ladder_has_no_profile(traced):
    m = traced["kink-3d-ladder"]
    assert m["layers.profile_s"] == 0 and m["second_cell.limits"] == 0
    assert m["layers.ladders"] == 1 and m["assembly.ref_setup_calls"] == 2
    assert m["reports.solution_text_s"] > 0


def test_grid_is_a_small_share_of_the_linear_sweep(traced):
    m = traced["linear-sweep"]
    assert 0 < m["grid.self_s"] < 0.02 * m["trace.wall_s"]
    assert m["second_cell.predict_s"] > 0 and m["second_cell.distinct_limit_ratio"] == 1


def test_discontinuity_repeats_two_of_seven_limits(traced):
    m = traced["discontinuity"]
    assert m["second_cell.limits"] == 7
    assert m["second_cell.distinct_limit_ratio"] == pytest.approx(5 / 7)
    assert m["operators.potential_calls"] > 0  # the e2 reduction descends an energy


def test_reference_solves_everywhere_and_counts_repeat(traced):
    for workload, m in traced.items():
        assert m["assembly.ref_solve_calls"] > 0, workload
        assert m["layers.profile_s"] > 0 or workload == "kink-3d-ladder"
        assert m["solve.failures"] == 0 and m["trace.counts_repeat"] == 1, workload
        assert m["trace.overhead_ratio"] > 0, workload
