import json
import math
import os

import numpy as np
import pytest

import run
from layer_metrics import PER_LAYER
from workloads import SWEEP_CENTRES, SWEEP_Q, WORKLOADS, make_config

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_configs_depend_on_the_seed_only(workload):
    assert make_config(workload, 7) == make_config(workload, 7)
    assert make_config(workload, 7) != make_config(workload, 8)
    json.dumps(make_config(workload, 7))


def test_seed_zero_uses_the_acceptance_inputs():
    kink = make_config("kink-3d-ladder", 0)
    assert kink["data"]["terms"][0]["coef"] == 1.0  # criterion 2: cos(2 pi y1) + 1/3
    assert kink["data"]["constant"] == pytest.approx(1 / 3)
    sweep = make_config("linear-sweep", 0)
    assert sweep["data"]["terms"][0]["coef"] == 1.0
    assert sweep["data"]["constant"] == pytest.approx(1 / 3)
    angles = [math.atan2(*d["unit"]) for d in sweep["directions"]]
    assert angles == pytest.approx(SWEEP_CENTRES)


def test_sweep_jitter_keeps_the_solved_directions():
    from effbc.lattice import dirichlet_approximate

    def approximants(seed):
        dirs = make_config("linear-sweep", seed)["directions"]
        return [tuple(dirichlet_approximate(np.array(d["unit"]), SWEEP_Q).xi) for d in dirs]

    assert approximants(0) == [(1, 6), (1, 5), (1, 4)]
    for seed in range(1, 60):
        assert approximants(seed) == approximants(0), seed


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
