import importlib
import inspect
import json
import sys
import textwrap
import time

import pytest

import layer_metrics
from layer_metrics import PER_LAYER, EffbcTrace, layer_metrics as compute_layer_metrics
from tracer import Tracer

TOY = {
    "__init__.py": "from . import b\nfrom .a import f\n",
    "a.py": """
        import time

        def f(x):
            time.sleep(0.01)
            return x + 1

        def g(x):
            return f(x) * 2

        def _private(x):
            return x

        class Base:
            def __init__(self, k):
                self.k = k

            def m(self, x):
                return f(x) + self.k

            @staticmethod
            def s(x):
                return -x

        class Child(Base):
            pass
    """,
    "b.py": """
        from .a import Child, f

        TABLE = {"inc": f}

        def h(x):
            return TABLE["inc"](x) + Child(1).m(x) + Child.s(x)
    """,
}


@pytest.fixture
def toy(tmp_path):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    for name, body in TOY.items():
        (pkg / name).write_text(textwrap.dedent(body))
    sys.path.insert(0, str(tmp_path))
    try:
        yield importlib.import_module("toypkg")
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m == "toypkg" or m.startswith("toypkg.")]:
            del sys.modules[name]


def test_every_binding_site_is_patched_and_restored(toy):
    a, b = toy.a, toy.b
    originals = (a.f, a.g, a._private, a.Base.__dict__["m"], a.Base.__dict__["s"])
    with Tracer("toypkg", ["a", "b"]) as tracer:
        assert toy.f is a.f is b.f is b.TABLE["inc"]
        assert a.f is not originals[0]
        assert a._private is originals[2]  # private functions stay
        assert isinstance(a.Base.__dict__["s"], staticmethod)
        assert b.h(1) == 2 + 3 - 1
    assert (a.f, a.g, a._private, a.Base.__dict__["m"], a.Base.__dict__["s"]) == originals
    assert toy.f is b.f is b.TABLE["inc"] is a.f
    assert isinstance(a.Base.__dict__["s"], staticmethod)
    assert tracer.calls["b.h"] == 1
    assert tracer.calls["a.f"] == 2  # through the dict and through the method
    assert tracer.calls["a.Base.m"] == 1  # inherited method seen on the subclass
    assert tracer.calls["a.Base.__init__"] == 1
    assert tracer.calls["a.Base.s"] == 1
    assert tracer.edge_calls[("b.h", "a.f")] == 1
    assert tracer.edge_calls[("a.Base.m", "a.f")] == 1
    assert tracer.edge_calls[(None, "b.h")] == 1


def test_self_time_is_span_minus_children(toy):
    with Tracer("toypkg", ["a", "b"]) as tracer:
        t0 = time.perf_counter()
        toy.b.h(1)
        wall = time.perf_counter() - t0
    assert tracer.incl_s["b.h"] <= wall
    assert tracer.incl_s["a.f"] >= 0.02
    assert tracer.self_s["b.h"] < tracer.incl_s["b.h"] - 0.02 + 1e-3
    total_self = sum(tracer.module_self_s.values())
    assert total_self == pytest.approx(tracer.incl_s["b.h"], abs=1e-6)
    assert tracer.module_incl_s["b"] == pytest.approx(tracer.incl_s["b.h"])


def test_failures_are_counted(toy):
    with Tracer("toypkg", ["a"]) as tracer:
        with pytest.raises(TypeError):
            toy.a.g("x")
    assert tracer.failures["a.f"] == 1 and tracer.failures["a.g"] == 1


def _effbc_namespaces():
    return [importlib.import_module("effbc")] + [
        importlib.import_module(f"effbc.{m}") for m in layer_metrics.LAYERS
    ]


def test_effbc_binding_sites():
    from effbc import assembly, cli, grid, homogenize, layers, second_cell, solve

    originals = {
        "assemble_matrix": assembly.assemble_matrix,
        "solve_free": assembly.StripReferenceSolver.solve_free,
        "phys_gradient": grid._MeshBase.phys_gradient,
    }
    with EffbcTrace() as trace:
        wrapped = set(map(id, trace.tracer.wrapped.values()))
        assert solve.assemble_matrix is homogenize.assemble_matrix is assembly.assemble_matrix
        assert assembly.assemble_matrix is not originals["assemble_matrix"]
        assert layers.solve_strip is solve.solve_strip
        assert second_cell.ladder_limit is layers.ladder_limit
        assert second_cell.shift_profile is cli.shift_profile is layers.shift_profile
        for name in ("solution_text", "validate_operator", "directional_limit", "shift_profile"):
            assert id(getattr(cli, name)) not in wrapped, name
        assert cli._COMMANDS["cell-solve"] is cli.cmd_cell_solve
        assert assembly.StripReferenceSolver.solve_free is not originals["solve_free"]
        assert grid.StripGrid.phys_gradient is not originals["phys_gradient"]
        # no module global or command table still points at an unwrapped function
        for mod in _effbc_namespaces():
            for attr, value in vars(mod).items():
                assert id(value) not in wrapped, f"{mod.__name__}.{attr}"
                if type(value) is dict:
                    assert not wrapped & set(map(id, value.values())), f"{mod.__name__}.{attr}"
    assert assembly.assemble_matrix is originals["assemble_matrix"]
    assert solve.assemble_matrix is originals["assemble_matrix"]
    assert assembly.StripReferenceSolver.solve_free is originals["solve_free"]
    assert grid._MeshBase.phys_gradient is originals["phys_gradient"]


def test_every_layer_defines_traced_work():
    with EffbcTrace() as trace:
        layers_seen = {name.split(".")[0] for name in trace.tracer.wrapped}
    assert layers_seen == set(layer_metrics.LAYERS)
    assert all(inspect.isfunction(fn) for fn in trace.tracer.wrapped.values())


def test_traced_cli_run_reports_every_metric(tmp_path):
    from effbc import cli

    cfg = {
        "experiment": "cell-solve",
        "operator": {"kind": "laminate", "d": 2},
        "data": {"constant": 0.25, "terms": [{"coef": 1.0, "freq": [1, 1], "phase": "cos"}]},
        "direction": "rational: [0,1]",
        "mesh": {"h": 0.0625},
        "limit": {"tolerance": 1e-8},
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with EffbcTrace() as trace:
        t0 = time.perf_counter()
        assert cli.main(["--config", str(path), "cell-solve"]) == 0
        wall = time.perf_counter() - t0
    m = compute_layer_metrics(trace.summary(), wall, 1)
    expected = {name for name, _, _ in PER_LAYER} - {"trace.overhead_ratio", "trace.counts_repeat"}
    assert set(m) == expected
    assert m["solve.strip_solves"] >= 2 and m["layers.ladders"] == 1
    assert m["solve.krylov_iters"] > 0 and m["solve.precond_per_krylov_iter"] >= 1
    assert m["reports.solution_text_s"] > 0 and m["layers.profile_s"] == 0
    assert m["cli.calls"] == 1
    assert sum(m[f"{layer}.self_s"] for layer in layer_metrics.LAYERS) <= wall
