"""Per-layer metrics of the traced run, and what each one should move.

The layers are the modules of ``effbc`` (``errors`` does no work).
``EffbcTrace`` installs the tracer with the hooks that count what the
span aggregates cannot see (Krylov and nonlinear iterations, ladder
rungs, computed bytes, distinct directional limits);
``layer_metrics`` turns its summary into the named per-layer metrics.
The comment above ``NAMED`` writes down, for each group of metrics, which
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import inspect

import numpy as np

from tracer import Tracer

LAYERS = (
    "lattice", "fields", "operators", "grid", "assembly", "solve",
    "layers", "homogenize", "second_cell", "config", "reports", "cli",
)

# span names (module.function or module.Class.method)
REF_SOLVE = "assembly.StripReferenceSolver.solve_free"
REF_APPLY = "assembly.StripReferenceSolver.solve"
REF_SETUP = "assembly.StripReferenceSolver.__init__"
LIFT = "assembly.StripReferenceSolver.lift"
MATRIX = "assembly.assemble_matrix"
TORUS_SOLVE = "assembly.TorusReferenceSolver.solve"
TENSOR_EVAL = "fields.LinearTensorField.__call__"
GRADIENT = "grid._MeshBase.phys_gradient"
SCATTER = "grid._MeshBase.scatter_flux"
VALIDATE = "operators.validate_operator"
SOLVE_LINEAR = "solve.solve_linear"
SOLVE_NONLINEAR = "solve.solve_nonlinear"
OPERATOR_FLUX = "solve.operator_flux"
LADDER = "layers.ladder_limit"
PROFILE = "layers.shift_profile"
LIMIT = "second_cell.directional_limit"
PREDICT = "second_cell.predict_phi_star"
SOLUTION_TEXT = "reports.solution_text"
LOAD_CONFIG = "config.load_config"
_WRITES = tuple(
    f"reports.Reporter.{m}"
    for m in ("write_text", "write_csv", "write_json", "write_svg", "finalize")
)

_SECONDS = "s"
_COUNT = "count"
_RATIO = "ratio"

# What each group of metrics should move, written down before any change:
#
# assembly.ref_solve_*: wall_s and cpu_s; strongest on linear-sweep and
#   discontinuity (tall thin 2-d strips, Thomas sweep), weaker on
#   kink-3d-ladder (lateral FFTs).
# assembly.ref_setup_*, assembly.lift_s: wall_s on discontinuity and
#   linear-sweep, where every rung rebuilds the factorization; flat on
#   kink-3d-ladder (2 calls).
# assembly.matrix_*, fields.eval_*: wall_s on linear-sweep; zero on the
#   nonlinear workloads.
# assembly.torus_solve_calls, homogenize.s: wall_s on linear-sweep, a small
#   share.
# grid.*: wall_s on kink-3d-ladder and discontinuity; under 2% of
#   linear-sweep.  Bytes are computed from array sizes, and no array exceeds
#   the last-level cache.
# operators.*: wall_s on kink-3d-ladder and discontinuity.
# solve.krylov_iters, solve.precond_per_krylov_iter: wall_s and cpu_s on
#   linear-sweep; CG on symmetric tensors takes the second from 2 to 1.
#   Zero on the nonlinear workloads.
# solve.nonlinear_iters, solve.flux_evals_per_nonlinear_iter: wall_s on
#   kink-3d-ladder and discontinuity; the second is the attempt count of line
#   searches and step halvings per accepted iteration.
# solve.strip_solves, solve.linear_s, solve.nonlinear_s, solve.self_s: wall_s
#   and cpu_s everywhere; solve.self_s is Krylov overhead, sparse matvec and
#   line-search bookkeeping.
# layers.*: wall_s and peak_rss_mb on linear-sweep and discontinuity
#   (batching shift samples trades memory for time); layers.profile_s is 0
#   on kink-3d-ladder.
# second_cell.*: wall_s on discontinuity (about 5 of its 7 limits are
#   distinct) and linear-sweep.
# reports.*, config.load_s, lattice.s: wall_s on kink-3d-ladder; negligible
#   elsewhere.
# <layer>.calls, <layer>.self_s: wall_s and cpu_s everywhere; self time is
#   span minus child spans, per module.
# trace.overhead_ratio: traced wall time over untraced wall time.
#
# (name, unit, better); the generic <layer>.calls / <layer>.self_s follow
NAMED = (
    ("assembly.ref_solve_calls", _COUNT, "lower"),
    ("assembly.ref_solve_s", _SECONDS, "lower"),
    ("assembly.ref_setup_calls", _COUNT, "lower"),
    ("assembly.ref_setup_s", _SECONDS, "lower"),
    ("assembly.lift_s", _SECONDS, "lower"),
    ("assembly.matrix_calls", _COUNT, "lower"),
    ("assembly.matrix_s", _SECONDS, "lower"),
    ("assembly.torus_solve_calls", _COUNT, "lower"),
    ("fields.eval_calls", _COUNT, "lower"),
    ("fields.eval_s", _SECONDS, "lower"),
    ("homogenize.s", _SECONDS, "lower"),
    ("grid.gradient_calls", _COUNT, "lower"),
    ("grid.gradient_s", _SECONDS, "lower"),
    ("grid.scatter_calls", _COUNT, "lower"),
    ("grid.scatter_s", _SECONDS, "lower"),
    ("grid.bytes_computed", "bytes", "lower"),
    ("operators.flux_calls", _COUNT, "lower"),
    ("operators.flux_s", _SECONDS, "lower"),
    ("operators.potential_calls", _COUNT, "lower"),
    ("operators.potential_s", _SECONDS, "lower"),
    ("operators.validate_s", _SECONDS, "lower"),
    ("solve.strip_solves", _COUNT, "lower"),
    ("solve.linear_s", _SECONDS, "lower"),
    ("solve.nonlinear_s", _SECONDS, "lower"),
    ("solve.failures", _COUNT, "lower"),
    ("solve.krylov_iters", _COUNT, "lower"),
    ("solve.precond_per_krylov_iter", _RATIO, "lower"),
    ("solve.nonlinear_iters", _COUNT, "lower"),
    ("solve.flux_evals_per_nonlinear_iter", _RATIO, "lower"),
    ("layers.ladders", _COUNT, "lower"),
    ("layers.rungs_per_ladder", _RATIO, "lower"),
    ("layers.ladder_s", _SECONDS, "lower"),
    ("layers.profile_s", _SECONDS, "lower"),
    ("second_cell.limits", _COUNT, "lower"),
    ("second_cell.distinct_limit_ratio", _RATIO, "higher"),
    ("second_cell.limit_s", _SECONDS, "lower"),
    ("second_cell.predict_s", _SECONDS, "lower"),
    ("reports.solution_text_s", _SECONDS, "lower"),
    ("reports.write_s", _SECONDS, "lower"),
    ("reports.bytes_written", "bytes", "lower"),
    ("config.load_s", _SECONDS, "lower"),
    ("lattice.s", _SECONDS, "lower"),
    ("trace.wall_s", _SECONDS, "lower"),
    ("trace.overhead_ratio", _RATIO, "lower"),
    ("trace.counts_repeat", _RATIO, "higher"),
)

PER_LAYER = NAMED + tuple(
    (f"{layer}.{kind}", unit, "lower")
    for layer in LAYERS
    for kind, unit in (("calls", _COUNT), ("self_s", _SECONDS))
)

# metrics that count work; a traced run states whether they repeat exactly.
# reports.bytes_written is left out: the manifest holds timings.
COUNTS = tuple(
    name for name, unit, _ in PER_LAYER
    if unit != _SECONDS and not name.startswith("trace.") and name != "reports.bytes_written"
)


def _value_key(value):
    """Hashable content of one directional_limit argument."""
    if isinstance(value, np.ndarray):
        return tuple(np.round(value, 12).ravel().tolist())
    if hasattr(value, "periods"):  # RationalDirection
        return tuple(value.xi.tolist())
    if hasattr(value, "shifts"):  # ShiftProfile
        return (value.period, _value_key(value.values))
    if hasattr(value, "A0"):  # HomogenizedTensor
        return _value_key(value.A0)
    if hasattr(value, "describe"):  # operators
        return repr(value.describe())
    if isinstance(value, (int, float, str, type(None))):
        return value
    return id(value)


def _limit_key(bound):
    """Hashable identity of a directional_limit call's inputs."""
    return tuple((name, _value_key(value)) for name, value in bound.arguments.items())


class EffbcTrace:
    """Tracer over the effbc layers plus the counters its hooks keep."""

    def __init__(self):
        self.krylov_iters = 0
        self.nonlinear_iters = 0
        self.rungs = 0
        self.bytes_computed = 0
        self.limit_keys = set()
        hooks = {
            SOLVE_LINEAR: self._linear,
            SOLVE_NONLINEAR: self._nonlinear,
            LADDER: self._ladder,
            GRADIENT: self._bytes,
            SCATTER: self._bytes,
            LIMIT: self._limit,
        }
        self.tracer = Tracer("effbc", LAYERS, hooks)

    def _linear(self, args, kwargs, result):
        self.krylov_iters += result.iterations

    def _nonlinear(self, args, kwargs, result):
        self.nonlinear_iters += result.iterations

    def _ladder(self, args, kwargs, result):
        self.rungs += len(result[0].heights_used)

    def _bytes(self, args, kwargs, result):
        self.bytes_computed += args[1].nbytes + result.nbytes

    def _limit(self, args, kwargs, result):
        fn = self.tracer.wrapped[LIMIT]
        self.limit_keys.add(_limit_key(inspect.signature(fn).bind(*args, **kwargs)))

    def __enter__(self):
        self.tracer.install()
        return self

    def __exit__(self, *exc):
        self.tracer.uninstall()

    def summary(self):
        out = self.tracer.summary()
        out["hooks"] = {
            "krylov_iters": self.krylov_iters,
            "nonlinear_iters": self.nonlinear_iters,
            "rungs": self.rungs,
            "bytes_computed": self.bytes_computed,
            "distinct_limits": len(self.limit_keys),
        }
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, traced_wall_s, bytes_written):
    """Named per-layer metrics of one traced rep (trace.overhead_ratio and
    trace.counts_repeat need several reps and are added by the caller)."""
    calls = summary["calls"]
    incl = summary["incl_s"]
    edges = summary["edge_calls"]
    edge_s = summary["edge_s"]
    hooks = summary["hooks"]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    def family(layer, method):
        names = [k for k in calls if k.startswith(layer + ".") and k.endswith("." + method)]
        return sum(n(k) for k in names), sum(t(k) for k in names)

    flux_calls, flux_s = family("operators", "flux")
    potential_calls, potential_s = family("operators", "potential")
    # outermost writes only: write_csv/json/svg call write_text
    write_s = sum(
        seconds for edge, seconds in edge_s.items()
        if edge.split(" -> ")[1] in _WRITES and edge.split(" -> ")[0] not in _WRITES
    )
    ladders = n(LADDER)
    limits = n(LIMIT)
    m = {
        "assembly.ref_solve_calls": n(REF_SOLVE),
        "assembly.ref_solve_s": t(REF_SOLVE),
        "assembly.ref_setup_calls": n(REF_SETUP),
        "assembly.ref_setup_s": t(REF_SETUP),
        "assembly.lift_s": t(LIFT),
        "assembly.matrix_calls": n(MATRIX),
        "assembly.matrix_s": t(MATRIX),
        "assembly.torus_solve_calls": n(TORUS_SOLVE),
        "fields.eval_calls": n(TENSOR_EVAL),
        "fields.eval_s": t(TENSOR_EVAL),
        "homogenize.s": summary["module_incl_s"].get("homogenize", 0.0),
        "grid.gradient_calls": n(GRADIENT),
        "grid.gradient_s": t(GRADIENT),
        "grid.scatter_calls": n(SCATTER),
        "grid.scatter_s": t(SCATTER),
        "grid.bytes_computed": hooks["bytes_computed"],
        "operators.flux_calls": flux_calls,
        "operators.flux_s": flux_s,
        "operators.potential_calls": potential_calls,
        "operators.potential_s": potential_s,
        "operators.validate_s": t(VALIDATE),
        "solve.strip_solves": n(SOLVE_LINEAR) + n(SOLVE_NONLINEAR),
        "solve.linear_s": t(SOLVE_LINEAR),
        "solve.nonlinear_s": t(SOLVE_NONLINEAR),
        "solve.failures": sum(summary["failures"].get(k, 0) for k in (SOLVE_LINEAR, SOLVE_NONLINEAR)),
        "solve.krylov_iters": hooks["krylov_iters"],
        # the preconditioner is a closure inside solve_linear, so each of its
        # calls shows as a reference solve whose parent span is solve_linear
        "solve.precond_per_krylov_iter": _ratio(
            edges.get(f"{SOLVE_LINEAR} -> {REF_APPLY}", 0), hooks["krylov_iters"]
        ),
        "solve.nonlinear_iters": hooks["nonlinear_iters"],
        "solve.flux_evals_per_nonlinear_iter": _ratio(
            edges.get(f"{SOLVE_NONLINEAR} -> {OPERATOR_FLUX}", 0), hooks["nonlinear_iters"]
        ),
        "layers.ladders": ladders,
        "layers.rungs_per_ladder": _ratio(hooks["rungs"], ladders),
        "layers.ladder_s": t(LADDER),
        "layers.profile_s": t(PROFILE),
        "second_cell.limits": limits,
        "second_cell.distinct_limit_ratio": _ratio(hooks["distinct_limits"], limits),
        "second_cell.limit_s": t(LIMIT),
        "second_cell.predict_s": t(PREDICT),
        "reports.solution_text_s": t(SOLUTION_TEXT),
        "reports.write_s": write_s,
        "reports.bytes_written": bytes_written,
        "config.load_s": t(LOAD_CONFIG),
        "lattice.s": summary["module_incl_s"].get("lattice", 0.0),
        "trace.wall_s": traced_wall_s,
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = summary["module_calls"].get(layer, 0)
        m[f"{layer}.self_s"] = summary["module_self_s"].get(layer, 0.0)
    return m
