"""Run configuration: a single JSON key-value tree per experiment.

Field and operator literals follow the external contract: integer
frequency vectors, decimal coefficients, builtin operators selected by
name ("section7" and its 2-d reduction "section7_reduced").  Validation
is strict and raises ConfigError with a usable message; the CLI maps
that to exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, InvalidDirectionError
from .fields import LinearTensorField, isotropic_tensor, identity_tensor, laminate_tensor, make_field
from .lattice import RationalDirection, parse_direction
from .operators import KinkPotential2D, QuadraticPotential, RootKinkOperator

__all__ = ["ExperimentConfig", "load_config", "parse_field", "parse_operator"]

EXPERIMENTS = (
    "cell-solve",
    "phi-star",
    "second-cell",
    "homogenize",
    "sweep",
    "discontinuity-demo",
    "decay-fit",
)

def _number(kind):
    """Conversion of one JSON number to ``kind`` (float or int).  A string,
    a bool, or a non-integral value for an int is a mistyped value."""

    def convert(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected a number, got {value!r}")
        if kind is int and value != int(value):
            raise ValueError(f"expected an integer, got {value!r}")
        return kind(value)

    return convert


def _numbers(value):
    """A JSON list of numbers, kept as given."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    for v in value:
        _number(float)(v)
    return value


# Every section key: its dotted path -> (ExperimentConfig attribute or
# None for a key that is only checked, conversion or None).  Parsing reads
# this table, and so does the check that rejects unknown keys; a value that
# its conversion rejects is a ConfigError.
SECTION_KEYS = {
    "mesh.h": ("h", _number(float)),
    "homogenize.h_cell": ("h_cell", _number(float)),
    "homogenize.eps_ladder": ("eps_ladder", _numbers),
    "strip.R": ("R", _number(float)),
    "strip.R_ladder": ("R_ladder", _numbers),
    "strip.top_bc": (None, None),
    "nonlinear.tau": ("tau", _number(float)),
    "solver.tol": ("solver_tol", _number(float)),
    "limit.tolerance": ("tolerance", _number(float)),
    "limit.max_factor": ("max_factor", _number(int)),
    "limit.sample_count": ("sample_count", _number(int)),
    "sweep.Q": ("Q", _number(int)),
}
SECTIONS = tuple(dict.fromkeys(path.split(".")[0] for path in SECTION_KEYS))
# Section keys that some subcommands never read -> those subcommands; a run
# that sets one would drop it silently, so that is a ConfigError.  Only the
# Krylov solves of linear strips read solver.tol, so nonlinear runs never do.
UNREAD_KEYS = {
    "solver.tol": ("homogenize", "sweep", "discontinuity-demo"),
    "strip.R": ("sweep", "discontinuity-demo", "decay-fit"),
    "strip.R_ladder": ("homogenize", "sweep", "discontinuity-demo"),
    "limit.max_factor": ("homogenize", "sweep", "discontinuity-demo", "decay-fit"),
}
TOP_LEVEL_KEYS = (
    "experiment", "operator", "data", "direction", "directions", "eta", "etas", "seed", "out",
) + SECTIONS

# the shift-profile samples of discontinuity-demo: its default, and the
# fewest it takes (its directional limits interpolate the profile linearly)
DEMO_SAMPLE_COUNT = 32

BUILTIN_OPERATORS = {
    "section7": RootKinkOperator,
    "section7_reduced": KinkPotential2D,
}


def parse_field(spec, d=None):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"field literal must be a dict, got {type(spec).__name__}")
    terms = []
    for t in spec.get("terms", []):
        freq = t.get("freq")
        if freq is None or any(int(k) != k for k in freq):
            raise ConfigError(f"term frequency must be an integer vector, got {freq!r}")
        terms.append((t.get("coef", 1.0), [int(k) for k in freq], t.get("phase", "cos")))
    dd = spec.get("d", d if d is not None else (len(terms[0][1]) if terms else None))
    if dd is None:
        raise ConfigError("cannot infer the dimension of a constant field; give 'd'")
    try:
        return make_field(
            int(dd),
            terms=terms,
            constant=spec.get("constant", 0.0),
            n_components=int(spec.get("n_components", 1)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_operator(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("operator literal needs a 'kind' entry")
    kind = spec["kind"]
    if kind == "identity":
        return identity_tensor(int(spec.get("d", 2)), int(spec.get("n_components", 1)),
                               scale=float(spec.get("scale", 1.0)))
    if kind == "laminate":
        return laminate_tensor(
            d=int(spec.get("d", 2)),
            amplitude=float(spec.get("amplitude", 0.5)),
            mean_scale=float(spec.get("mean_scale", 2.0 / 3.0)),
            axis=int(spec.get("axis", 0)),
            n_components=int(spec.get("n_components", 1)),
        )
    if kind == "isotropic":
        profile = parse_field(spec.get("profile"), d=spec.get("d"))
        if profile is None:
            raise ConfigError("isotropic operator needs a 'profile' field")
        lam = spec.get("lambda")
        if lam is None:
            raise ConfigError("isotropic operator needs a declared 'lambda'")
        return isotropic_tensor(profile, lam=float(lam),
                                n_components=int(spec.get("n_components", 1)))
    if kind == "builtin":
        name = spec.get("name")
        if name not in BUILTIN_OPERATORS:
            raise ConfigError(f"unknown builtin operator {name!r}")
        return BUILTIN_OPERATORS[name]()
    if kind == "quadratic_potential":
        return QuadraticPotential(parse_operator(spec["tensor"]))
    raise ConfigError(f"unknown operator kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Validated run configuration; ``raw`` round-trips unchanged."""

    raw: dict
    experiment: str
    operator: object = None
    data: object = None
    direction: object = None
    directions: list = dc_field(default_factory=list)
    etas: list = dc_field(default_factory=list)
    h: float = None
    R: float = None
    R_ladder: list = None
    tau: float = 0.0
    solver_tol: float = 1e-10
    tolerance: float = 1e-7
    max_factor: int = 64
    sample_count: int = 16
    Q: int = 12
    h_cell: float = None
    eps_ladder: list = None
    seed: int = 0
    out: str = "out"

    def canonical(self):
        from .reports import canonical_json

        return canonical_json(self.raw)


def _get(d, path, default=None):
    cur = d
    for key in path.split("."):
        if not isinstance(cur, dict) or key not in cur:
            return default
        cur = cur[key]
    return cur


def _check_keys(raw):
    """Reject a top-level or section key that no parser reads (a typo would
    otherwise run silently with defaults)."""
    unknown = [k for k in raw if k not in TOP_LEVEL_KEYS]
    for section in SECTIONS:
        if isinstance(raw.get(section), dict):
            paths = (f"{section}.{k}" for k in raw[section])
            unknown += [p for p in paths if p not in SECTION_KEYS]
    if unknown:
        known = [k for k in TOP_LEVEL_KEYS if k not in SECTIONS] + list(SECTION_KEYS)
        raise ConfigError(f"unknown config keys {unknown}; known keys: {known}")


def _is_nonlinear(op):
    return op is not None and not isinstance(op, LinearTensorField)


def load_config(source, out_override=None, seed_override=None,
                experiment_override=None) -> ExperimentConfig:
    """Parse and validate a configuration from a path, JSON text, or dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if "\n" not in str(source) and str(source).strip().endswith(".json"):
            try:
                with open(source, "r", encoding="utf-8") as f:
                    text = f.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {source!r}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw)

    experiment = experiment_override or raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    if raw.get("experiment") and experiment_override and raw["experiment"] != experiment_override:
        raise ConfigError(
            f"config experiment {raw['experiment']!r} does not match subcommand {experiment_override!r}"
        )

    cfg = ExperimentConfig(raw=raw, experiment=experiment)
    if "operator" in raw:
        cfg.operator = parse_operator(raw["operator"])
    if "data" in raw:
        d = getattr(cfg.operator, "d", None)
        cfg.data = parse_field(raw["data"], d=d)
    try:
        if "direction" in raw:
            cfg.direction = parse_direction(raw["direction"])
        for spec in raw.get("directions", []):
            cfg.directions.append(parse_direction(spec))
    except InvalidDirectionError as exc:
        raise ConfigError(str(exc)) from exc
    for eta in raw.get("etas", []) or ([raw["eta"]] if "eta" in raw else []):
        cfg.etas.append(np.asarray(eta, dtype=float))

    for path, (attr, convert) in SECTION_KEYS.items():
        value = _get(raw, path)
        if attr is not None and value is not None:
            try:
                setattr(cfg, attr, convert(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    if experiment == "discontinuity-demo" and _get(raw, "limit.sample_count") is None:
        cfg.sample_count = DEMO_SAMPLE_COUNT
    top = _get(raw, "strip.top_bc", "neumann")
    if top != "neumann":
        # every subcommand reads its far field from a natural top
        raise ConfigError(f"strip.top_bc must be 'neumann', got {top!r}")
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    cfg.seed = seed
    cfg.out = out_override or raw.get("out", "out")

    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    if cfg.h is not None and not (0.0 < cfg.h <= 0.125 + 1e-12):
        raise ConfigError(f"mesh.h must be in (0, 1/8], got {cfg.h}")
    if cfg.tolerance <= 0:
        raise ConfigError("limit.tolerance must be positive")
    if cfg.solver_tol <= 0:
        raise ConfigError("solver.tol must be positive")
    if cfg.sample_count < 8:
        raise ConfigError("limit.sample_count must be at least 8")
    if cfg.experiment == "discontinuity-demo" and cfg.sample_count < DEMO_SAMPLE_COUNT:
        raise ConfigError(
            f"limit.sample_count must be at least {DEMO_SAMPLE_COUNT} for discontinuity-demo"
        )
    if cfg.R is not None and cfg.R_ladder:
        # the ladder is explicit, so R would be dropped
        raise ConfigError("set strip.R or strip.R_ladder, not both")
    if cfg.Q < 1:
        raise ConfigError("sweep.Q must be at least 1")
    if cfg.experiment == "decay-fit" and not cfg.R_ladder:
        raise ConfigError("decay-fit needs an explicit strip.R_ladder")
    needs_direction = cfg.experiment in ("cell-solve", "phi-star", "second-cell", "decay-fit")
    if needs_direction and cfg.direction is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs a 'direction'")
    if needs_direction and not isinstance(cfg.direction, RationalDirection):
        # its strips need the periods of a rational direction
        raise ConfigError(f"experiment {cfg.experiment!r} needs a rational 'direction'")
    if cfg.experiment in ("cell-solve", "phi-star", "second-cell", "sweep", "decay-fit") and (
        cfg.operator is None or cfg.data is None
    ):
        raise ConfigError(f"experiment {cfg.experiment!r} needs 'operator' and 'data'")
    if cfg.experiment == "homogenize" and cfg.operator is None:
        raise ConfigError("homogenize needs an 'operator'")
    if cfg.experiment == "sweep" and not cfg.directions:
        raise ConfigError("sweep needs a nonempty 'directions' list")
    if _is_nonlinear(cfg.operator):
        if cfg.tau <= 0.0 and cfg.experiment in (
            "cell-solve", "phi-star", "second-cell", "discontinuity-demo"
        ):
            raise ConfigError("nonlinear runs need nonlinear.tau > 0")
        # only linear fields are homogenized, so a y-dependent map has no
        # effective operator for the directional limits
        if cfg.experiment == "homogenize":
            raise ConfigError("homogenize needs a linear operator")
        if cfg.operator.y_dependent and cfg.experiment in (
            "second-cell", "sweep", "discontinuity-demo"
        ):
            raise ConfigError(f"a y-dependent map has no effective operator for {cfg.experiment}")
    for path, experiments in UNREAD_KEYS.items():
        nonlinear = path == "solver.tol" and _is_nonlinear(cfg.operator)
        if _get(cfg.raw, path) is not None and (cfg.experiment in experiments or nonlinear):
            raise ConfigError(f"{path} is never read by this {cfg.experiment!r} run")
    if isinstance(cfg.direction, RationalDirection):
        if cfg.experiment == "second-cell":
            for eta in cfg.etas:
                if eta.shape != (cfg.direction.d,) or abs(float(eta @ cfg.direction.xi)) > 1e-9:
                    raise ConfigError(
                        f"eta {eta.tolist()} is not a {cfg.direction.d}-vector orthogonal "
                        f"to the direction {cfg.direction.xi.tolist()}"
                    )
        M = cfg.direction.period_bound
        if cfg.R is not None and cfg.experiment in ("cell-solve", "phi-star", "second-cell"):
            if cfg.R < 4.0 * M - 1e-12:
                raise ConfigError(f"strip.R = {cfg.R} is below 4 M = {4 * M}")
        if cfg.h is not None:
            for ell in cfg.direction.periods:
                L = math.sqrt(float(ell @ ell))
                n = L / cfg.h
                if abs(round(n) - n) > 1e-9 * max(1.0, n):
                    raise ConfigError(
                        f"mesh.h = {cfg.h} does not divide the lateral period {L}"
                    )
    return cfg
