"""Experiment configuration: a single JSON file drives every CLI subcommand.

Schema (JSON object; unknown keys are rejected so typos fail loudly):

    model    required  {"family": ..., family-specific parameters}
    profit   required  {"kind": "cobb_douglas"|"ces"|"log", parameters}
    r        required  discount rate, > 0
    seed     optional  64-bit integer, default 0
    mc       optional  {"n_paths": int >= 1000, "step": > 0 or null,
                        "t_max": > 0 or null}; step and t_max feed only the
                        policy engines, null meaning 1e-3 / r and 20 / r
    grid     optional  {"u_min": float, "u_max": float, "n": int >= 2},
                        default [-2, 2] with 41 points
    state    optional  {"x": float, "y": > 0}, default x=0, y=1
    scales   optional  positive policy scales for `compare`,
                        default [0.5, 0.8, 1.0, 1.25, 2.0]
    verify   optional  {"u0": [floats]} evaluation points for `verify`,
                        default: quartile points of the grid interval
    outputs  optional  artifact directory, default "out"

Families take the parameters that `levy._PARAMETERS` names and profit kinds
those `profit._KINDS` names; a model's `mu` is optional and defaults to 0.  This
module checks only the shape of the input (JSON types, finite numbers,
required and unknown keys) and fills defaults.  The ranges of model and
profit parameters are checked on construction (LevyModel,
ProfitFunction), whose ConstructionError names the parameter.

Every validation failure raises ValidationError naming the offending key by
its dotted path (e.g. "model.sigma").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial

from .errors import ConstructionError, ParseError, ValidationError
from .levy import _MIN_REPLICATES, _PARAMETERS, LevyModel
from .profit import _KINDS, ProfitFunction

__all__ = ["ExperimentConfig", "load_config", "parse_config"]

_MISSING = object()


@dataclass(frozen=True)
class ExperimentConfig:
    model: LevyModel
    profit: ProfitFunction
    r: float
    seed: int
    n_paths: int
    step: float | None
    t_max: float | None
    u_min: float
    u_max: float
    grid_n: int
    x: float
    y: float
    scales: tuple[float, ...]
    verify_u0: tuple[float, ...]
    out_dir: str
    config_sha256: str


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(d: dict, allowed, path: str) -> None:
    for key in d:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ValidationError(where, "unknown key")


def _get(d: dict, key: str, path: str, default=_MISSING):
    if key in d:
        return d[key]
    if default is _MISSING:
        raise ValidationError(f"{path}.{key}" if path else key, "missing required key")
    return default


def _as_float(value, path: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    v = float(value)
    if v != v or v in (float("inf"), float("-inf")):
        raise ValidationError(path, f"must be finite, got {value!r}")
    if positive and not v > 0:
        raise ValidationError(path, f"must be > 0, got {value!r}")
    return v


def _as_int(value, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be >= {minimum}, got {value!r}")
    return value


def _as_seed(value) -> int:
    seed = _as_int(value, "seed", minimum=0)
    if seed >= 2 ** 64:
        raise ValidationError("seed", f"must fit in 64 bits, got {seed!r}")
    return seed


# each family's and each profit kind's constructor and its parameters (a
# family's besides `mu`)
_MODELS = {fam.value: (partial(LevyModel, fam), names) for fam, names in _PARAMETERS.items()}
_PROFITS = {kind: (partial(ProfitFunction, kind), names)
            for kind, (names, _) in _KINDS.items()}


def _parse_block(raw, path: str, tag_key: str, table: dict, optional: dict):
    """Build the object a {tag_key: tag, parameter: number, ...} block describes.

    table[tag] gives the constructor and its required parameter names;
    `optional` maps further parameter names to their defaults.
    """
    d = _require_mapping(raw, path)
    tag = _get(d, tag_key, path)
    if not isinstance(tag, str) or tag not in table:
        raise ValidationError(f"{path}.{tag_key}",
                              f"unknown {tag_key} {tag!r}; expected one of "
                              f"{', '.join(table)}")
    build, names = table[tag]
    _reject_unknown(d, {tag_key, *optional, *names}, path)
    params = {name: _as_float(_get(d, name, path, optional.get(name, _MISSING)),
                              f"{path}.{name}")
              for name in (*optional, *names)}
    try:
        return build(**params)
    except ConstructionError as exc:
        raise ValidationError(f"{path}.{exc.key}", exc.message) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document (see the module docstring)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object at top level")
    _reject_unknown(raw, {"model", "profit", "r", "seed", "mc", "grid", "state",
                          "scales", "verify", "outputs"}, "")

    model = _parse_block(_get(raw, "model", ""), "model", "family", _MODELS,
                         {"mu": 0.0})
    profit = _parse_block(_get(raw, "profit", ""), "profit", "kind", _PROFITS, {})
    r = _as_float(_get(raw, "r", ""), "r")
    if not r > 0:
        raise ValidationError("r", f"must be > 0, got {r!r}")
    seed = _as_seed(_get(raw, "seed", "", 0))

    mc = _require_mapping(_get(raw, "mc", "", {}), "mc")
    _reject_unknown(mc, {"n_paths", "step", "t_max"}, "mc")
    n_paths = _as_int(_get(mc, "n_paths", "mc", 10_000), "mc.n_paths",
                      minimum=_MIN_REPLICATES)
    step = _get(mc, "step", "mc", None)
    if step is not None:
        step = _as_float(step, "mc.step", positive=True)
    t_max = _get(mc, "t_max", "mc", None)
    if t_max is not None:
        t_max = _as_float(t_max, "mc.t_max", positive=True)

    grid = _require_mapping(_get(raw, "grid", "", {}), "grid")
    _reject_unknown(grid, {"u_min", "u_max", "n"}, "grid")
    u_min = _as_float(_get(grid, "u_min", "grid", -2.0), "grid.u_min")
    u_max = _as_float(_get(grid, "u_max", "grid", 2.0), "grid.u_max")
    if not u_min < u_max:
        raise ValidationError("grid.u_min",
                              f"u_min must be < u_max, got {u_min!r} >= {u_max!r}")
    grid_n = _as_int(_get(grid, "n", "grid", 41), "grid.n", minimum=2)

    state = _require_mapping(_get(raw, "state", "", {}), "state")
    _reject_unknown(state, {"x", "y"}, "state")
    x = _as_float(_get(state, "x", "state", 0.0), "state.x")
    y = _as_float(_get(state, "y", "state", 1.0), "state.y", positive=True)

    scales_raw = _get(raw, "scales", "", [0.5, 0.8, 1.0, 1.25, 2.0])
    if not isinstance(scales_raw, list) or not scales_raw:
        raise ValidationError("scales", "expected a non-empty array of numbers")
    scales = tuple(_as_float(s, f"scales[{i}]", positive=True)
                   for i, s in enumerate(scales_raw))

    verify = _require_mapping(_get(raw, "verify", "", {}), "verify")
    _reject_unknown(verify, {"u0"}, "verify")
    span = u_max - u_min
    u0_raw = _get(verify, "u0", "verify",
                  [u_min + 0.25 * span, u_min + 0.5 * span, u_min + 0.75 * span])
    if not isinstance(u0_raw, list) or not u0_raw:
        raise ValidationError("verify.u0", "expected a non-empty array of numbers")
    verify_u0 = tuple(_as_float(u, f"verify.u0[{i}]")
                      for i, u in enumerate(u0_raw))

    out_dir = _get(raw, "outputs", "", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ValidationError("outputs", f"expected a non-empty string, got {out_dir!r}")

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ExperimentConfig(
        model=model, profit=profit, r=r, seed=seed, n_paths=n_paths, step=step,
        t_max=t_max, u_min=u_min, u_max=u_max, grid_n=grid_n, x=x, y=y,
        scales=scales, verify_u0=verify_u0, out_dir=out_dir, config_sha256=digest)


def load_config(path) -> ExperimentConfig:
    """Read, parse, and validate the JSON config file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)
