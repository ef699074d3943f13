"""Scenario documents: strict JSON in, ScenarioConfig out, and back.

The document is a flat JSON object with the top-level keys "model",
"params", "init", "time", "mixed" and "outputs".  Unknown keys are
rejected everywhere — parameter names are a typo minefield ("beta1", not
"b1") and silence would bury the mistake.  Malformed documents raise
ConfigError; missing or out-of-range values inside a well-formed document
raise the same validation errors the library layers use, with the key
path ("params.kappa") in the message.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping

from .core import ModelKind, Params, _layout, to_float, validate_params, with_rho_one
from .errors import ConfigError, MissingFieldError, RangeError
from .integrator import check_times
from .scenarios import (
    INIT_RULE_DFE_PLUS_ONE,
    MixedSpec,
    ScenarioConfig,
    resolve_init,
)

__all__ = ["load_config", "loads_config", "dump_config", "dumps_config"]

_TOP_KEYS = {"model", "params", "init", "time", "mixed", "outputs"}
_MODEL_NAMES = {
    "ma": ModelKind.MA,
    "mb": ModelKind.MB,
    "mixed": ModelKind.SINGLE,
}
_REQUIRED_PARAMS_COMMON = {"beta1", "beta2", "lambda", "gamma", "kappa", "N"}
_REQUIRED_PARAMS = {
    "ma": _REQUIRED_PARAMS_COMMON | {"rho"},
    "mb": _REQUIRED_PARAMS_COMMON | {"alpha1", "alpha2"},
    "mixed": _REQUIRED_PARAMS_COMMON | {"alpha1", "alpha2"},
}
_ALLOWED_PARAMS = {
    "ma": _REQUIRED_PARAMS["ma"],
    "mb": _REQUIRED_PARAMS["mb"] | {"transition_normalization"},
    "mixed": _REQUIRED_PARAMS["mixed"] | {"transition_normalization"},
}
_TIME_KEYS = {"t0", "t1", "dt", "record_every"}
_MIXED_KEYS = {"t_switch", "rho_split", "split_rule"}


def _reject_unknown(mapping: Mapping[str, Any], allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(repr(k) for k in unknown)} in {where}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _require_number(mapping: Mapping[str, Any], key: str, where: str) -> float:
    """mapping[key] as a finite float, or an error naming the key path."""
    if key not in mapping:
        raise MissingFieldError(f"missing required key {where}.{key}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    value = to_float(value)
    if not math.isfinite(value):
        raise RangeError(f"{where}.{key} must be finite, got {value!r}")
    return value


def loads_config(text: str, *, allow_beta_gt_one: bool = False) -> ScenarioConfig:
    """Parse a scenario document from JSON text."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise ConfigError(f"not valid JSON: {exc}") from exc
    return _config_from_doc(doc, allow_beta_gt_one=allow_beta_gt_one)


def load_config(path: str, *, allow_beta_gt_one: bool = False) -> ScenarioConfig:
    """Parse a scenario document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return loads_config(text, allow_beta_gt_one=allow_beta_gt_one)


def _config_from_doc(doc: Any, *, allow_beta_gt_one: bool) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"document root must be an object, got {type(doc).__name__}")
    _reject_unknown(doc, _TOP_KEYS, "document root")

    model_name = doc.get("model")
    if not isinstance(model_name, str) or model_name not in _MODEL_NAMES:
        raise ConfigError(
            f'"model" must be one of {sorted(_MODEL_NAMES)}, got {model_name!r}'
        )
    model = _MODEL_NAMES[model_name]

    raw_params = doc.get("params")
    if not isinstance(raw_params, dict):
        raise ConfigError('"params" must be an object')
    _reject_unknown(
        raw_params, _ALLOWED_PARAMS[model_name], f'"params" for model "{model_name}"'
    )
    missing = sorted(_REQUIRED_PARAMS[model_name] - set(raw_params))
    if missing:
        raise MissingFieldError(
            "missing required key(s): "
            + ", ".join(f"params.{key}" for key in missing)
        )
    # The mixed scenario's parameters drive the two-class model after the
    # switch, so they validate under that model (rho derived from alphas),
    # and its trajectory has that model's observables.
    run_model = ModelKind.MB if model_name == "mixed" else model
    params = validate_params(raw_params, run_model, allow_beta_gt_one=allow_beta_gt_one)

    time_block = doc.get("time")
    if not isinstance(time_block, dict):
        raise ConfigError('"time" must be an object')
    _reject_unknown(time_block, _TIME_KEYS, '"time"')
    t0 = _require_number(time_block, "t0", "time") if "t0" in time_block else 0.0
    t1 = _require_number(time_block, "t1", "time")
    dt = _require_number(time_block, "dt", "time") if "dt" in time_block else 1.0
    record_every = time_block.get("record_every", 1)
    if isinstance(record_every, bool) or not isinstance(record_every, int):
        raise ConfigError('"time.record_every" must be an integer')
    try:
        check_times(t0, t1, dt)
    except RangeError as exc:
        raise RangeError(f"time: {exc}") from exc
    if record_every < 1:
        raise RangeError(f"time.record_every must be >= 1, got {record_every}")

    mixed = None
    if model_name == "mixed":
        raw_mixed = doc.get("mixed")
        if not isinstance(raw_mixed, dict):
            raise ConfigError('model "mixed" requires a "mixed" object')
        _reject_unknown(raw_mixed, _MIXED_KEYS, '"mixed"')
        mixed = MixedSpec(
            t_switch=_require_number(raw_mixed, "t_switch", "mixed"),
            rho_split=_require_number(raw_mixed, "rho_split", "mixed"),
            split_rule=str(raw_mixed.get("split_rule", "proportional")),
        )
    elif "mixed" in doc:
        raise ConfigError('"mixed" block is only allowed with model "mixed"')

    raw_init = doc.get("init")
    init_state = _resolve_init_key(raw_init, model, params)
    init_rule = raw_init if isinstance(raw_init, str) else None

    outputs = doc.get("outputs", [])
    if not isinstance(outputs, list) or any(not isinstance(o, str) for o in outputs):
        raise ConfigError('"outputs" must be a list of observable names')
    known = _layout(run_model).observables
    bad = sorted(set(outputs) - set(known))
    if bad:
        raise ConfigError(
            f'unknown observable(s) {bad} in "outputs"; known: {sorted(known)}'
        )

    return ScenarioConfig(
        model=model,
        params=params,
        init_state=init_state,
        t0=t0,
        t1=t1,
        dt=dt,
        record_every=record_every,
        init_rule=init_rule,
        mixed=mixed,
        outputs=tuple(outputs),
    )


def _resolve_init_key(raw: Any, model: ModelKind, params: Params):
    if raw is None:
        raise MissingFieldError('missing required key "init"')
    if isinstance(raw, str):
        if raw != INIT_RULE_DFE_PLUS_ONE:
            raise ConfigError(
                f'"init" must be {INIT_RULE_DFE_PLUS_ONE!r} or an explicit '
                f"state object, got {raw!r}"
            )
        # The mixed scenario opens single-class: everyone starts in class 1.
        if model is ModelKind.SINGLE:
            return resolve_init(model, with_rho_one(params), raw)
        return resolve_init(model, params, raw)
    if not isinstance(raw, dict):
        raise ConfigError('"init" must be a rule name or an object of compartments')

    state_type, total_of = _layout(model)[:2]
    _reject_unknown(raw, set(state_type._fields), '"init"')
    values = {}
    for name in state_type._fields:
        values[name] = _require_number(raw, name, "init")
        if values[name] < 0:
            raise RangeError(f"init.{name} must be nonnegative")
    state = state_type(**values)

    total = total_of(state)
    if total != params.N:
        raise RangeError(
            f"init compartments must sum to N exactly: got {total!r}, N = {params.N!r}"
        )
    if model is ModelKind.SINGLE and state.S2 != 0.0:
        raise RangeError("single-class runs require init.S2 = 0")
    return state


def dump_config(cfg: ScenarioConfig) -> dict[str, Any]:
    """Document form of a config.  Reparsing it reproduces the config."""
    model_name = "mixed" if cfg.mixed is not None else cfg.model.value
    params = cfg.params.as_dict()
    if model_name in ("mb", "mixed"):
        params.pop("rho", None)  # derived from the alphas, never written
    doc: dict[str, Any] = {
        "model": model_name,
        "params": params,
        "init": cfg.init_rule
        if cfg.init_rule is not None
        else dict(zip(type(cfg.init_state)._fields, cfg.init_state)),
        "time": {
            "t0": cfg.t0,
            "t1": cfg.t1,
            "dt": cfg.dt,
            "record_every": cfg.record_every,
        },
    }
    if cfg.mixed is not None:
        doc["mixed"] = {
            "t_switch": cfg.mixed.t_switch,
            "rho_split": cfg.mixed.rho_split,
            "split_rule": cfg.mixed.split_rule,
        }
    if cfg.outputs:
        doc["outputs"] = list(cfg.outputs)
    return doc


def dumps_config(cfg: ScenarioConfig) -> str:
    """JSON text form of a config.

    Raises ValueError for a non-finite number (possible only in a config
    built in code), which standard JSON cannot hold.
    """
    doc = dump_config(cfg)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
