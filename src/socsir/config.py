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
import os
from typing import Any, Collection, Mapping

from .core import (
    _SINGLE, ModelKind, Params, _check_kind, _finite, _layout, validate_params,
    with_rho_one,
)
from .errors import ConfigError, MissingFieldError, RangeError, ValidationError
from .integrator import check_times
from .scenarios import (
    INIT_RULE_DFE_PLUS_ONE,
    MixedSpec,
    ScenarioConfig,
    _check_mixed,
    resolve_init,
)

_TOP_KEYS = {"model", "params", "init", "time", "mixed", "outputs"}
_MODEL_NAMES = {
    "ma": ModelKind.MA,
    "mb": ModelKind.MB,
    "mixed": ModelKind.SINGLE,
}
# By the model the parameters validate under: the mixed scenario's are MB's.
# The keys that set the class split: MA's rho is free, MB derives it from
# the switch rates.  The CLI's rate flags take the same keys.
_SPLIT_KEYS = {ModelKind.MA: ("rho",), ModelKind.MB: ("alpha1", "alpha2")}
_REQUIRED_PARAMS = {
    model: ("beta1", "beta2", "lambda", "gamma", "kappa", "N", *keys)
    for model, keys in _SPLIT_KEYS.items()
}
_ALLOWED_PARAMS = {
    ModelKind.MA: _REQUIRED_PARAMS[ModelKind.MA],
    ModelKind.MB: (*_REQUIRED_PARAMS[ModelKind.MB], "transition_normalization"),
}
# ScenarioConfig's fields that the "time" block holds; "mixed" holds MixedSpec's.
_TIME_KEYS = ("t0", "t1", "dt", "record_every")


def _reject_unknown(mapping: Mapping, allowed: Collection, where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(repr(k) for k in unknown)} in {where}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _require_number(mapping: Mapping[str, Any], key: str, where: str) -> float:
    """mapping[key] as a finite float (core._finite); errors name the key path."""
    if key not in mapping:
        raise MissingFieldError(f"missing required key {where}.{key}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return _finite(f"{where}.{key}", value)


def loads_config(text: str, *, allow_beta_gt_one: bool = False) -> ScenarioConfig:
    """Parse a scenario document from JSON text (a str, or UTF-8 bytes).
    ConfigError for text of another type."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ConfigError(f"config text must be a str, got {type(text).__name__}")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise ConfigError(f"not valid JSON: {exc}") from exc
    return _config_from_doc(doc, allow_beta_gt_one=allow_beta_gt_one)


def load_config(path: str, *, allow_beta_gt_one: bool = False) -> ScenarioConfig:
    """Parse a scenario document from a JSON file.  ConfigError for a path
    that is not a str, bytes or os.PathLike (an int would open a file
    descriptor) and for a file that cannot be read as UTF-8 text."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ConfigError(f"cannot read config {path!r}: not a path")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    # The mixed scenario's parameters drive the two-class model after the
    # switch, so they validate under that model (rho derived from alphas),
    # and its trajectory has that model's observables.
    run_model = ModelKind.MB if model_name == "mixed" else model

    raw_params = doc.get("params")
    if not isinstance(raw_params, dict):
        raise ConfigError('"params" must be an object')
    _reject_unknown(
        raw_params, _ALLOWED_PARAMS[run_model], f'"params" for model "{model_name}"'
    )
    for key in _REQUIRED_PARAMS[run_model]:
        _require_number(raw_params, key, "params")
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
        check_times(t0, t1, dt, record_every)
    except RangeError as exc:
        raise RangeError(f"time: {exc}") from exc

    mixed = None
    if model_name == "mixed":
        raw_mixed = doc.get("mixed")
        if not isinstance(raw_mixed, dict):
            raise ConfigError('model "mixed" requires a "mixed" object')
        _reject_unknown(raw_mixed, MixedSpec._fields, '"mixed"')
        mixed = MixedSpec(
            t_switch=_require_number(raw_mixed, "t_switch", "mixed"),
            rho_split=_require_number(raw_mixed, "rho_split", "mixed"),
            split_rule=raw_mixed.get("split_rule", "proportional"),
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
    if mixed is not None:
        _check_mixed(mixed, t0, t1, init_state)

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

    state_type = _layout(model).state
    _reject_unknown(raw, state_type._fields, '"init"')
    state = state_type._make(_require_number(raw, k, "init") for k in state_type._fields)
    for name, x in zip(state_type._fields, state):
        if x < 0:
            raise RangeError(f"init.{name} must be nonnegative")
    total = _layout(model).observables["N"](state)
    if total != params.N:
        raise RangeError(
            f"init compartments must sum to N exactly: got {total!r}, N = {params.N!r}"
        )
    return state


def dump_config(cfg: ScenarioConfig) -> dict[str, Any]:
    """Document form of a config.  Reparsing it reproduces the config.

    The loader is the one test of what may be written: the document is
    read back with allow_beta_gt_one, and RangeError, with the loader's
    message, for a document that the loader refuses or reads back as
    another config.  Before that, RangeError for a field the document
    cannot be built from: a cfg that is not a ScenarioConfig, a model that
    is not a ModelKind, params that are not a Params, an init_state that
    is not the model's state type, a mixed block that is not a MixedSpec
    and outputs that are not a tuple.  Equality cannot see those kinds
    either, since a NamedTuple equals a plain tuple."""
    _check_kind("cfg", cfg, ScenarioConfig)
    layout = _layout(cfg.model)
    single = layout is _SINGLE
    _check_kind("params", cfg.params, Params)
    _check_kind("init_state", cfg.init_state, layout.state)
    if cfg.mixed is not None:
        _check_kind("mixed", cfg.mixed, MixedSpec)
    _check_kind("outputs", cfg.outputs, tuple)
    model_name = "mixed" if single else cfg.model.value
    params = cfg.params.as_dict()
    if model_name in ("mb", "mixed"):
        params.pop("rho", None)  # derived from the alphas, never written
    doc: dict[str, Any] = {
        "model": model_name,
        "params": params,
        "init": cfg.init_rule
        if cfg.init_rule is not None
        else cfg.init_state._asdict(),
        "time": {key: getattr(cfg, key) for key in _TIME_KEYS},
    }
    if cfg.mixed is not None:
        doc["mixed"] = cfg.mixed._asdict()
    if cfg.outputs:
        doc["outputs"] = list(cfg.outputs)
    try:
        back = _config_from_doc(doc, allow_beta_gt_one=True)
    except (ConfigError, ValidationError) as exc:
        raise RangeError(str(exc)) from exc
    if back != cfg:
        differ = [name for name, a, b in zip(cfg._fields, cfg, back) if a != b]
        raise RangeError(
            f"the loader would read the document back with another {', '.join(differ)}"
        )
    return doc


def dumps_config(cfg: ScenarioConfig) -> str:
    """JSON text form of a config.  Raises dump_config's RangeError."""
    doc = dump_config(cfg)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
