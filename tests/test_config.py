"""Scenario documents: strict parsing, helpful paths, round-trip identity."""

from __future__ import annotations

import json
import pathlib

import pytest

from socsir.config import dump_config, dumps_config, load_config, loads_config
from socsir.core import ModelKind, StateMA, StateMB
from socsir.errors import ConfigError, MissingFieldError, RangeError

DATA = pathlib.Path(__file__).parent / "data"

MA_DOC = json.loads((DATA / "ma_basic.json").read_text())


def _doc(**changes):
    doc = json.loads(json.dumps(MA_DOC))  # deep copy
    doc.update(changes)
    return doc


def test_load_ma_basic():
    cfg = load_config(str(DATA / "ma_basic.json"))
    assert cfg.model is ModelKind.MA
    assert cfg.params.kappa == 0.00006
    assert cfg.init_state == StateMA(S1=74.25, S2=24.75, Is=1.0, Ia=0.0, R=0.0)
    assert cfg.init_rule == "dfe_plus_one_symptomatic"
    assert (cfg.t0, cfg.t1, cfg.dt, cfg.record_every) == (0.0, 2000.0, 2.0, 1)
    assert cfg.outputs == ("I", "Is", "R")
    assert cfg.mixed is None


def test_load_mb_explicit_init():
    cfg = load_config(str(DATA / "mb_switching.json"))
    assert cfg.model is ModelKind.MB
    assert isinstance(cfg.init_state, StateMB)
    assert cfg.init_rule is None
    assert cfg.record_every == 5
    assert cfg.t0 == 0.0  # defaulted


def test_load_mixed():
    cfg = load_config(str(DATA / "mixed_switch.json"))
    assert cfg.model is ModelKind.SINGLE
    assert cfg.mixed is not None
    assert cfg.mixed.t_switch == 1000.0
    assert cfg.mixed.split_rule == "proportional"
    # single-class opening: the rule puts everyone in class 1
    assert cfg.init_state == StateMA(S1=99.0, S2=0.0, Is=1.0, Ia=0.0, R=0.0)
    # params validate under the two-class model: rho is derived
    assert cfg.params.rho == pytest.approx(0.0001 / 0.0011, rel=1e-15)


def test_round_trip_identity():
    for name in ("ma_basic.json", "mb_switching.json", "mixed_switch.json"):
        cfg = load_config(str(DATA / name))
        text = dumps_config(cfg)
        again = loads_config(text)
        assert again == cfg
        # serialization is a fixpoint: dump(load(dump(x))) == dump(x)
        assert dumps_config(again) == text


def test_dump_omits_derived_rho():
    cfg = load_config(str(DATA / "mb_switching.json"))
    doc = dump_config(cfg)
    assert "rho" not in doc["params"]
    assert doc["model"] == "mb"


def test_dump_keeps_explicit_init_exact():
    cfg = load_config(str(DATA / "mb_switching.json"))
    doc = dump_config(cfg)
    assert doc["init"] == {
        "S1": 74.25,
        "S2": 24.75,
        "A1": 0.0,
        "A2": 0.0,
        "Is": 1.0,
        "R": 0.0,
    }


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config(str(DATA / "does_not_exist.json"))


def test_invalid_json_is_config_error():
    with pytest.raises(ConfigError):
        loads_config("{not json")
    with pytest.raises(ConfigError):
        loads_config("[1, 2, 3]")  # wrong root type
    with pytest.raises(ConfigError):
        loads_config('{"time": 1' + "0" * 5000 + "}")  # past the int digit limit
    with pytest.raises(ConfigError):
        loads_config("[" * 100000)  # nested past the recursion limit


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key"):
        loads_config(json.dumps(_doc(notes="hello")))


def test_unknown_model():
    # non-string names must not reach the name lookup (unhashable)
    for model in ("sir", [1], {"a": 1}):
        with pytest.raises(ConfigError, match='"model"'):
            loads_config(json.dumps(_doc(model=model)))


def test_missing_param_reports_path():
    doc = _doc()
    del doc["params"]["kappa"]
    with pytest.raises(MissingFieldError, match=r"params\.kappa"):
        loads_config(json.dumps(doc))


def test_params_key_strictness_per_model():
    doc = _doc()
    doc["params"]["alpha1"] = 0.1  # alpha keys make no sense for fixed classes
    with pytest.raises(ConfigError, match="alpha1"):
        loads_config(json.dumps(doc))

    mb_doc = json.loads((DATA / "mb_switching.json").read_text())
    mb_doc["params"]["rho"] = 0.5  # rho is derived for the switching model
    with pytest.raises(ConfigError, match="rho"):
        loads_config(json.dumps(mb_doc))


def test_time_validation():
    with pytest.raises(MissingFieldError, match=r"time\.t1"):
        loads_config(json.dumps(_doc(time={"t0": 0.0})))
    with pytest.raises(RangeError):
        loads_config(json.dumps(_doc(time={"t0": 10.0, "t1": 5.0})))
    with pytest.raises(RangeError):
        loads_config(json.dumps(_doc(time={"t1": 10.0, "dt": 0.0})))
    with pytest.raises(RangeError):
        loads_config(json.dumps(_doc(time={"t1": 10.0, "record_every": 0})))
    with pytest.raises(ConfigError):
        loads_config(json.dumps(_doc(time={"t1": 10.0, "record_every": True})))
    with pytest.raises(ConfigError):
        loads_config(json.dumps(_doc(time={"t1": 10.0, "cadence": 3})))


@pytest.mark.parametrize("key", ["t0", "dt"])
@pytest.mark.parametrize("value", ["abc", [1], None, "5", True])
def test_time_values_must_be_numbers(key, value):
    time_block = {"t1": 10.0, key: value}
    with pytest.raises(ConfigError, match=f"time\\.{key}"):
        loads_config(json.dumps(_doc(time=time_block)))


def test_init_validation():
    with pytest.raises(MissingFieldError, match="init"):
        doc = _doc()
        del doc["init"]
        loads_config(json.dumps(doc))
    with pytest.raises(ConfigError):
        loads_config(json.dumps(_doc(init="patient_zero")))
    # explicit init must cover every compartment and sum to N
    bad = _doc(init={"S1": 74.25, "S2": 24.75, "Is": 1.0, "Ia": 0.0})
    with pytest.raises(MissingFieldError, match=r"init\.R"):
        loads_config(json.dumps(bad))
    off = _doc(init={"S1": 74.0, "S2": 24.75, "Is": 1.0, "Ia": 0.0, "R": 0.0})
    with pytest.raises(RangeError, match="sum to N"):
        loads_config(json.dumps(off))
    neg = _doc(init={"S1": 75.25, "S2": 24.75, "Is": 1.0, "Ia": -1.0, "R": 0.0})
    with pytest.raises(RangeError, match="nonnegative"):
        loads_config(json.dumps(neg))


def test_mixed_block_rules():
    doc = json.loads((DATA / "mixed_switch.json").read_text())
    del doc["mixed"]
    with pytest.raises(ConfigError, match="mixed"):
        loads_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="mixed"):
        loads_config(json.dumps(_doc(mixed={"t_switch": 1.0, "rho_split": 0.5})))


def test_outputs_validation():
    with pytest.raises(ConfigError, match="observable"):
        loads_config(json.dumps(_doc(outputs=["I", "A1"])))  # A1 is two-class only
    with pytest.raises(ConfigError):
        loads_config(json.dumps(_doc(outputs="I")))


def test_beta_gt_one_gate_passes_through():
    doc = _doc()
    doc["params"]["beta1"] = 1.2
    with pytest.raises(RangeError):
        loads_config(json.dumps(doc))
    cfg = loads_config(json.dumps(doc), allow_beta_gt_one=True)
    assert cfg.params.beta1 == 1.2
