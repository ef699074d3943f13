"""Scenario documents: strict parsing, helpful paths, round-trip identity."""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from socsir.cli import main
from socsir.config import dump_config, dumps_config, load_config, loads_config
from socsir.core import ModelKind, StateMA, StateMB, validate_params
from socsir.errors import ConfigError, MissingFieldError, OrderError, RangeError

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
    uniform = json.loads((DATA / "mb_switching.json").read_text())
    uniform["params"]["transition_normalization"] = "uniform"
    configs = [
        load_config(str(DATA / name))
        for name in ("ma_basic.json", "mb_switching.json", "mixed_switch.json")
    ]
    configs.append(loads_config(json.dumps(uniform)))
    for cfg in configs:
        text = dumps_config(cfg)
        again = loads_config(text)
        assert again == cfg
        # serialization is a fixpoint: dump(load(dump(x))) == dump(x)
        assert dumps_config(again) == text


@pytest.mark.parametrize("norm", ["asymmetric", "uniform"])
@pytest.mark.parametrize("name", ["ma_basic.json", "mb_switching.json"])
def test_every_normalization_that_validates_round_trips(name, norm):
    # "uniform" validated for MA, and dumps_config wrote a document under
    # "model": "ma" that loads_config refused as an unknown key
    cfg = load_config(str(DATA / name))
    raw = dict(cfg.params.as_dict(), transition_normalization=norm)
    try:
        params = validate_params(raw, cfg.model)
    except RangeError:
        assert (cfg.model, norm) == (ModelKind.MA, "uniform")
        return
    cfg = cfg._replace(params=params)
    assert loads_config(dumps_config(cfg)) == cfg


def test_dumps_config_rejects_non_finite_numbers():
    # a config built in code can hold inf; standard JSON has no literal for
    # it, and the loader, reading the document back, refuses it before
    # json.dumps is reached
    cfg = load_config(str(DATA / "ma_basic.json"))
    for bad in (cfg._replace(t1=float("inf")), cfg._replace(dt=float("nan"))):
        with pytest.raises(ValueError, match="must be finite"):
            dumps_config(bad)


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


@pytest.mark.parametrize(
    "call",
    [lambda: loads_config(5), lambda: loads_config(None), lambda: load_config(None),
     lambda: load_config(5.0)],
    ids=["text-int", "text-none", "path-none", "path-float"],
)
def test_config_text_or_path_of_the_wrong_type_is_config_error(call):
    # each raised a raw TypeError; an int path is refused as well, since
    # open() would take it for a file descriptor
    with pytest.raises(ConfigError, match="must be a str|not a path"):
        call()


def test_a_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # the decode error escaped load_config, and the CLI printed a traceback
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"model": "ma\xe9"}')
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(path))
    assert main(["simulate", "--config", str(path)]) == 4
    assert capsys.readouterr().err.startswith("error: cannot read config")


@pytest.mark.parametrize("call", [dump_config, dumps_config])
def test_dump_config_of_a_non_config_raises_range_error(call):
    # a raw AttributeError
    with pytest.raises(RangeError, match="^cfg must be a ScenarioConfig"):
        call(5)


def test_dump_config_refuses_fields_it_cannot_write():
    # a raw AttributeError for the kind checks; a config whose model and
    # mixed block disagree was written as a document the loader refuses, and
    # is now refused with the loader's message
    ma = load_config(str(DATA / "ma_basic.json"))
    mixed = load_config(str(DATA / "mixed_switch.json"))
    for bad, message in (
        (ma._replace(model="ma"), "^model must be a ModelKind"),
        (ma._replace(params=ma.params.as_dict()), "^params must be a Params"),
        (ma._replace(model=ModelKind.SINGLE), "^missing required key params.alpha1"),
        (ma._replace(mixed=mixed.mixed), '^"mixed" block is only allowed'),
        (mixed._replace(model=ModelKind.MB), "^init_state must be a StateMB, got StateMA"),
        (mixed._replace(mixed=tuple(mixed.mixed)), "^mixed must be a MixedSpec"),
    ):
        for call in (dump_config, dumps_config):
            with pytest.raises(RangeError, match=message):
                call(bad)


def test_dump_config_refuses_what_the_loader_refuses():
    # each escaped raw (AttributeError, TypeError, or json's ValueError for
    # a NaN) or was written as a document that the loader refuses or reads
    # back as another config; its messages are the loader's
    ma = load_config(str(DATA / "ma_basic.json"))
    mb = load_config(str(DATA / "mb_switching.json"))
    mixed = load_config(str(DATA / "mixed_switch.json"))
    init = mb.init_state
    for bad, message in (
        (mb._replace(init_state=list(init)), "^init_state must be a StateMB, got list"),
        (mb._replace(init_state=init._replace(S1=math.nan)), r"^init\.S1 must be finite"),
        (mb._replace(init_state=init._replace(S1=-1.0, S2=init.S1 + init.S2 + 1.0)),
         r"^init\.S1 must be nonnegative"),
        (mb._replace(init_state=init._replace(S1=1.0)), "^init compartments must sum"),
        (mb._replace(t1=object()), r"^time\.t1 must be a number"),
        (mb._replace(t0=math.nan), r"^time\.t0 must be finite"),
        (mb._replace(record_every=math.nan), r'^"time\.record_every" must be an integer'),
        (mb._replace(init_rule=math.nan), '^"init" must be a rule name'),
        (ma._replace(init_state=ma.init_state._replace(S1=1.0)),
         "^the loader would read the document back with another init_state$"),
        (mb._replace(outputs=1.5), "^outputs must be a tuple, got float"),
        (mb._replace(outputs=("I", "Q")), r"^unknown observable\(s\) \['Q'\]"),
        (mixed._replace(mixed=mixed.mixed._replace(rho_split=5.0)), "^rho_split must lie"),
        # a Params built by hand: written as it was, or json's ValueError
        (ma._replace(params=ma.params._replace(beta1="x")),
         r"^params\.beta1 must be a number, got 'x'"),
        (ma._replace(params=ma.params._replace(beta1=ma.params.beta2 / 2)),
         "^beta1 must exceed beta2"),
        (ma._replace(params=ma.params._replace(kappa=0)), r"^kappa must lie in \(0, 1\]"),
        (ma._replace(params=ma.params._replace(beta1=math.nan)),
         r"^params\.beta1 must be finite, got nan"),
        (mb._replace(params=mb.params._replace(rho=0.5)),
         "^the loader would read the document back with another params$"),
    ):
        for call in (dump_config, dumps_config):
            with pytest.raises(RangeError, match=message):
                call(bad)


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


@pytest.mark.parametrize(
    "name, key",
    [("ma_basic", "beta1"), ("ma_basic", "rho"), ("mb_switching", "alpha2"),
     ("mixed_switch", "N")],
)
@pytest.mark.parametrize("value", ["x", True, None, [0.5]])
def test_params_values_must_be_numbers(name, key, value, tmp_path):
    # a non-number in "params" was a validation error (exit 2), while one in
    # any other block is a malformed document (exit 4)
    doc = json.loads((DATA / f"{name}.json").read_text())
    doc["params"][key] = value
    with pytest.raises(ConfigError, match=f"^params\\.{key} must be a number"):
        loads_config(json.dumps(doc))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == 4


def test_params_numbers_out_of_range_stay_validation_errors():
    for key, value, error, message in (
        ("kappa", 5.0, RangeError, "kappa must lie in"),
        ("beta1", math.nan, RangeError, r"^params\.beta1 must be finite"),
        ("beta2", 10**400, RangeError, r"^params\.beta2 must be finite"),
        ("beta1", 0.0001, OrderError, "beta1 must exceed beta2"),
    ):
        doc = _doc()
        doc["params"][key] = value
        with pytest.raises(error, match=message):
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


@pytest.mark.parametrize(
    "block, key, literal",
    [
        ("time", "t1", "1e400"),
        ("time", "dt", "1e400"),
        ("time", "t0", "-1e400"),
        ("time", "t1", "NaN"),
        ("mixed", "t_switch", "1e400"),
        ("mixed", "rho_split", "Infinity"),
        ("init", "S1", "1e400"),
    ],
)
def test_non_finite_numbers_are_rejected_at_load(block, key, literal):
    # a JSON number past the float range parses to inf; loading used to
    # accept it and dumps_config then wrote the non-standard "Infinity"
    doc = json.loads((DATA / "mixed_switch.json").read_text())
    if block == "init":
        doc["init"] = {"S1": 99.0, "S2": 0.0, "Is": 1.0, "Ia": 0.0, "R": 0.0}
    doc[block][key] = "PLACEHOLDER"
    text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
    with pytest.raises(RangeError, match=f"{block}\\.{key} must be finite"):
        loads_config(text)


def test_time_window_uses_the_run_definition():
    # the window is checked at load with the same rule, and the same step
    # cap, that every run applies; the message names the "time" block
    with pytest.raises(RangeError, match="^time: .*1000000 steps"):
        loads_config(json.dumps(_doc(time={"t1": 1e9, "dt": 1.0})))
    with pytest.raises(RangeError, match="^time: t1 must exceed t0"):
        loads_config(json.dumps(_doc(time={"t0": 5.0, "t1": 5.0})))
    with pytest.raises(RangeError, match="^time: dt must be positive"):
        loads_config(json.dumps(_doc(time={"t1": 10.0, "dt": -1.0})))
    cfg = loads_config(json.dumps(_doc(time={"t1": 1e6, "dt": 1.0})))
    assert (cfg.t1 - cfg.t0) / cfg.dt == 10**6


def test_mixed_explicit_init_must_start_single_class():
    doc = json.loads((DATA / "mixed_switch.json").read_text())
    doc["init"] = {"S1": 74.25, "S2": 24.75, "Is": 1.0, "Ia": 0.0, "R": 0.0}
    with pytest.raises(RangeError, match=r"init\.S2 = 0"):
        loads_config(json.dumps(doc))
    doc["init"] = {"S1": 99.0, "S2": 0.0, "Is": 1.0, "Ia": 0.0, "R": 0.0}
    assert loads_config(json.dumps(doc)).init_state.S2 == 0.0


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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"rho_split": 5.0}, r"^rho_split must lie in \(0, 1\), got 5\.0$"),
        ({"t_switch": -3.0}, r"^t_switch must lie inside \(0\.0, 4000\.0\), got -3"),
        ({"t_switch": 1e9}, r"^t_switch must lie inside .*got 1000000000\.0$"),
        ({"split_rule": 5}, r"^unknown split rule 5$"),
    ],
    ids=["rho_split-5", "t_switch-negative", "t_switch-1e9", "split_rule-int"],
)
def test_loaded_mixed_block_meets_the_run_rules(change, message):
    # each loaded, and only run_mixed refused it (split_rule 5 as "5")
    doc = json.loads((DATA / "mixed_switch.json").read_text())
    doc["mixed"].update(change)
    with pytest.raises(RangeError, match=message):
        loads_config(json.dumps(doc))


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
    # dump_config reads its document back under the flag, so it writes one
    assert loads_config(dumps_config(cfg), allow_beta_gt_one=True) == cfg
