"""Value semantics of the public result and parameter types.

Each type is an immutable value: assigning or deleting a field raises
AttributeError, two independently built equal values compare == and hash
equal, the repr names every field, and a pickle round trip gives an equal
value.  All but Trajectory are NamedTuples; Trajectory is a slotted class
whose len() is its record count.
"""

from __future__ import annotations

import pathlib
import pickle

import pytest

import socsir
from socsir import (
    MitigationPreset,
    ModelKind,
    Trajectory,
    bifurcation_scan,
    classify_feasible_set,
    covid_mitigation_presets,
    loads_config,
    ngm,
    observables_for,
    ordering_case,
    participation_scan,
    run_mixed,
    run_scenario,
    sensitivity_indices,
    stability,
    validate_params,
)

DATA = pathlib.Path(__file__).parent / "data"

MA_RAW = {"beta1": 0.0042, "beta2": 0.0009, "lambda": 0.65, "gamma": 0.005,
          "kappa": 0.00006, "rho": 0.75, "N": 100.0}


def _build() -> dict[str, object]:
    """One value of each type, built afresh by the public API."""
    cfg = loads_config((DATA / "mixed_switch.json").read_text())
    cfg = cfg._replace(t1=1100.0)
    p = validate_params(MA_RAW, ModelKind.MA)
    run = run_mixed(cfg)
    masks = covid_mitigation_presets()[0]
    return {
        "Params": p,
        "Observable": observables_for(ModelKind.MA)["N"],
        "SwitchRecord": run.trajectory.switch_record,
        "Trajectory": run.trajectory,
        "NgmResult": ngm(ModelKind.MA, p),
        "StabilityReport": stability(ModelKind.MA, p),
        "FeasibleSetReport": classify_feasible_set(0.3, 0.5),
        "BifurcationScan": bifurcation_scan(ModelKind.MA, 0.3, (0.2, 0.4)),
        "SensitivityIndices": sensitivity_indices(ModelKind.MA, p),
        "OrderingCase": ordering_case(ModelKind.MA, p),
        "MixedSpec": cfg.mixed,
        "ScenarioConfig": cfg,
        "RunSummary": run.summary,
        "RunResult": run,
        "MitigationPreset": MitigationPreset(masks.name, masks.beta1, masks.beta2),
        "ParticipationScanResult": participation_scan(masks, 80.0, (0.3, 0.6), t1=40.0),
    }


NAMES = [  # sorted
    "BifurcationScan", "FeasibleSetReport", "MitigationPreset", "MixedSpec",
    "NgmResult", "Observable", "OrderingCase", "Params",
    "ParticipationScanResult", "RunResult", "RunSummary", "ScenarioConfig",
    "SensitivityIndices", "StabilityReport", "SwitchRecord", "Trajectory",
]


@pytest.fixture(scope="module")
def pairs():
    first, second = _build(), _build()
    return {name: (first[name], second[name]) for name in first}


def _fields(value) -> tuple[str, ...]:
    cls = type(value)
    return cls.__match_args__ if cls is Trajectory else cls._fields


def test_all_sixteen_types_are_public(pairs):
    assert sorted(pairs) == NAMES and len(NAMES) == 16
    for name in NAMES:
        assert name in socsir.__all__


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(pairs, name):
    value, _ = pairs[name]
    assert type(value).__name__ == name
    for field in _fields(value):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_compare_and_hash_equal(pairs, name):
    a, b = pairs[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_the_fields(pairs, name):
    value, _ = pairs[name]
    text = repr(value)
    assert text.startswith(f"{name}(")
    fields = _fields(value)
    for field in fields:
        assert f"{field}={getattr(value, field)!r}" in text
    # in declaration order
    positions = [text.index(f"{field}=") for field in fields]
    assert positions == sorted(positions)


def test_named_tuples_are_tuples(pairs):
    p, _ = pairs["Params"]
    assert p == tuple(p) and p[0] == p.beta1 == MA_RAW["beta1"]
    assert p._replace(rho=0.5).rho == 0.5 and p.rho == 0.75


def test_trajectory_len_and_equality(pairs):
    traj, other = pairs["Trajectory"]
    assert len(traj) == len(traj.times) == len(traj.states) > len(_fields(traj))
    assert traj != tuple(getattr(traj, f) for f in _fields(traj))
    assert Trajectory(*(getattr(traj, f) for f in _fields(traj))) == other
    assert traj != Trajectory(**{f: getattr(traj, f) for f in _fields(traj)}
                              | {"dt": traj.dt * 2})
    cfg = loads_config((DATA / "mixed_switch.json").read_text())
    assert run_scenario(cfg) == run_mixed(cfg)
