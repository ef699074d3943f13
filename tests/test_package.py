"""The package's public surface and how it loads.

``import socsir`` loads no submodule; every public name is imported from
its module on first use and then stored in the package.
The checks that depend on what has been imported so far run in a fresh
interpreter, since the test session has imported every module already.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import socsir

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# The public names by defining module, in the order of __all__, which
# starts with __version__.  A change here is a change to the public contract.
PUBLIC = {
    "core": ["ModelKind", "Params", "StateMA", "StateMB", "validate_params",
             "total_population", "exact_complement", "with_rho_one"],
    "dynamics": ["rhs_ma", "rhs_mb"],
    "integrator": ["simulate", "step_rk4", "Trajectory", "SwitchRecord",
                   "Observable", "observables_for", "peak_of"],
    "reproduction": ["r0", "b_rho", "rho_from_alphas", "dfe_of", "ngm",
                     "NgmResult", "stability", "StabilityReport", "StabilityVerdict"],
    "feasibility": ["SetType", "FeasibleSetReport", "BifurcationScan",
                    "rho_feasible", "classify_feasible_set", "bifurcation_scan",
                    "threshold_P", "threshold_B1", "threshold_B2"],
    "sensitivity": ["SensitivityIndices", "OrderingCase", "sensitivity_indices",
                    "ordering_case", "finite_diff_check"],
    "scenarios": ["ScenarioConfig", "MixedSpec", "RunResult", "RunSummary",
                  "INIT_RULE_DFE_PLUS_ONE", "resolve_init", "run_scenario",
                  "run_mixed", "MitigationPreset", "covid_mitigation_presets",
                  "preset_params", "participation_scan",
                  "ParticipationScanResult"],
    "config": ["load_config", "loads_config", "dump_config", "dumps_config"],
    "output": ["write_csv", "render_svg"],
    "errors": ["ValidationError", "OrderError", "RangeError", "MissingFieldError",
               "EmptyTrajectoryError", "NumericError", "NonFiniteError",
               "NegativeStateError", "SingularMatrixError", "ConfigError"],
}
ALL = ["__version__", *(name for names in PUBLIC.values() for name in names)]


def _fresh(code: str):
    """Run code in a new interpreter importing socsir from src; its JSON output."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_all_is_the_frozen_public_surface():
    assert len(ALL) == 70
    assert socsir.__all__ == ALL


@pytest.mark.parametrize("module", list(PUBLIC))
def test_each_name_is_the_object_its_module_defines(module):
    defining = importlib.import_module(f"socsir.{module}")
    for name in PUBLIC[module]:
        value = getattr(socsir, name)
        assert value is getattr(defining, name)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == defining.__name__
        assert vars(socsir)[name] is value


@pytest.mark.parametrize("module", list(PUBLIC))
def test_each_module_all_lists_its_public_names(module):
    # socsir._PUBLIC is the one declaration; the modules keep no __all__
    assert socsir._PUBLIC[module] == tuple(PUBLIC[module])


def test_import_loads_no_submodule():
    loaded = _fresh(
        "import json, sys, socsir; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'socsir' or m.startswith('socsir.'))))"
    )
    assert loaded == ["socsir"]


def test_names_are_stored_on_first_use():
    before, missing_after = _fresh(
        "import json, socsir\n"
        "before = sorted(n for n in socsir.__all__ if n in vars(socsir))\n"
        "for n in socsir.__all__:\n"
        "    getattr(socsir, n)\n"
        "print(json.dumps([before, [n for n in socsir.__all__ "
        "if n not in vars(socsir)]]))"
    )
    assert before == ["__version__"]
    assert missing_after == []


def test_star_import_and_dir_list_every_name():
    star, listed = _fresh(
        "import json, socsir\n"
        "listed = [n for n in socsir.__all__ if n in dir(socsir)]\n"
        "ns = {}\n"
        "exec('from socsir import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), listed]))"
    )
    assert star == sorted(ALL)
    assert listed == ALL


def test_no_submodule_is_named_like_a_public_name():
    # importing a submodule binds its name in the package, over a public one
    assert not set(socsir._PUBLIC) & set(ALL)


def test_submodule_resolves_before_its_names_are_used():
    loaded, same, stored = _fresh(
        "import json, sys, socsir\n"
        "loaded = 'socsir.scenarios' in sys.modules\n"
        "module = socsir.scenarios\n"
        "print(json.dumps([loaded, module is sys.modules['socsir.scenarios'], "
        "'run_scenario' in vars(socsir)]))"
    )
    assert (loaded, same, stored) == (False, True, False)


@pytest.mark.parametrize("name", ["no_such_name", "cli_main", "__wrapped__"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(socsir, name)
    assert not hasattr(socsir, name)
