"""Two-class SIR models of behavior-dependent infection rates.

A population splits into a cautious and an incautious class with
different infection rates.  Two variants are covered: fixed class
membership, and behavioral switching at asymmetric rates.  The package
simulates both, computes the basic reproduction number through the
next-generation matrix, classifies the feasible parameter region where
the epidemic dies out, ranks parameter sensitivities of R0, and runs the
composite scenario where a single population splits in two mid-epidemic.

``import socsir`` loads no submodule.  Every public name is imported from
its module on first use (PEP 562) and then stored here, so later lookups
cost what a plain attribute does.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, grouped by the module that defines them, in the order
# of __all__.
_PUBLIC = {
    "core": ("ModelKind", "Params", "StateMA", "StateMB", "validate_params",
             "total_population", "exact_complement", "with_rho_one"),
    "dynamics": ("rhs_ma", "rhs_mb"),
    "integrator": ("simulate", "step_rk4", "Trajectory", "SwitchRecord",
                   "Observable", "observables_for", "peak_of"),
    "reproduction": ("r0", "b_rho", "rho_from_alphas", "dfe_of", "ngm",
                     "NgmResult", "stability", "StabilityReport", "StabilityVerdict"),
    "feasibility": ("SetType", "FeasibleSetReport", "BifurcationScan",
                    "rho_feasible", "classify_feasible_set", "bifurcation_scan",
                    "threshold_P", "threshold_B1", "threshold_B2"),
    "sensitivity": ("SensitivityIndices", "OrderingCase", "sensitivity_indices",
                    "ordering_case", "finite_diff_check"),
    "scenarios": ("ScenarioConfig", "MixedSpec", "RunResult", "RunSummary",
                  "INIT_RULE_DFE_PLUS_ONE", "resolve_init", "run_scenario",
                  "run_mixed", "MitigationPreset", "covid_mitigation_presets",
                  "preset_params", "participation_scan",
                  "ParticipationScanResult"),
    "config": ("load_config", "loads_config", "dump_config", "dumps_config"),
    "output": ("write_csv", "render_svg"),
    "errors": ("ValidationError", "OrderError", "RangeError", "MissingFieldError",
               "EmptyTrajectoryError", "NumericError", "NonFiniteError",
               "NegativeStateError", "SingularMatrixError", "ConfigError"),
}

__all__ = ["__version__", *(name for names in _PUBLIC.values() for name in names)]

_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _PUBLIC:
            # A submodule; importing it binds it in this package.
            return import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
