"""Shared random parameter samplers for the test suite.

Draws are plain dicts ready for validate_params.  beta2 is drawn as a
fraction of beta1 so the beta1 > beta2 constraint holds by construction,
and alpha2 < alpha1 likewise (keeps MB's resting fraction below 1/2).
"""

from __future__ import annotations

import random

from socsir.core import ModelKind

# The models and normalizations the oracle tests cover: a model and the
# fields that override its draws.
MODEL_CASES = {
    "MA": (ModelKind.MA, {}),
    "SINGLE": (ModelKind.SINGLE, {"rho": 1.0}),
    "MB-asymmetric": (ModelKind.MB, {}),
    "MB-uniform": (ModelKind.MB, {"transition_normalization": "uniform"}),
}


def draw_raw_params(rng: random.Random, model: ModelKind) -> dict[str, float]:
    raw = {
        "beta1": rng.uniform(0.01, 1.0),
        "lambda": rng.uniform(0.05, 1.0),
        "gamma": rng.uniform(0.0, 0.5),
        "kappa": rng.uniform(0.01, 1.0),
        "N": rng.uniform(50.0, 1e6),
    }
    raw["beta2"] = raw["beta1"] * rng.uniform(0.02, 0.98)
    if model is ModelKind.MB:
        raw["alpha1"] = rng.uniform(1e-4, 0.5)
        raw["alpha2"] = raw["alpha1"] * rng.uniform(0.05, 0.9)
    else:
        raw["rho"] = rng.uniform(0.05, 0.95)
    return raw
