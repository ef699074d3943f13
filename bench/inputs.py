"""Seeded inputs of the three workloads.

Every input comes from ``random.Random`` seeded with the workload name and
the ``--seed`` value, so one seed always gives the same inputs and the
program under test receives nothing else.  Nothing here imports socsir.
"""

from __future__ import annotations

import random

# The CLI's participation grid: ``--steps 99`` gives the fractions i/100.
SCAN_GRID = tuple(i / 100 for i in range(1, 100))
SCAN_PRESETS = ("masks", "common_areas", "distancing")
# The three presets peak between about 63 and 88 (N = 100) on this grid,
# so capacities in this range give both found and not-found minima.
SCAN_CAPACITY = (60.0, 90.0)

# Distinct configs of one ``cli`` run.  Slot i runs model CLI_MODELS[i % 3]
# with record_every CLI_RECORD_EVERY[(i // 3) % 2], and t1 is drawn inside
# the i-th of CLI_CONFIGS equal strata of CLI_T1.  The op-cost distribution
# is therefore the same for every seed; the seed moves the exact values.
CLI_CONFIGS = 24
CLI_MODELS = ("ma", "mb", "mixed")
CLI_RECORD_EVERY = (1, 5)
CLI_DT = 2.0
CLI_T1 = (2000.0, 40000.0)  # 1k to 20k steps at dt = 2
# Rates of tests/data/{ma_basic,mb_switching,mixed_switch}.json; each config
# scales every rate by its own factor in [1 - CLI_JITTER, 1 + CLI_JITTER].
CLI_BASE = {
    "ma": {"beta1": 0.0042, "beta2": 0.0009, "lambda": 0.65, "gamma": 0.005,
           "kappa": 0.00006, "rho": 0.75},
    "mb": {"beta1": 0.0042, "beta2": 0.0009, "lambda": 0.65, "gamma": 0.0005,
           "kappa": 0.0002, "alpha1": 0.1, "alpha2": 0.01},
    "mixed": {"beta1": 0.0011, "beta2": 0.0001, "lambda": 0.65, "gamma": 0.0001,
              "kappa": 0.0002, "alpha1": 0.001, "alpha2": 0.0001},
}
CLI_JITTER = 0.1
CLI_N = 100.0
CLI_OUTPUTS = {"ma": ["I", "Is", "R"], "mb": ["I", "Is", "R"], "mixed": ["I", "R"]}
# mixed_switch.json switches at t1/4 with rho_split 0.25.
CLI_SWITCH_SHARE = (0.2, 0.4)
CLI_RHO_SPLIT = (0.2, 0.3)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def draw_raw_params(rng: random.Random, mb: bool) -> dict[str, float]:
    """Copy of ``tests/_samplers.draw_raw_params`` (``mb`` picks ModelKind.MB).

    The self-test checks that both give identical draws.
    """
    raw = {
        "beta1": rng.uniform(0.01, 1.0),
        "lambda": rng.uniform(0.05, 1.0),
        "gamma": rng.uniform(0.0, 0.5),
        "kappa": rng.uniform(0.01, 1.0),
        "N": rng.uniform(50.0, 1e6),
    }
    raw["beta2"] = raw["beta1"] * rng.uniform(0.02, 0.98)
    if mb:
        raw["alpha1"] = rng.uniform(1e-4, 0.5)
        raw["alpha2"] = raw["alpha1"] * rng.uniform(0.05, 0.9)
    else:
        raw["rho"] = rng.uniform(0.05, 0.95)
    return raw


def scan_inputs(seed: int, n_ops: int) -> tuple[float, list[str]]:
    """Capacity and the preset name of each op (a seeded order, cycled)."""
    rng = rng_for("scan", seed)
    order = list(SCAN_PRESETS)
    rng.shuffle(order)
    capacity = rng.uniform(*SCAN_CAPACITY)
    return capacity, [order[i % len(order)] for i in range(n_ops)]


def sweep_inputs(seed: int, n_ops: int) -> list[tuple[dict, dict]]:
    """One (MA draw, MB draw) pair per op."""
    rng = rng_for("sweep", seed)
    return [
        (draw_raw_params(rng, False), draw_raw_params(rng, True))
        for _ in range(n_ops)
    ]


def cli_configs(seed: int) -> list[dict]:
    """CLI_CONFIGS scenario documents in the format of tests/data/*.json."""
    rng = rng_for("cli", seed)
    lo, hi = CLI_T1
    docs = []
    for i in range(CLI_CONFIGS):
        model = CLI_MODELS[i % len(CLI_MODELS)]
        params = {
            key: value * rng.uniform(1 - CLI_JITTER, 1 + CLI_JITTER)
            for key, value in CLI_BASE[model].items()
        }
        params["N"] = CLI_N
        t1 = lo + (i + rng.random()) / CLI_CONFIGS * (hi - lo)
        doc = {
            "model": model,
            "params": params,
            "init": "dfe_plus_one_symptomatic",
            "time": {
                "t0": 0.0,
                "t1": t1,
                "dt": CLI_DT,
                "record_every": CLI_RECORD_EVERY[(i // len(CLI_MODELS)) % 2],
            },
            "outputs": CLI_OUTPUTS[model],
        }
        if model == "mixed":
            doc["mixed"] = {
                "t_switch": t1 * rng.uniform(*CLI_SWITCH_SHARE),
                "rho_split": rng.uniform(*CLI_RHO_SPLIT),
            }
        docs.append(doc)
    return docs


def cli_order(seed: int, repeats: int) -> list[int]:
    """Config index of each op: every config ``repeats`` times, shuffled."""
    rng = rng_for("cli-order", seed)
    order = [i for i in range(CLI_CONFIGS) for _ in range(repeats)]
    rng.shuffle(order)
    return order
