"""Golden digests of socsir's output bits, pinned in tests/data/golden.json.

Each part is one sha256 hex digest:

* ``cli/<config>/stdout|csv|svg``: what ``cli.main`` writes for
  ``simulate`` (``mixed`` for the mixed config) with ``--csv`` and
  ``--svg`` on each scenario document in tests/data, and on an MB
  document run under ``"transition_normalization": "uniform"``;
* ``cli/ma_dt20/stdout|stderr|exit``: a ``simulate`` whose step fails,
  an MA run at dt 20 that exits 3;
* ``cli/<case>/stdout|stderr|exit`` for five documents the CLI refuses:
  a ``mixed`` document with ``rho_split`` 5.0 (exit 2), an MA document
  with an ``alpha1`` key (exit 4), one without ``time.t1`` (exit 2), one
  with a NaN ``params.beta1`` (exit 2) and one with ``time.record_every``
  1.5 (exit 4);
* ``cli/<case>/stdout|stderr|exit`` for command lines the CLI refuses: an
  ``r0`` of model ``ma`` with MB's ``--alpha1`` flag (exit 2);
* ``run/<config>/hex``: the ``float.hex`` of every time and component
  that ``run_scenario`` records for each document that runs to the end,
  since the 9-digit CSV and SVG cannot see a change in the last bits;
* ``ngm/mb_uniform/hex``: the ``float.hex`` of every matrix and eigenvalue
  of ``ngm`` on a few MB parameter sets under ``"uniform"``;
* ``scan/<preset>`` and ``scan/<preset>/serial``: the ``float.hex`` of
  every ``participation_scan`` peak of a mitigation preset on a coarse
  grid, forked as the public call runs on a multi-CPU host, and in this
  process alone;
* ``field/<case>/hex``: the ``float.hex`` of ``vector_field`` on seeded
  sampler parameters and states, for MA, SINGLE and MB under both
  transition normalizations;
* ``kernel/<case>/hex``: the records of seeded short ``integrate`` runs
  of the same cases as ``float.hex``, or the error a run ends in (class,
  message, time, compartment and step); a fifth of the runs take a dt
  large enough to fail often.

Standard library only, so any interpreter can run it:

    python tests/golden.py    # prints the digests as golden.json holds them

A change that alters output bits on purpose re-pins the file with that
command and names the changed parts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import random
import sys
import tempfile

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden.json"

# The scenario documents and the subcommand that runs each.
CLI_RUNS = (
    ("ma_basic", "simulate"),
    ("mb_switching", "simulate"),
    ("mixed_switch", "mixed"),
)
# The MA reference set at dt 20: the second step drives Is far negative.
MA_DT20 = {
    "model": "ma",
    "params": {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
               "kappa": 0.05, "rho": 0.75, "N": 100.0},
    "init": "dfe_plus_one_symptomatic",
    "time": {"t1": 400.0, "dt": 20.0},
}
# MB parameter sets for ngm under "uniform": the MB reference set, the
# rates of mb_switching.json, and a larger population with gamma = 0.
NGM_UNIFORM = tuple(
    dict(raw, transition_normalization="uniform")
    for raw in (
        {"beta1": 0.42, "beta2": 0.09, "lambda": 0.65, "gamma": 0.02,
         "kappa": 0.05, "alpha1": 0.3, "alpha2": 0.1, "N": 100.0},
        {"beta1": 0.0042, "beta2": 0.0009, "lambda": 0.65, "gamma": 0.0005,
         "kappa": 0.0002, "alpha1": 0.1, "alpha2": 0.01, "N": 100.0},
        {"beta1": 0.9, "beta2": 0.3, "lambda": 1.0, "gamma": 0.0,
         "kappa": 0.2, "alpha1": 0.05, "alpha2": 0.04, "N": 1e4},
    )
)
# The refused documents: a name, the subcommand, the scenario document in
# tests/data it edits, and the edit.
REFUSED = (
    ("mixed_rho_split_5", "mixed", "mixed_switch",
     lambda doc: doc["mixed"].update(rho_split=5.0)),
    ("ma_alpha1", "simulate", "ma_basic",
     lambda doc: doc["params"].update(alpha1=0.01)),
    ("ma_no_t1", "simulate", "ma_basic", lambda doc: doc["time"].pop("t1")),
    ("ma_beta1_nan", "simulate", "ma_basic",
     lambda doc: doc["params"].update(beta1=math.nan)),
    ("ma_record_every_1_5", "simulate", "ma_basic",
     lambda doc: doc["time"].update(record_every=1.5)),
)
# The refused command lines: a name and the arguments.
FLAG_ERRORS = (
    ("r0_ma_alpha1", ["r0", "--model", "ma", "--beta1", "0.42", "--beta2", "0.09",
                      "--kappa", "0.05", "--rho", "0.5", "--alpha1", "0.1"]),
)
SCAN_GRID = tuple(i / 10 for i in range(1, 10))
SCAN_CAPACITY = 10.0
# The field and kernel cases: a model name and the parameters that override
# a sampler draw.
BIT_CASES = {
    "MA": ("MA", {}),
    "SINGLE": ("SINGLE", {"rho": 1.0}),
    "MB-asymmetric": ("MB", {}),
    "MB-uniform": ("MB", {"transition_normalization": "uniform"}),
}
FIELD_DRAWS = 200
KERNEL_RUNS = 100


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr."""
    from socsir import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _hex(values) -> str:
    """float.hex of each float in values, nested tuples flattened."""
    return " ".join(
        _hex(v) if isinstance(v, tuple) else float.hex(v) for v in values
    )


def _field_hex(rng: random.Random, model, extra: dict) -> str:
    """vector_field on FIELD_DRAWS sampler draws, each at a state whose
    components lie in [0, N], a fifth of them 0."""
    from socsir.core import _layout, validate_params
    from socsir.dynamics import vector_field
    from tests._samplers import draw_raw_params

    size = len(_layout(model).state._fields)
    out = []
    for _ in range(FIELD_DRAWS):
        p = validate_params(dict(draw_raw_params(rng, model), **extra), model)
        s = [0.0 if rng.random() < 0.2 else rng.uniform(0.0, p.N) for _ in range(size)]
        out.append(_hex(vector_field(model, p)(*s)))
    return "\n".join(out)


def _kernel_hex(rng: random.Random, model, extra: dict) -> str:
    """KERNEL_RUNS short integrate runs from the DFE+1 state, each ending in a
    partial step, at record_every 1 or 3."""
    from socsir import NumericError, resolve_init, validate_params
    from socsir.integrator import integrate
    from tests._samplers import draw_raw_params

    out = []
    for _ in range(KERNEL_RUNS):
        p = validate_params(dict(draw_raw_params(rng, model), **extra), model)
        init = resolve_init(model, p, "dfe_plus_one_symptomatic")
        dt = rng.uniform(0.1, 2.0) if rng.random() < 0.8 else rng.uniform(2.0, 60.0)
        t1 = dt * (rng.randint(3, 12) + rng.random())
        run = integrate(model, p, init, 0.0, t1, dt, rng.choice((1, 3)))
        try:
            for t, s in run:
                out.append(_hex((t, tuple(s))))
        except NumericError as exc:
            out.append(repr((type(exc).__name__, str(exc), exc.time,
                             exc.compartment, exc.step)))
        out.append("")
    return "\n".join(out)


def _doc(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))


def _uniform_doc() -> dict:
    doc = _doc("mb_switching")
    doc["params"]["transition_normalization"] = "uniform"
    return doc


def digests() -> dict[str, str]:
    """Every part's digest, keyed by part name."""
    from socsir import (
        ModelKind,
        covid_mitigation_presets,
        load_config,
        ngm,
        participation_scan,
        run_scenario,
        scenarios,
        validate_params,
    )

    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(name, command, DATA / f"{name}.json") for name, command in CLI_RUNS]
        written = [("mb_uniform", "simulate", _uniform_doc()),
                   ("ma_dt20", "simulate", MA_DT20)]
        for name, command, source, edit in REFUSED:
            doc = _doc(source)
            edit(doc)
            written.append((name, command, doc))
        for name, command, doc in written:
            path = pathlib.Path(tmp, f"{name}.json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            runs.append((name, command, path))
        for name, command, path in runs:
            csv, svg = pathlib.Path(tmp, "run.csv"), pathlib.Path(tmp, "run.svg")
            code, stdout, stderr = _main(
                [command, "--config", str(path), "--csv", str(csv), "--svg", str(svg)]
            )
            out[f"cli/{name}/stdout"] = _sha(stdout.encode())
            if code != 0:
                out[f"cli/{name}/stderr"] = _sha(stderr.encode())
                out[f"cli/{name}/exit"] = _sha(str(code).encode())
                continue
            out[f"cli/{name}/csv"] = _sha(csv.read_bytes())
            out[f"cli/{name}/svg"] = _sha(svg.read_bytes())
            csv.unlink()
            svg.unlink()
            traj = run_scenario(load_config(str(path))).trajectory
            out[f"run/{name}/hex"] = _sha(_hex((traj.times, traj.states)).encode())
    for name, argv in FLAG_ERRORS:
        code, stdout, stderr = _main(argv)
        out[f"cli/{name}/stdout"] = _sha(stdout.encode())
        out[f"cli/{name}/stderr"] = _sha(stderr.encode())
        out[f"cli/{name}/exit"] = _sha(str(code).encode())
    # Every field of each NgmResult but the int dimension.
    results = tuple(
        ngm(ModelKind.MB, validate_params(raw, ModelKind.MB))[:5] for raw in NGM_UNIFORM
    )
    out["ngm/mb_uniform/hex"] = _sha(_hex(results).encode())
    usable_cpus = scenarios._usable_cpus
    for preset in covid_mitigation_presets():
        for suffix, cpus in (("", usable_cpus), ("/serial", lambda: 1)):
            scenarios._usable_cpus = cpus
            try:
                result = participation_scan(preset, SCAN_CAPACITY, SCAN_GRID)
            finally:
                scenarios._usable_cpus = usable_cpus
            peaks = " ".join(map(float.hex, result.peak_I))
            out[f"scan/{preset.name}{suffix}"] = _sha(peaks.encode())
    for seed, (case, (name, extra)) in enumerate(BIT_CASES.items()):
        model = ModelKind[name]
        fields = _field_hex(random.Random(seed), model, extra)
        runs = _kernel_hex(random.Random(100 + seed), model, extra)
        out[f"field/{case}/hex"] = _sha(fields.encode())
        out[f"kernel/{case}/hex"] = _sha(runs.encode())
    return out


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.stdout.write(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
