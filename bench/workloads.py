"""The three workloads: what an op is, how it is checked, and its layers.

Each workload is a closed loop with one caller in one process: op i+1
starts only after op i has finished, and ``cli`` runs at most one
subprocess at a time.  The inputs come from the seed, and the number of
ops is ``--seconds`` over a nominal op cost (SECONDS_PER_OP), so a run is a
fixed amount of work and ``wall_s`` is its time to solution.

The runner calls, per workload object ``w``:

* ``w.setup(sx)`` with a freshly imported ``socsir`` module: make the
  inputs, write the input files and run one warm-up op;
* ``w.op(i, call)`` in the timed region, where ``call(name, fn, *args)``
  either calls ``fn`` directly or records a span around it;
* ``w.check(i, out)`` after each op, outside the timed region: returns
  (failure labels, one per failed item of the op, bytes that go into the
  result digest);
* ``w.verify()`` after the loop: a failure label, by op, for ops of one
  item that a reference computation found wrong;
* ``w.layers(tracer)`` in the traced run only: per-layer metrics as
  ``name -> (value, how it was obtained)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from statistics import median
from time import perf_counter

import inputs
import oracle
from spans import REPLAYED

# Every per-layer metric with its unit; BENCHMARK.json lists the same.
PER_LAYER = (
    ("dynamics.rhs_ma.us", "us"),
    ("dynamics.rhs_mb.us", "us"),
    ("dynamics.rhs_evals", "count"),
    ("integrator.step_rk4.us", "us"),
    ("integrator.simulate.s", "s"),
    ("integrator.steps", "count"),
    ("integrator.steps_per_s", "1/s"),
    ("integrator.records", "count"),
    ("integrator.peak_of.us", "us"),
    ("ngm.ngm_ma.us", "us"),
    ("ngm.ngm_mb.us", "us"),
    ("ngm.stability.us", "us"),
    ("ngm.stability.failed", "count"),
    ("core.validate_params.us", "us"),
    ("core.validate_params.calls", "count"),
    ("sensitivity.sensitivity_indices.us", "us"),
    ("sensitivity.ordering_case.us", "us"),
    ("sensitivity.finite_diff_check.us", "us"),
    ("feasibility.classify_feasible_set.us", "us"),
    ("scenarios.participation_scan.s", "s"),
    ("scenarios.participation_scan.self_s", "s"),
    ("scenarios.preset_params.us", "us"),
    ("scenarios.run_scenario.ms", "ms"),
    ("scenarios.run_mixed.ms", "ms"),
    ("scenarios.run_scenario.alloc_peak_mb", "MB"),
    ("config.loads_config.us", "us"),
    ("config.bytes_in", "bytes"),
    ("output.write_csv.ms", "ms"),
    ("output.render_svg.ms", "ms"),
    ("output.csv_bytes", "bytes"),
    ("output.svg_bytes", "bytes"),
    ("output.write_mb_per_s", "MB/s"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.replay_s", "s"),
)

# How a per-layer value was obtained, as printed in the report.
MEASURED_SPAN = "measured span"
REPLAYED_SPAN = "replayed span"
PROBED = "probed"
DERIVED = "derived"
COMPUTED = "computed"
MEASURED = "measured"

# Failure labels of wrong results start with this; other failures raised.
WRONG = "wrong result: "
# op_tail_ms needs more than ten samples.
MIN_OPS = 11
# A per-call probe times PROBE_CALLS calls PROBE_BATCHES times.
PROBE_CALLS = 2000
PROBE_BATCHES = 5


def wrong(text: str) -> str:
    """Failure label of a result that failed its check."""
    return WRONG + text


def direct(_name, fn, *args):
    """The untraced ``call``."""
    return fn(*args)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sample(seq, count: int) -> list:
    """About ``count`` items spread evenly over seq."""
    return list(seq[:: max(1, len(seq) // count)])


def per_call_us(fn, arg_tuples) -> float:
    """Median over PROBE_BATCHES of the mean time of one call, in µs."""
    batches = []
    for _ in range(PROBE_BATCHES):
        t0 = perf_counter()
        for args in arg_tuples:
            fn(*args)
        batches.append((perf_counter() - t0) / len(arg_tuples))
    return median(batches) * 1e6


def probe_dynamics(sx, runs) -> dict[str, tuple[float, str]]:
    """Per-call cost of rhs_ma, rhs_mb and step_rk4 on workload states.

    ``runs`` pairs Params with states a run visited under them.
    """
    rhs_args = {"ma": [], "mb": []}
    step_args = []
    for p, states in runs:
        kind = "mb" if isinstance(states[0], sx.StateMB) else "ma"
        rhs = sx.rhs_mb if kind == "mb" else sx.rhs_ma
        field = (lambda _t, s, _p=p, _rhs=rhs: _rhs(_p, s))
        rhs_args[kind].extend((p, s) for s in states)
        step_args.extend((field, s, 0.0, 2.0) for s in states)
    out = {}
    for kind, fn in (("ma", sx.rhs_ma), ("mb", sx.rhs_mb)):
        if rhs_args[kind]:
            out[f"dynamics.rhs_{kind}.us"] = (
                per_call_us(fn, sample(rhs_args[kind], PROBE_CALLS)), PROBED)
    out["integrator.step_rk4.us"] = (
        per_call_us(sx.step_rk4, sample(step_args, PROBE_CALLS)), PROBED)
    return out


def ms(values) -> float:
    return median(values) * 1e3


def us(values) -> float:
    return median(values) * 1e6


class Scan:
    """One op = participation_scan(preset, capacity, the 99-point grid)."""

    name = "scan"
    # Below the 1.1 to 1.5 s an op takes, so that ``--seconds 30`` gives 30
    # ops: more ops steady the median against the host's speed changes.
    SECONDS_PER_OP = 1.0
    items = "ops"
    items_per_op = 1

    def __init__(self, seed: int, seconds: float, root: Path, work: Path) -> None:
        self.seed = seed
        self.n_ops = max(MIN_OPS, round(seconds / self.SECONDS_PER_OP))
        self.first: dict[str, tuple[int, object]] = {}

    def setup(self, sx) -> None:
        self.sx = sx
        self.capacity, names = inputs.scan_inputs(self.seed, self.n_ops)
        presets = {p.name: p for p in sx.covid_mitigation_presets()}
        self.presets = [presets[name] for name in names]
        self.op(0, direct)

    def describe(self) -> str:
        return (f"{self.n_ops} ops of {len(inputs.SCAN_GRID)} MB runs each, "
                f"capacity {self.capacity:.6g}")

    def op(self, i, call):
        return call("scenarios.participation_scan", self.sx.participation_scan,
                    self.presets[i], self.capacity, inputs.SCAN_GRID)

    def check(self, i, res):
        record = repr((res.preset, res.capacity.hex(), [v.hex() for v in res.peak_I],
                       res.minimal_compliant, res.monotone)).encode()
        first_i, first = self.first.setdefault(res.preset, (i, res))
        if first != res:
            return [wrong(f"differs from op {first_i} on the same input")], record
        return [], record

    def verify(self) -> dict[int, str]:
        """Peaks against a flat-float RK4 of MB, once per distinct input."""
        sx = self.sx
        t1, dt = sx.scenarios.SCAN_T1, sx.scenarios.SCAN_DT
        bad = {}
        for name, (i, res) in self.first.items():
            p = sx.preset_params(self.presets[i])
            rates = oracle.rates_of(p)
            pool = p.N - 1.0
            peaks = [oracle.mb_peak_I(rates, (pool - q * pool, q * pool, 0.0, 0.0, 1.0),
                                      t1, dt)
                     for q in inputs.SCAN_GRID]
            worst = max(abs(a - b) / abs(b) for a, b in zip(res.peak_I, peaks))
            minimal = next((q for q, v in zip(inputs.SCAN_GRID, peaks)
                            if v <= self.capacity), None)
            if worst > 1e-9:
                bad[name] = wrong(f"peaks off the reference by {worst:.3g} relative")
            elif minimal != res.minimal_compliant:
                bad[name] = wrong(
                    f"minimal_compliant {res.minimal_compliant}, reference {minimal}")
        return {i: bad[p.name] for i, p in enumerate(self.presets) if p.name in bad}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layers(self, tracer) -> dict[str, tuple[float, str]]:
        """Replay participation_scan's inner calls once per distinct preset."""
        sx = self.sx
        mb = sx.ModelKind.MB
        t1, dt = sx.scenarios.SCAN_T1, sx.scenarios.SCAN_DT
        obs = sx.observables_for(mb)["I"]
        scan_spans = tracer.by_op("scenarios.participation_scan")
        children, simulate_s, runs = {}, {}, []
        for name, (i, res) in self.first.items():
            span = scan_spans[i]
            # One call takes microseconds, so a single replay is mostly timer noise.
            for _ in range(20):
                p = tracer.replay(span, "scenarios.preset_params", sx.preset_params,
                                  self.presets[i])
            pool = p.N - 1.0
            for q, expected in zip(inputs.SCAN_GRID, res.peak_I):
                s2 = q * pool
                init = sx.StateMB(S1=sx.exact_complement(pool, s2), S2=s2,
                                  A1=0.0, A2=0.0, Is=1.0, R=0.0)
                traj = tracer.replay(span, "integrator.simulate", sx.simulate,
                                     mb, p, init, 0.0, t1, dt)
                if tracer.replay(span, "integrator.peak_of", sx.peak_of,
                                 traj, obs)[1] != expected:
                    raise RuntimeError(f"replayed {name} scan differs at q = {q}")
                if not runs:
                    runs.append((p, traj.states))
            simulate_s[name] = sum(tracer.durations("integrator.simulate", REPLAYED, span))
            children[name] = (
                median(tracer.durations("scenarios.preset_params", REPLAYED, span))
                + simulate_s[name]
                + sum(tracer.durations("integrator.peak_of", REPLAYED, span)))
        ops = [(self.presets[i].name, tracer.duration(span))
               for i, span in scan_spans.items()]
        steps, records = oracle.time_grid(0.0, t1, dt, 1)
        steps *= len(inputs.SCAN_GRID)
        records *= len(inputs.SCAN_GRID)
        sim_per_op = median(simulate_s[name] for name, _ in ops)
        out = {
            "scenarios.participation_scan.s": (median(d for _, d in ops), MEASURED_SPAN),
            "scenarios.participation_scan.self_s": (
                median(d - children[name] for name, d in ops), DERIVED),
            "scenarios.preset_params.us": (
                us(tracer.durations("scenarios.preset_params")), REPLAYED_SPAN),
            "integrator.simulate.s": (sim_per_op, REPLAYED_SPAN),
            "integrator.peak_of.us": (us(tracer.durations("integrator.peak_of")),
                                      REPLAYED_SPAN),
            "integrator.steps": (steps, COMPUTED),
            "integrator.records": (records, COMPUTED),
            "dynamics.rhs_evals": (4 * steps, COMPUTED),
            "integrator.steps_per_s": (steps / sim_per_op, DERIVED),
        }
        out.update(probe_dynamics(sx, runs))
        return out


class Sweep:
    """One op = the full analysis of BATCH pairs of one MA and one MB draw."""

    name = "sweep"
    # One pair takes under a millisecond, so the 11th-slowest of tens of
    # thousands of pairs would time a host scheduling hiccup, not the
    # program.  A batch is long against such hiccups.
    BATCH = 250
    SECONDS_PER_OP = 0.23
    FD_STEP = 1e-6
    CALLS = ("core.validate_params", "ngm.ngm_ma", "ngm.ngm_mb", "ngm.stability",
             "sensitivity.sensitivity_indices", "sensitivity.ordering_case",
             "sensitivity.finite_diff_check", "feasibility.classify_feasible_set")
    items = "draw pairs"
    items_per_op = BATCH

    def __init__(self, seed: int, seconds: float, root: Path, work: Path) -> None:
        self.seed = seed
        self.n_ops = max(MIN_OPS, round(seconds / self.SECONDS_PER_OP))

    def setup(self, sx) -> None:
        self.sx = sx
        self.pairs = inputs.sweep_inputs(self.seed, self.n_ops * self.BATCH)
        self.models = ((sx.ModelKind.MA, "ngm.ngm_ma"), (sx.ModelKind.MB, "ngm.ngm_mb"))
        self.op(0, direct)

    def describe(self) -> str:
        return (f"{self.n_ops} ops of {self.BATCH} pairs of one MA and one MB "
                f"draw each")

    def op(self, i, call):
        sx = self.sx
        out = []
        for pair in self.pairs[i * self.BATCH:(i + 1) * self.BATCH]:
            for (model, ngm_name), raw in zip(self.models, pair):
                p = call("core.validate_params", sx.validate_params, raw, model)
                g = call(ngm_name, sx.ngm, model, p)
                # Nothing else in the op uses stability's result, so a
                # failure there is kept for the check and the op goes on.
                try:
                    st = call("ngm.stability", sx.stability, model, p)
                except Exception as exc:  # noqa: BLE001 - counted by class in check
                    st = exc
                out.append((
                    raw, p, g, st,
                    call("sensitivity.sensitivity_indices", sx.sensitivity_indices,
                         model, p),
                    call("sensitivity.ordering_case", sx.ordering_case, model, p),
                    call("sensitivity.finite_diff_check", sx.finite_diff_check,
                         model, p, self.FD_STEP),
                    call("feasibility.classify_feasible_set", sx.classify_feasible_set,
                         p.rho, p.kappa, model),
                ))
        return out

    def check(self, i, out):
        labels = []
        record = []
        for k in range(0, len(out), 2):
            failures = []
            for raw, p, g, st, si, oc, fd, fs in out[k:k + 2]:
                r0 = oracle.r0_closed_form(raw)
                indices = si.as_dict()
                if isinstance(st, Exception):
                    failures.append(f"{type(st).__name__} in stability")
                    verdict = type(st).__name__
                else:
                    verdict = (st.verdict.value, st.r0.hex(), [x.hex() for x in st.dfe])
                    expected = ("marginal" if abs(r0 - 1.0) <= 1e-12
                                else "stable" if r0 < 1.0 else "unstable")
                    if st.verdict.value != expected:
                        failures.append(wrong("stability verdict disagrees with r0"))
                if abs(g.dominant - r0) > 1e-10 * abs(r0):
                    failures.append(wrong("ngm dominant eigenvalue off the closed-form r0"))
                if not fd <= 1e-6:
                    failures.append(wrong("finite_diff_check above 1e-6"))
                chain = (() if oc.label == "BOUNDARY"
                         else tuple(sorted(indices, key=indices.get)))
                if oc.chain != chain:
                    failures.append(wrong("ordering chain is not the sort of the indices"))
                kind = 0 if abs(p.rho - p.kappa) <= 1e-12 else 1 if p.rho < p.kappa else -1
                if fs.type_label.value != kind:
                    failures.append(
                        wrong("feasible-set type disagrees with sign(kappa - rho)"))
                record.append((g.K, g.eigenvalues, g.dominant.hex(), verdict,
                               sorted(indices.items()), oc.label, oc.chain, fd.hex(),
                               fs.type_label.value, fs.vertices))
            labels.extend(failures[:1])
        return labels, repr(record).encode()

    def verify(self) -> dict[int, str]:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layers(self, tracer) -> dict[str, tuple[float, str]]:
        out = {f"{name}.us": (us(tracer.durations(name)), MEASURED_SPAN)
               for name in self.CALLS}
        out["core.validate_params.calls"] = (
            len(tracer.spans("core.validate_params")) / self.n_ops, MEASURED_SPAN)
        out["ngm.stability.failed"] = (tracer.count_failed("ngm.stability"), MEASURED_SPAN)
        return out


class Cli:
    """One op = one ``python -m socsir simulate|mixed`` subprocess."""

    name = "cli"
    SECONDS_PER_OP = 0.58
    items = "ops"
    items_per_op = 1
    HEADERS = {"ma": "t,S1,S2,Ia,Is,R,I,N", "mb": "t,S1,S2,A1,A2,Is,R,I,N",
               "mixed": "t,S1,S2,A1,A2,Is,R,I,N"}
    # The CLI's documented exit codes for the errors it reports itself.
    EXIT_CODES = {2: "ValidationError", 3: "NumericError", 4: "ConfigError"}
    PROBES = 5

    def __init__(self, seed: int, seconds: float, root: Path, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.cwd = str(root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        per_pass = inputs.CLI_CONFIGS * self.SECONDS_PER_OP
        self.repeats = max(1, round(seconds / per_pass))
        self.n_ops = inputs.CLI_CONFIGS * self.repeats
        self.outputs: dict[int, tuple[int, str, str]] = {}

    def setup(self, sx) -> None:
        self.sx = sx
        self.docs = inputs.cli_configs(self.seed)
        self.order = inputs.cli_order(self.seed, self.repeats)
        self.argv = []
        for j, doc in enumerate(self.docs):
            cfg = self.work / f"config{j}.json"
            cfg.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            self.argv.append([
                "mixed" if doc["model"] == "mixed" else "simulate",
                "--config", str(cfg),
                "--csv", str(self.work / f"out{j}.csv"),
                "--svg", str(self.work / f"out{j}.svg"),
            ])
        # Config 0 has the lowest t1 stratum, so the warm-up is short.
        self._run(self.argv[0])

    def describe(self) -> str:
        steps = [self.steps(j) for j in range(len(self.docs))]
        return (f"{self.n_ops} ops: {len(self.docs)} configs x {self.repeats}, "
                f"{min(steps)} to {max(steps)} steps")

    def steps(self, j: int) -> int:
        t = self.docs[j]["time"]
        return oracle.time_grid(t["t0"], t["t1"], t["dt"], 1)[0]

    def records(self, j: int) -> int:
        doc = self.docs[j]
        t = doc["time"]
        if doc["model"] != "mixed":
            return oracle.time_grid(t["t0"], t["t1"], t["dt"], t["record_every"])[1]
        switch = doc["mixed"]["t_switch"]
        first = oracle.time_grid(t["t0"], switch, t["dt"], t["record_every"])[1]
        return first - 1 + oracle.time_grid(switch, t["t1"], t["dt"], t["record_every"])[1]

    def _run(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "socsir", *argv], env=self.env, cwd=self.cwd,
            capture_output=True, timeout=120, check=False)

    def op(self, i, call):
        return call("cli.subprocess", self._run, self.argv[self.order[i]])

    def check(self, i, proc):
        j = self.order[i]
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace")
            if "Traceback (most recent call last)" in stderr:
                error = stderr.strip().splitlines()[-1].split(":")[0]
            else:
                error = self.EXIT_CODES.get(proc.returncode, "error")
            label = f"exit {proc.returncode}: {error}"
            return [label], repr((j, label)).encode()
        csv_sha = sha((self.work / f"out{j}.csv").read_bytes())
        svg_sha = sha((self.work / f"out{j}.svg").read_bytes())
        self.outputs[i] = (j, csv_sha, svg_sha)
        return [], repr((j, csv_sha, svg_sha, proc.stdout)).encode()

    def _reference(self, j: int) -> tuple[str | None, tuple[str, str] | None]:
        """Check config j's in-process CSV; return (failure, (csv, svg) digests)."""
        sx = self.sx
        doc = self.docs[j]
        try:
            cfg = sx.load_config(self.argv[j][2])
            traj = sx.run_scenario(cfg).trajectory
        except Exception as exc:  # noqa: BLE001 - reported as the failure
            return wrong(f"CLI exited 0 but in-process run raised {type(exc).__name__}"), None
        csv = sx.write_csv(traj)
        svg = sx.render_svg(traj, cfg.outputs)
        lines = csv.splitlines()
        n = doc["params"]["N"]
        if lines[0] != self.HEADERS[doc["model"]]:
            return wrong(f"CSV header {lines[0]!r}"), None
        if len(lines) - 1 != self.records(j):
            return wrong(f"{len(lines) - 1} CSV rows, expected {self.records(j)}"), None
        if any(abs(float(row.rsplit(",", 1)[1]) - n) > 1e-8 * n for row in lines[1:]):
            return wrong("N not conserved in the CSV"), None
        return None, (sha(csv.encode()), sha(svg.encode()))

    def verify(self) -> dict[int, str]:
        """Each op's CSV and SVG bytes against the in-process writers."""
        refs = {j: self._reference(j) for j in {j for j, _, _ in self.outputs.values()}}
        bad = {}
        for i, (j, csv_sha, svg_sha) in self.outputs.items():
            label, ref = refs[j]
            if label is None and (csv_sha, svg_sha) != ref:
                label = wrong("CSV/SVG bytes differ from the in-process writers")
            if label is not None:
                bad[i] = label
        return bad

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _wall_ms(self, code: str) -> float:
        times = []
        for _ in range(self.PROBES):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.cwd,
                           check=True, timeout=60)
            times.append(perf_counter() - t0)
        return ms(times)

    def layers(self, tracer) -> dict[str, tuple[float, str]]:
        """Replay the CLI's inner calls in-process once per distinct config."""
        sx = self.sx
        cli = importlib.import_module("socsir.cli")
        op_spans = tracer.by_op("cli.subprocess")
        first_op = {}
        for i, j in enumerate(self.order):
            first_op.setdefault(j, i)
        main_ms, write_rate, steps_per_s, runs = {}, [], [], []
        largest = None
        for j, i in sorted(first_op.items()):
            span = op_spans[i]
            text = Path(self.argv[j][2]).read_text(encoding="utf-8")
            try:
                cfg = tracer.replay(span, "config.loads_config", sx.loads_config, text)
                if cfg.mixed is not None:
                    res = tracer.replay(span, "scenarios.run_mixed", sx.run_mixed, cfg)
                else:
                    res = tracer.replay(span, "scenarios.run_scenario", sx.run_scenario, cfg)
                    t0 = perf_counter()
                    tracer.replay(span, "integrator.simulate", sx.simulate, cfg.model,
                                  cfg.params, cfg.init_state, cfg.t0, cfg.t1, cfg.dt,
                                  cfg.record_every)
                    steps_per_s.append(self.steps(j) / (perf_counter() - t0))
                    runs.append((cfg.params, sample(res.trajectory.states, 200)))
                    if largest is None or len(res.trajectory) > len(largest[1]):
                        largest = (cfg, res.trajectory)
            except ArithmeticError:
                continue  # the op itself failed the same way and was counted
            traj = res.trajectory
            tracer.replay(span, "integrator.peak_of", sx.peak_of, traj,
                          sx.observables_for(traj.model)["I"])
            t0 = perf_counter()
            csv = tracer.replay(span, "output.write_csv", sx.write_csv, traj)
            svg = tracer.replay(span, "output.render_svg", sx.render_svg, traj, cfg.outputs)
            write_rate.append((len(csv) + len(svg)) / 1e6 / (perf_counter() - t0))
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                tracer.replay(span, "cli.main", cli.main, self.argv[j])
                main_ms[j] = (perf_counter() - t0) * 1e3
        tracemalloc.start()
        try:
            sx.run_scenario(largest[0])
            alloc_peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

        done = sorted(self.outputs)
        interpreter = self._wall_ms("pass")
        out = {
            "config.loads_config.us": (us(tracer.durations("config.loads_config")),
                                       REPLAYED_SPAN),
            "config.bytes_in": (median(Path(a[2]).stat().st_size for a in self.argv),
                                COMPUTED),
            "scenarios.run_scenario.ms": (ms(tracer.durations("scenarios.run_scenario")),
                                          REPLAYED_SPAN),
            "scenarios.run_mixed.ms": (ms(tracer.durations("scenarios.run_mixed")),
                                       REPLAYED_SPAN),
            "scenarios.run_scenario.alloc_peak_mb": (alloc_peak, PROBED),
            "integrator.simulate.s": (median(tracer.durations("integrator.simulate")),
                                      REPLAYED_SPAN),
            "integrator.steps_per_s": (median(steps_per_s), DERIVED),
            "integrator.steps": (median(self.steps(j) for j in self.order), COMPUTED),
            "integrator.records": (median(self.records(j) for j in self.order), COMPUTED),
            "dynamics.rhs_evals": (4 * median(self.steps(j) for j in self.order), COMPUTED),
            "integrator.peak_of.us": (us(tracer.durations("integrator.peak_of")),
                                      REPLAYED_SPAN),
            "output.write_csv.ms": (ms(tracer.durations("output.write_csv")), REPLAYED_SPAN),
            "output.render_svg.ms": (ms(tracer.durations("output.render_svg")),
                                     REPLAYED_SPAN),
            "output.csv_bytes": (median(
                (self.work / f"out{self.order[i]}.csv").stat().st_size for i in done),
                COMPUTED),
            "output.svg_bytes": (median(
                (self.work / f"out{self.order[i]}.svg").stat().st_size for i in done),
                COMPUTED),
            "output.write_mb_per_s": (median(write_rate), DERIVED),
            "cli.interpreter_ms": (interpreter, PROBED),
            "cli.import_ms": (self._wall_ms("import socsir") - interpreter, PROBED),
            "cli.main.ms": (median(main_ms[self.order[i]] for i in done), REPLAYED_SPAN),
            "cli.startup_ms": (median(
                tracer.duration(op_spans[i]) * 1e3 - main_ms[self.order[i]] for i in done),
                DERIVED),
        }
        out.update(probe_dynamics(sx, runs))
        return out


WORKLOADS = {w.name: w for w in (Scan, Sweep, Cli)}
