"""Run one benchmark workload against the socsir sources in ``src/``.

    python3 bench/run.py --workload scan|sweep|cli --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the ``src/`` directory next to ``bench/``.
It sets the workload up SETUPS times, runs the timed ops once, checks every
output, and prints a report followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones.  With ``--trace 1`` every op also runs a
second time with a span around every call, the calls the package makes
internally are replayed, and the metrics are the per-layer ones.  See
README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Scratch files of a run (CLI configs and outputs) and written span files.
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
# op_tail_ms is the latency with at least this many samples above it.
TAIL_BEYOND = 10
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has
    TAIL_BEYOND samples beyond it.

    Of n sorted samples that is the (TAIL_BEYOND + 1)-th largest, at
    percentile 100 * (n - TAIL_BEYOND) / n.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def load_socsir():
    """Import socsir from SRC afresh, so each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "socsir" or n.startswith("socsir.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sx = importlib.import_module("socsir")
    if Path(sx.__file__).resolve().parent != SRC / "socsir":
        raise ImportError(f"socsir imported from {sx.__file__}, not from {SRC}")
    return sx


def cpu_now() -> float:
    """CPU seconds of this process and of its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Pass:
    """One timed pass over the ops, untraced or traced."""

    def __init__(self, call, tracer=None) -> None:
        self.call = call
        self.tracer = tracer
        self.latencies: list[float] = []
        self.cpu = 0.0
        self.failures: dict[int, list[str]] = {}
        self.digest = hashlib.sha256()

    def run(self, w, i: int) -> None:
        """Time op i, then check it outside the timed region."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(i, "op")
        c0 = cpu_now()
        t0 = time.perf_counter()
        try:
            out, err = w.op(i, self.call), None
        except Exception as exc:  # noqa: BLE001 - a failed op, counted by class
            out, err = None, exc
        t1 = time.perf_counter()
        self.cpu += cpu_now() - c0
        if tracer is not None:
            tracer.end_op()
        self.latencies.append(t1 - t0)
        if err is None:
            labels, record = w.check(i, out)
        else:
            labels = [f"{type(err).__name__} in op"] * w.items_per_op
            record = labels[0].encode()
        self.digest.update(hashlib.sha256(record).digest())
        if labels:
            self.failures[i] = labels


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socsir" / "__init__.py").is_file():
        print(f"error: no socsir sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    w = workloads.WORKLOADS[args.workload](args.seed, args.seconds, ROOT, work)
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        w.setup(load_socsir())
        setup_times.append(time.perf_counter() - t0)
    gc.collect()

    # The closed loop.  A traced run times op i untraced and then traced
    # before op i+1, so a drift in the host's speed hits both passes alike
    # and their difference is the tracing overhead.
    untraced = Pass(workloads.direct)
    passes = [untraced]
    if args.trace:
        tracer = spans.Tracer()
        passes.append(Pass(tracer.call, tracer))
    for i in range(w.n_ops):
        for p in passes:
            p.run(w, i)
    peak_rss = w.peak_rss_mb()
    latencies, failures = untraced.latencies, untraced.failures
    digest = untraced.digest.hexdigest()
    layers = {}
    consistent = True
    if args.trace:
        traced = passes[1]
        consistent = (traced.digest.hexdigest() == digest
                      and traced.failures == failures)
        t0 = time.perf_counter()
        layers = w.layers(tracer)
        layers["trace.replay_s"] = (time.perf_counter() - t0, workloads.MEASURED)
        overhead = sum(traced.latencies) - sum(latencies)
        layers["trace.overhead_s"] = (overhead, workloads.DERIVED)
        span_file = WORK / f"spans-{w.name}-seed{args.seed}.tsv"
        tracer.write(span_file)
    for i, label in w.verify().items():
        failures.setdefault(i, [label])

    n = w.n_ops
    attempted = n * w.items_per_op
    labels = [label for op_labels in failures.values() for label in op_labels]
    wall = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    e2e = {
        "setup_s": median(setup_times),
        "wall_s": wall,
        "ops_per_s": n / wall,
        "op_p50_ms": median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "cpu_s": untraced.cpu,
        "peak_rss_mb": peak_rss,
    }
    wrong = sum(label.startswith(workloads.WRONG) for label in labels)
    correct = wrong == 0 and consistent

    print(f"socsir benchmark: workload {w.name}, seed {args.seed}, "
          f"seconds {fmt(args.seconds)}, trace {args.trace}")
    print(f"  load: closed loop, one caller, one process; {w.describe()}")
    notes = {
        "setup_s": f"median of {SETUPS} set-ups: " + ", ".join(fmt(t) for t in setup_times),
        "op_tail_ms": f"p{tail_pct:.4g} of {n} ops",
        "peak_rss_mb": "CLI children" if w.name == "cli" else "this process",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<12} {fmt(e2e[name]):>12} {unit:<4} {notes.get(name, '')}")
    print(f"  {'error_rate':<12} {fmt(len(labels) / attempted):>12} {'':<4} "
          f"{len(labels)} of {attempted} {w.items} failed")
    for label, count in Counter(labels).most_common():
        print(f"    {count:>7} x {label}")
    print(f"  verification: {'ok' if correct else 'FAILED'} "
          f"({wrong} wrong results"
          + ("" if consistent else "; traced pass disagrees with untraced pass") + ")")
    print(f"  digest: sha256:{digest}")

    if args.trace:
        print("  per-layer metrics (traced run):")
        for name, unit in workloads.PER_LAYER:
            if name in layers:
                value, how = layers[name]
                print(f"    {name:<40} {fmt(value):>12} {unit:<5} {how}")
            else:
                print(f"    {name:<40} {'-':>12} {unit:<5} not run by this workload")
        print(f"  tracing overhead: traced wall_s {fmt(sum(traced.latencies))} s - "
              f"untraced wall_s {fmt(wall)} s = {fmt(overhead)} s; "
              f"spans written to {span_file}")
        metrics = {
            name: {"value": layers.get(name, (0.0, None))[0], "unit": unit}
            for name, unit in workloads.PER_LAYER
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(labels),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
