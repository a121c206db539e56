"""Benchmark command for agentspread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` in this one single-threaded
process, against the package under ``src/`` of the same checkout:

1. imports the package (timed: ``package.import_s``), then builds the
   workload's fixed inputs from ``--seed`` several times;
   ``setup_s`` = import time + median input-building time;
2. repeats whole rounds of the same work until the next round would end
   past ``--seconds`` (half of it with ``--trace 1``), at least one;
   ``work_s`` is the median round time and ``peak_rss_mb`` the peak
   resident set, read right after the rounds;
3. with ``--trace 1``, runs one more round under the profiler
   (``tracing.py``) for the per-layer counts and self-time shares;
4. checks the last round's outputs against ``reference.py`` and checks
   that every round (and the traced round) reproduced the first;
5. prints as the last line of standard output one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
   ``per_layer`` metrics with ``--trace 1``. Everything measured, with
   each check's detail, also goes to ``perfbench/results/``.

An operation that raises ends the run with a traceback and a non-zero
exit, so ``failed`` stays 0 on a run that prints a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Numeric libraries stay single-threaded and str hashing is fixed, so a
# run's timing and its digests do not depend on the caller's shell.
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_REPEATS = 5

# Timed calls that run engine replicates, for the engine rates.
ENGINE_CALLS = (
    "analytics.run_plan_s",
    "engine.adversary_batch_s",
    "engine.agents_batch_s",
    "engine.tiny_batches_s",
)


def fix_environment():
    """Re-execute this same process with ``ENV`` set, if it is not yet."""
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        argv = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
        os.execve(sys.executable, argv, {**os.environ, **ENV})


class Meter:
    """Seconds spent in named public calls, and named counts, of one round."""

    def __init__(self):
        self.seconds = {}
        self.counts = {}

    @contextmanager
    def __call__(self, name):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k


def timed_layers(m):
    """Per-layer metrics of one untraced round, from its meter."""
    s, c = m.seconds, m.counts
    engine_s = sum(s.get(k, 0.0) for k in ENGINE_CALLS)
    fpp_s = s.get("dominators.fpp_clusters_s", 0.0)
    reps = c.get("engine.replicates", 0)
    out = {
        k: s.get(k, 0.0)
        for k in (
            "graphs.gen_rgg_s",
            "graphs.partition_rgg_s",
            "engine.adversary_batch_s",
            "engine.agents_batch_s",
            "dominators.fpp_clusters_s",
            "dominators.line_clusters_s",
            "analytics.dominance_report_s",
        )
    }
    out["graphs.rgg_edges"] = c.get("graphs.rgg_edges", 0)
    out["engine.infections_per_s"] = c.get("engine.infections", 0) / engine_s if engine_s else 0.0
    out["engine.replicate_us"] = 1e6 * engine_s / reps if reps else 0.0
    out["dominators.fpp_sites_per_s"] = c.get("dominators.fpp_sites", 0) / fpp_s if fpp_s else 0.0
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    fix_environment()
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import agentspread

    import_s = time.perf_counter() - t0
    if Path(agentspread.__file__).resolve().parent != ROOT / "src" / "agentspread":
        sys.exit(f"agentspread was imported from {agentspread.__file__}, not from {ROOT / 'src'}")

    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t)
    ops = wl.ops(inputs)

    budget = args.seconds / 2 if args.trace else args.seconds
    round_times, cpu_times, layers, digests = [], [], [], []
    start = time.perf_counter()
    while True:
        out = None
        gc.collect()
        meter = Meter()
        c = time.process_time()
        t = time.perf_counter()
        out = wl.work(inputs, meter)
        round_times.append(time.perf_counter() - t)
        cpu_times.append(time.process_time() - c)
        layers.append(timed_layers(meter))
        digests.append(hash(wl.digest(out)))
        if time.perf_counter() - start + statistics.median(round_times) > budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work_s = statistics.median(round_times)

    end_to_end = {
        "setup_s": import_s + statistics.median(setup_times),
        "work_s": work_s,
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
    per_layer["package.import_s"] = import_s
    attempted = len(round_times) * ops
    checks = []
    if args.trace:
        gc.collect()
        meter = Meter()
        traced, traced_s, prof, tally = tracing.traced_round(
            lambda wrap: wl.work(inputs, meter, wrap)
        )
        attempted += ops
        per_layer.update(tracing.layer_counts(prof, tally, meter.counts.get("engine.infections", 0)))
        per_layer["trace.overhead"] = traced_s / work_s
        checks.append(
            (
                "traced round reproduces the untraced rounds",
                hash(wl.digest(traced)) == digests[0],
                f"traced round {traced_s:.3f} s",
            )
        )

    checks.append(
        (
            "every round reproduces the first",
            len(set(digests)) == 1,
            f"{len(digests)} rounds",
        )
    )
    checks.extend(wl.checks(inputs, out, args.seed))
    attempted += len(checks)
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        prof.dump_stats(RESULTS / f"{stem}.prof")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "setup_times": setup_times,
        "round_times": round_times,
        "round_cpu_times": cpu_times,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"{args.workload} seed={args.seed}: {len(round_times)} rounds, "
        f"work_s={work_s:.4f}, {sum(ok for _, ok, _ in checks)}/{len(checks)} checks hold",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}))


if __name__ == "__main__":
    main()
