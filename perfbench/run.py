#!/usr/bin/env python3
"""The repository benchmark: four user workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are CPU seconds (user + system) of the benchmark process and the
pool workers and shard processes it reaps.  On a shared host the wall
clock also counts the time other tenants hold the cores, so wall times
are printed, but not reported as metrics.
``--trace 1`` spends half the time untraced (pool counters, the tracing
overhead base), then runs a fixed op set with span wrappers installed
around the package's public layer entry points and reports the
per-layer ledger.  Every op passes the correctness gate in ``gate.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Other modes:

* ``--setup-only`` — the set-up a run performs before its first timed
  op; ``setup_s`` is the median CPU time of several such cold starts.
* ``--record-digests 0-15`` — record the semantic digests of every op
  key for those seeds into ``perfbench/digests.json``.
* ``--scale tiny`` — small inputs, used by ``perfbench/selftest.py``.

The package is imported from ``src/`` of the checkout this file lives
in; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Cold starts per run whose median is ``setup_s``.
SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_cpu_s", "ops/cpu-s"),
    ("op_cpu_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: Span names whose self time is reported as ``<name>_s`` (mean per op).
LAYER_SPANS = (
    "graphs.build",
    "predictions.build",
    "simulator.init",
    "simulator.run",
    "kernels.run",
    "problems.verify",
    "errors.eta1",
    "dynamic.stream",
    "dynamic.apply_batch",
    "dynamic.carry",
    "dynamic.warm_run",
    "dynamic.scratch_run",
    "shard.edgecut_run",
)

PER_LAYER = (
    tuple((f"{name}_s", "s") for name in LAYER_SPANS)
    + (
        ("simulator.messages", "count"),
        ("simulator.rounds", "count"),
        ("exec.cell_busy_s", "s"),
        ("exec.idle_share", "ratio"),
        ("exec.cache_hit_ratio", "ratio"),
        ("dynamic.warm_over_scratch_rounds", "ratio"),
        ("dynamic.recourse", "count"),
        ("shard.edgecut_cell_s", "s"),
        ("shard.unsharded_cell_s", "s"),
        ("shard.speedup", "ratio"),
        ("shard.boundary_msgs", "count"),
        ("shard.boundary_bytes", "bytes"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.ops", "count"),
    )
)


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no package source at {os.path.relpath(SRC)}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def environment() -> Dict[str, Any]:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(
    workload: str, seed: int, scale: str, reps: int
) -> List[Tuple[float, float]]:
    """Wall and CPU seconds of ``reps`` cold interpreters doing a run's
    set-up (each is reaped before the next starts, so its CPU time and
    that of its own children is the change in ``clocks()``)."""
    from workloads import clocks, since

    times = []
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    for _ in range(reps):
        started = clocks()
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=150,
        )
        times.append(since(started))
        if done.returncode != 0:
            raise RuntimeError(
                "set-up subprocess failed:\n" + done.stderr.decode(errors="replace")
            )
    return times


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def end_to_end(
    phase: Any,
    verdict: Any,
    setup: List[Tuple[float, float]],
    rss: float,
) -> Tuple[Dict[str, float], List[str]]:
    passed = verdict.attempted - verdict.failed
    samples = len(phase.ops)
    costs = [op.cpu for op in phase.ops]
    latencies = [op.latency for op in phase.ops]
    metrics = {
        "setup_s": statistics.median(cpu for _, cpu in setup),
        "ops_per_cpu_s": passed / phase.cpu if phase.cpu else 0.0,
        "op_cpu_p50_s": statistics.median(costs) if costs else 0.0,
        "peak_rss_mb": rss,
        "ok_frac": passed / verdict.attempted if verdict.attempted else 0.0,
    }
    notes = [
        f"ops {samples} in {phase.wall:.2f} s wall, {phase.cpu:.2f} s CPU; "
        f"op_cpu_p50_s over {samples} samples",
        f"wall clock: {passed / phase.wall if phase.wall else 0.0:.4f} ops/s, "
        f"op p50 {statistics.median(latencies) if latencies else 0.0:.4f} s",
        "setup samples (wall s, CPU s) "
        f"{[tuple(round(value, 4) for value in sample) for sample in setup]}",
    ]
    if samples >= 100:
        notes.append(
            f"op_cpu_p90_s {percentile(costs, 0.9):.6f} s, wall op p90 "
            f"{percentile(latencies, 0.9):.6f} s ({samples} samples)"
        )
    else:
        notes.append(f"op p90 not reported: {samples} samples < 100")
    return metrics, notes


def per_layer(
    untraced: Any, traced: Any, tracer: Any, jobs: int
) -> Tuple[Dict[str, float], List[str]]:
    ledger = tracer.ledger()
    ops = max(1, len(traced.ops))
    metrics: Dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = ledger["self_s"].get(name, 0.0) / ops
    metrics["simulator.messages"] = tracer.counts.get("simulator.messages", 0)
    metrics["simulator.rounds"] = tracer.counts.get("simulator.rounds", 0)

    sweeps = untraced.sweeps
    wall = sum(entry[0] for entry in sweeps)
    busy = sum(entry[1] for entry in sweeps)
    hits = sum(entry[2] for entry in sweeps)
    lookups = sum(entry[3] for entry in sweeps)
    metrics["exec.cell_busy_s"] = busy / len(sweeps) if sweeps else 0.0
    metrics["exec.idle_share"] = 1.0 - busy / (wall * jobs) if wall else 0.0
    metrics["exec.cache_hit_ratio"] = hits / lookups if lookups else 0.0

    op_wall = ledger["op_wall_s"]
    metrics["trace.coverage"] = (
        1.0 - ledger["unattributed_s"] / op_wall if op_wall else 0.0
    )
    base: Dict[str, List[float]] = {}
    for op in untraced.ops:
        base.setdefault(op.key, []).append(op.latency)
    pairs = [
        (op.latency, statistics.median(base[op.key]))
        for op in traced.ops
        if op.key in base
    ]
    metrics["trace.overhead_ratio"] = (
        sum(t for t, _ in pairs) / sum(u for _, u in pairs) if pairs else 0.0
    )
    metrics["trace.ops"] = len(traced.ops)
    # Workload-specific layers; zero where the workload bypasses them.
    for name, _ in PER_LAYER:
        metrics.setdefault(name, traced.layers.get(name, 0.0))

    shares = sorted(
        ((value, name) for name, value in ledger["self_s"].items()),
        reverse=True,
    )
    notes = [
        f"traced {len(traced.ops)} ops, {ledger['op_spans']} op spans, "
        f"{op_wall:.3f} s; unattributed {ledger['unattributed_s']:.3f} s",
        "layer shares of op wall: " + ", ".join(
            f"{name} {value / op_wall:.1%}" for value, name in shares if op_wall
        ),
        "tracing overhead: traced/untraced latency "
        f"{metrics['trace.overhead_ratio']:.3f} over {len(pairs)} ops with "
        "the same key",
    ]
    return metrics, notes


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    setup_reps: int = SETUP_REPS,
) -> Dict[str, Any]:
    """One benchmark run; returns the result document plus its notes."""
    import gate
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name](seed, scale)
    table = (
        gate.load_table(name, seed, workload.params) if scale == "full" else None
    )
    workload.setup()
    started = time.perf_counter()
    if not trace:
        phase = workload.untraced(started + seconds)
        verdict = gate.check(phase.ops, table)
        rss = peak_rss_mb()
        setup = measure_setup(name, seed, scale, setup_reps)
        metrics, notes = end_to_end(phase, verdict, setup, rss)
        declared = END_TO_END
        tracer = None
    else:
        untraced = workload.untraced(started + seconds / 2)
        tracer = Tracer()
        try:
            workloads.install_layer_wrappers(tracer)
            traced = workload.traced(tracer)
        finally:
            tracer.restore()
        verdict = gate.check(untraced.ops + traced.ops, table)
        metrics, notes = per_layer(untraced, traced, tracer, workloads.JOBS)
        declared = PER_LAYER
    notes.append(
        "digests: recorded table" if table is not None
        else "digests: this run only (seed not recorded)"
    )
    notes.extend(verdict.notes[:20])
    return {
        "result": {
            "correct": verdict.correct,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "metrics": {
                metric: {"value": metrics[metric], "unit": unit}
                for metric, unit in declared
            },
        },
        "notes": notes,
        "tracer": tracer,
    }


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts when
    shared memory is first used, so that no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record_digests(names: List[str], seeds: List[int]) -> None:
    import gate
    import workloads

    document: Dict[str, Any] = {}
    if os.path.exists(gate.DIGESTS):
        with open(gate.DIGESTS, encoding="utf-8") as handle:
            document = json.load(handle)
    for name in names:
        params = workloads.WORKLOADS[name].PARAMS["full"]
        entry = document.get(name)
        if entry is None or entry["params"] != params:
            entry = document[name] = {"params": params, "seeds": {}}
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            ops = workload.record()
            bad = [op for op in ops if not op.verified]
            if bad:
                raise RuntimeError(f"{name} seed {seed}: {bad[0].note}")
            entry["seeds"][str(seed)] = {
                op.key: gate.digest(op.semantic) for op in ops
            }
            print(f"recorded {name} seed {seed}: {len(ops)} ops", flush=True)
            with open(gate.DIGESTS, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", metavar="SEEDS")
    args = parser.parse_args(argv)

    # Keep any temporary file the package makes (e.g. the shared-memory
    # store's file fallback) inside the checkout.
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None
    import_package()
    import workloads

    if args.record_digests:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        record_digests(names, parse_seeds(args.record_digests))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.scale).setup()
        return 0

    outcome = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    result = outcome["result"]
    if outcome["tracer"] is not None:
        outcome["tracer"].dump(
            os.path.join(OUT, f"{args.workload}-s{args.seed}-spans.json")
        )
    print("env " + json.dumps(environment(), sort_keys=True))
    for note in outcome["notes"]:
        print(note)
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    stop_resource_tracker()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
