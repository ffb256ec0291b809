"""The four benchmark workloads and the layer wrappers of the traced run.

Each workload is a closed loop with one client (the benchmark process)
and at most ``JOBS`` pool workers or shard processes.  Its inputs come
only from the workload seed.  An *op* is one unit of work a user of the
package waits for:

* ``solve_large`` — one verified answer on one large instance;
* ``sweep_grid`` — one cell of a (template × noise rate × seed) grid;
* ``dynamic_churn`` — one epoch of a replayed churn stream;
* ``edgecut_tree`` — one edge-cut sharded cell on a connected tree.

Every workload offers ``setup()`` (warm-up of lazy first-call imports
plus inputs not charged to ops), ``untraced(deadline)`` (ops until the
deadline passes; the end-to-end metrics) and ``traced(tracer)`` (a fixed
op set under the layer wrappers; the per-layer metrics).

Every op records its wall time and its CPU time.  The CPU clock counts
this process plus every child it has reaped — pool workers and shard
processes are reaped when their sweep or cell ends — so a sweep's CPU
time is known when it returns, but not that of its single cells.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.bench.algorithms as algorithms
import repro.bench.workloads as bench_workloads
import repro.dynamic.runner as dynamic_runner
import repro.errors as errors
import repro.exec.backends as backends
import repro.graphs as graphs
import repro.predictions as predictions
from repro import MIS, ExecutionPolicy, RunConfig, run
from repro.dynamic import DynamicRunner, EpochStream, SyntheticChurnStream
from repro.exec import ArtifactCache, GraphSpec, PredictionSpec, Sweep
from repro.problems import solution_size
from repro.problems.base import GraphProblem
from repro.simulator import SyncEngine

from gate import Op
from spans import Tracer

#: Pool workers or shard processes per run.
JOBS = 2

#: Graph generators the workloads call, wrapped as ``graphs.build``.
GENERATORS = ("random_regular", "connected_erdos_renyi", "preorder_kary_tree")


def derive(*parts: Any) -> int:
    """A seed for one input, derived from the workload seed."""
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


def clocks() -> Tuple[float, float]:
    """Wall seconds and CPU seconds (user + system, of this process and
    its reaped children) now."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return time.perf_counter(), cpu


def since(started: Tuple[float, float]) -> Tuple[float, float]:
    """Wall and CPU seconds elapsed since ``started = clocks()``."""
    wall, cpu = clocks()
    return wall - started[0], cpu - started[1]


def failed_op(key: str, started: Tuple[float, float], exc: Exception) -> Op:
    wall, cpu = since(started)
    return Op(key, wall, None, False, f"{type(exc).__name__}: {exc}", cpu)


@dataclass
class Phase:
    """What one phase (untraced or traced) of a run produced."""

    ops: List[Op] = field(default_factory=list)
    wall: float = 0.0
    #: CPU seconds of the timed units, children included.
    cpu: float = 0.0
    #: Per executed sweep: ``(wall, busy, cache hits, cache lookups)``.
    sweeps: List[Tuple[float, float, int, int]] = field(default_factory=list)
    #: Workload-specific per-layer numbers.
    layers: Dict[str, float] = field(default_factory=dict)


def repeat_until(deadline: float, phase: Phase, unit: Callable[[], None]) -> None:
    """Run ``unit`` until ``deadline`` passes, adding the timed wall and
    CPU seconds to ``phase``.

    Garbage is collected before each unit, outside the timed wall, so
    every unit starts from the heap a user running it in a fresh process
    would have, instead of paying for an earlier unit's reference cycles
    at an unpredictable point.
    """
    while time.perf_counter() < deadline:
        gc.collect()
        begun = clocks()
        unit()
        wall, cpu = since(begun)
        phase.wall += wall
        phase.cpu += cpu


def row_semantic(row: Any) -> Tuple:
    return (
        row.rounds,
        row.rounds_executed,
        row.message_count,
        row.solution_size,
        row.error,
    )


def row_ok(row: Any) -> bool:
    return row.valid is True and row.failure is None


def row_note(row: Any) -> str:
    return row.failure or ("" if row.valid else "is_solution rejected the output")


def sweeps_until(
    deadline: float,
    sweep: Callable[[], Sweep],
    to_ops: Callable[[Any], List[Op]],
) -> Phase:
    """Fresh sweeps on the process backend until ``deadline`` passes.

    Each cell is charged an equal share of its sweep's CPU seconds.
    """
    phase = Phase()

    def unit() -> None:
        begun = clocks()
        result = sweep().run("process", jobs=JOBS)
        wall, cpu = since(begun)
        stats = result.cache_stats
        hits = stats.get("hits", 0) + stats.get("disk_hits", 0)
        phase.sweeps.append(
            (wall, sum(row.elapsed for row in result.rows), hits,
             hits + stats.get("misses", 0))
        )
        ops = to_ops(result.rows)
        for op in ops:
            op.cpu = cpu / len(ops)
        phase.ops.extend(ops)

    repeat_until(deadline, phase, unit)
    return phase


# ----------------------------------------------------------------------
class SolveLarge:
    """One large random 4-regular instance per op, solved twice.

    ``mis_simple`` runs on noisy predictions under the interpreted
    quiescent schedule; the from-scratch greedy MIS baseline runs under
    the vectorized kernels; both outputs are verified and η₁ measured.
    Instances cycle through ``instances`` seed-derived graphs, so every
    op key repeats within a run.
    """

    name = "solve_large"
    PARAMS = {
        "full": {"n": 20000, "degree": 4, "rate": 0.05, "instances": 8},
        "tiny": {"n": 200, "degree": 4, "rate": 0.05, "instances": 2},
    }
    #: Instances (from the first) the traced run solves.
    TRACED_INSTANCES = {"full": 4, "tiny": 2}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.params = self.PARAMS[scale]
        self.config = RunConfig(
            fast=True, policy=ExecutionPolicy(schedule="quiescent")
        )
        self.baseline_config = RunConfig(
            fast=True, policy=ExecutionPolicy(schedule="vectorized")
        )

    def setup(self) -> None:
        warm = SolveLarge(self.seed, "tiny")
        warm.op(0)

    def op(self, index: int) -> Op:
        k = index % self.params["instances"]
        key = str(k)
        instance_seed = derive(self.name, self.seed, k)
        started = clocks()
        try:
            graph = graphs.random_regular(
                self.params["n"], self.params["degree"], seed=instance_seed
            )
            noisy = predictions.noisy_predictions(
                MIS, graph, self.params["rate"], seed=instance_seed
            )
            solved = run(
                algorithms.mis_simple(), graph, noisy,
                config=self.config.with_overrides(seed=instance_seed),
            )
            baseline = run(
                algorithms.greedy_mis_reference(), graph, None,
                config=self.baseline_config.with_overrides(seed=instance_seed),
            )
            verified = MIS.is_solution(graph, solved.outputs) and MIS.is_solution(
                graph, baseline.outputs
            )
            eta = errors.eta1(graph, noisy, MIS.name)
        except Exception as exc:  # an op that raises is a failed op
            return failed_op(key, started, exc)
        latency, cpu = since(started)
        semantic = (
            solved.rounds, solved.rounds_executed, solved.message_count,
            solution_size(solved.outputs, MIS.name), eta,
            baseline.rounds, baseline.rounds_executed, baseline.message_count,
            solution_size(baseline.outputs, MIS.name),
        )
        note = ""
        if baseline.kernel is None:
            verified, note = False, "baseline did not run on a kernel"
        elif not verified:
            note = "is_solution rejected an output"
        return Op(key, latency, semantic, verified, note, cpu)

    def untraced(self, deadline: float) -> Phase:
        phase = Phase()
        index = itertools.count()
        repeat_until(
            deadline, phase, lambda: phase.ops.append(self.op(next(index)))
        )
        return phase

    def traced(self, tracer: Tracer) -> Phase:
        phase = Phase()
        for index in range(self.TRACED_INSTANCES[self.scale]):
            gc.collect()
            tracer.begin_op(str(index))
            phase.ops.append(self.op(index))
            tracer.end_op()
        return phase

    def record(self) -> List[Op]:
        return [self.op(index) for index in range(self.params["instances"])]


# ----------------------------------------------------------------------
class SweepGrid:
    """A (template × noise rate × seed) grid on two n-node graphs.

    One fresh ``Sweep`` at a time on the process backend with ``JOBS``
    workers and no disk cache, so artifact-cache hits come only from
    within the sweep.  Op = one cell; its latency is
    ``CellResult.elapsed``.
    """

    name = "sweep_grid"
    TEMPLATES = (
        ("mis", ("mis_simple", "mis_consecutive", "mis_interleaved", "mis_parallel")),
        ("matching", ("matching_simple",)),
        ("vertex-coloring", ("coloring_simple",)),
        ("edge-coloring", ("edge_coloring_simple",)),
    )
    PARAMS = {
        "full": {"n": 1000, "rates": [0.0, 0.05, 0.3, 1.0], "seeds": 2},
        "tiny": {"n": 40, "rates": [0.0, 1.0], "seeds": 1},
    }
    #: The traced run executes every ``TRACED_STRIDE[scale]``-th cell.
    TRACED_STRIDE = {"full": 2, "tiny": 1}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.params = self.PARAMS[scale]
        self.config = RunConfig(
            fast=True, policy=ExecutionPolicy(schedule="quiescent")
        )

    def sweep(self) -> Sweep:
        n = self.params["n"]
        sweep = Sweep(name=self.name, base_seed=self.seed)
        graph_specs = {
            "reg": GraphSpec.of(
                "random_regular", n, 4, seed=derive(self.name, self.seed, "reg")
            ),
            "gnp": GraphSpec.of(
                "connected_erdos_renyi", n, 4.0 / n,
                seed=derive(self.name, self.seed, "gnp"),
            ),
        }
        run_seeds = tuple(
            derive(self.name, self.seed, "run", i)
            for i in range(self.params["seeds"])
        )
        prediction_seed = derive(self.name, self.seed, "predictions")
        for problem, names in self.TEMPLATES:
            for rate in self.params["rates"]:
                sweep.add_grid(
                    graph_specs,
                    {name: name for name in names},
                    predictions={
                        f"{problem}@{rate}": PredictionSpec.of(
                            "repro.bench.workloads:noisy_for",
                            problem, rate, seed=prediction_seed,
                        )
                    },
                    seeds=run_seeds,
                    problem=problem,
                    config=self.config,
                )
        return sweep

    def setup(self) -> None:
        SweepGrid(self.seed, "tiny").sweep().run("serial")

    @staticmethod
    def rows_to_ops(rows: Any, offset: int = 0) -> List[Op]:
        return [
            Op(str(row.index + offset), row.elapsed, row_semantic(row),
               row_ok(row), row_note(row))
            for row in rows
        ]

    def untraced(self, deadline: float) -> Phase:
        return sweeps_until(deadline, self.sweep, self.rows_to_ops)

    def traced(self, tracer: Tracer) -> Phase:
        """A stride of the grid's cells on the serial backend (spans stay
        in-process), one single-cell sweep per op sharing one fresh
        artifact cache."""
        phase = Phase()
        cache = ArtifactCache()
        for index, cell in enumerate(self.sweep().cells):
            if index % self.TRACED_STRIDE[self.scale]:
                continue
            single = Sweep(name=self.name, base_seed=self.seed)
            single.add(
                cell.label, cell.graph, cell.algorithm,
                predictions=cell.predictions, problem=cell.problem,
                seed=cell.seed, config=cell.config,
            )
            gc.collect()
            tracer.begin_op(str(index))
            result = single.run("serial", cache=cache)
            tracer.end_op()
            phase.ops.extend(self.rows_to_ops(result.rows, offset=index))
        return phase

    def record(self) -> List[Op]:
        return self.rows_to_ops(self.sweep().run("process", jobs=JOBS).rows)


# ----------------------------------------------------------------------
class ClockedStream(EpochStream):
    """Delegates to a churn stream and stamps epoch boundaries with
    ``clocks()``.

    ``DynamicRunner.run`` asks for the next batch right after finishing
    an epoch, so each request ends one op and begins the next.  The
    stream stops early once ``deadline`` has passed or ``limit`` epochs
    after epoch 0 have been handed out.
    """

    def __init__(
        self,
        inner: EpochStream,
        *,
        deadline: float = math.inf,
        limit: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.inner = inner
        self.initial_graph = inner.initial_graph
        self.epochs = inner.epochs
        self.name = inner.name
        self.deadline = deadline
        self.limit = inner.epochs if limit is None else limit
        self.tracer = tracer
        self.stamps: List[Tuple[float, float]] = []

    def start(self) -> None:
        self.stamps.append(clocks())
        if self.tracer is not None:
            self.tracer.begin_op("0")

    def batches(self) -> Iterator[Any]:
        source = iter(self.inner.batches())
        for epoch in range(1, self.limit + 1):
            self.stamps.append(clocks())
            if self.stamps[-1][0] >= self.deadline:
                break
            if self.tracer is not None:
                self.tracer.begin_op(str(epoch))
                index = self.tracer.open("dynamic.stream")
                try:
                    batch = next(source, None)
                finally:
                    self.tracer.close(index)
            else:
                batch = next(source, None)
            if batch is None:
                break
            yield batch
        else:
            self.stamps.append(clocks())
        if self.tracer is not None:
            self.tracer.end_op()


class DynamicChurn:
    """``DynamicRunner`` replaying a seeded churn stream, warm-started.

    Each epoch applies edge and node churn, carries the previous
    outputs forward as predictions, solves with ``mis_simple`` and also
    solves from scratch.  Op = one epoch.  A run replays the stream from
    epoch 0 until the deadline (restarting it if it runs out).
    """

    name = "dynamic_churn"
    PARAMS = {
        "full": {"n": 10000, "epochs": 16, "edge_churn": 100, "node_churn": 10},
        "tiny": {"n": 200, "epochs": 3, "edge_churn": 4, "node_churn": 2},
    }
    #: Epochs (epoch 0 included) the traced run replays.
    TRACED_EPOCHS = {"full": 6, "tiny": 3}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.params = self.PARAMS[scale]
        self.config = RunConfig(fast=True)
        self.policy = ExecutionPolicy(schedule="quiescent")

    def setup(self) -> None:
        warm = DynamicChurn(self.seed, "tiny")
        warm.build_stream()
        warm.replay(math.inf, None, None)
        self.build_stream()

    def build_stream(self) -> None:
        p = self.params
        base = graphs.random_regular(p["n"], 4, seed=derive(self.name, self.seed))
        self.stream = SyntheticChurnStream(
            base, p["epochs"],
            add=p["edge_churn"], remove=p["edge_churn"],
            add_nodes=p["node_churn"], remove_nodes=p["node_churn"],
            seed=derive(self.name, self.seed, "churn"),
        )

    def replay(
        self, deadline: float, limit: Optional[int], tracer: Optional[Tracer]
    ) -> Tuple[List[Op], List[Any]]:
        clocked = ClockedStream(
            self.stream, deadline=deadline, limit=limit, tracer=tracer
        )
        runner = DynamicRunner(
            algorithms.mis_simple, MIS, clocked,
            config=self.config, policy=self.policy, scratch=True,
            seed=derive(self.name, self.seed, "runner"),
        )
        clocked.start()
        rows = runner.run().rows
        ops = []
        for row in rows:
            (wall, cpu), (wall_end, cpu_end) = clocked.stamps[row.epoch : row.epoch + 2]
            semantic = row_semantic(row) + (
                -1 if row.recourse is None else row.recourse,
                row.scratch_rounds,
            )
            ops.append(
                Op(str(row.epoch), wall_end - wall, semantic, row_ok(row),
                   row_note(row), cpu_end - cpu)
            )
        return ops, rows

    def untraced(self, deadline: float) -> Phase:
        phase = Phase()

        def unit() -> None:
            started = clocks()
            try:
                ops, _ = self.replay(deadline, None, None)
            except Exception as exc:  # a replay that raises fails one op
                ops = [failed_op("replay", started, exc)]
            phase.ops.extend(ops)

        repeat_until(deadline, phase, unit)
        return phase

    def traced(self, tracer: Tracer) -> Phase:
        phase = Phase()
        gc.collect()
        phase.ops, rows = self.replay(
            math.inf, self.TRACED_EPOCHS[self.scale] - 1, tracer
        )
        later = rows[1:]
        scratch = sum(row.scratch_rounds for row in later)
        phase.layers = {
            "dynamic.warm_over_scratch_rounds": (
                sum(row.rounds for row in later) / scratch if scratch else 0.0
            ),
            "dynamic.recourse": sum(row.recourse or 0 for row in later),
        }
        return phase

    def record(self) -> List[Op]:
        self.build_stream()
        return self.replay(math.inf, None, None)[0]


# ----------------------------------------------------------------------
class EdgecutTree:
    """Greedy MIS, matching and coloring cells on the connected
    ``preorder_kary_tree(10, height)`` under ``shard="edgecut"``.

    One fresh three-cell ``Sweep`` at a time on the process backend with
    ``JOBS`` shard processes and a shared-memory graph store.  Op = one
    cell; its latency is ``CellResult.elapsed``.  The traced run also
    executes the cells unsharded, for ``shard.speedup``'s base.
    """

    name = "edgecut_tree"
    CELLS = (
        ("mis", "greedy_mis_reference", "mis"),
        ("matching", "repro.algorithms.matching:GreedyMatchingAlgorithm", "matching"),
        ("coloring", "repro.algorithms.coloring:PaletteGreedyColoringAlgorithm",
         "vertex-coloring"),
    )
    PARAMS = {"full": {"arity": 10, "height": 5}, "tiny": {"arity": 10, "height": 2}}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.scale = scale
        self.params = self.PARAMS[scale]

    def sweep(self, sharded: bool = True) -> Sweep:
        policy = ExecutionPolicy(
            schedule="quiescent",
            shard="edgecut" if sharded else None,
            share_graph=sharded,
        )
        config = RunConfig(fast=True, policy=policy)
        graph = GraphSpec.of(
            "preorder_kary_tree", self.params["arity"], self.params["height"]
        )
        sweep = Sweep(name=self.name, base_seed=self.seed)
        for label, algorithm, problem in self.CELLS:
            sweep.add(
                label, graph, algorithm, problem=problem,
                seed=derive(self.name, self.seed, label), config=config,
            )
        return sweep

    def setup(self) -> None:
        EdgecutTree(self.seed, "tiny").sweep().run("process", jobs=JOBS)

    @staticmethod
    def sharded_ops(rows: Any) -> List[Op]:
        ops = []
        for row in rows:
            ok = row_ok(row) and row.shards == JOBS
            note = row_note(row) or ("" if ok else f"ran on {row.shards} shards")
            semantic = row_semantic(row) + (row.boundary_msgs, row.boundary_bytes)
            ops.append(Op(str(row.index), row.elapsed, semantic, ok, note))
        return ops

    def untraced(self, deadline: float) -> Phase:
        return sweeps_until(deadline, self.sweep, self.sharded_ops)

    def traced(self, tracer: Tracer) -> Phase:
        """The sharded sweep, then the same cells unsharded on the serial
        backend; each unsharded row must match its sharded twin."""
        phase = Phase()
        gc.collect()
        tracer.begin_op("sharded")
        sharded = self.sweep().run("process", jobs=JOBS).rows
        gc.collect()
        tracer.begin_op("unsharded")
        unsharded = self.sweep(sharded=False).run("serial").rows
        tracer.end_op()
        phase.ops = self.sharded_ops(sharded)
        for twin, row in zip(phase.ops, unsharded):
            same = twin.semantic is not None and twin.semantic[:5] == row_semantic(row)
            note = row_note(row) or ("" if same else "differs from the sharded run")
            phase.ops.append(
                Op(f"unsharded-{row.index}", row.elapsed, row_semantic(row),
                   row_ok(row) and same, note)
            )
        sharded_s = sum(row.elapsed for row in sharded)
        unsharded_s = sum(row.elapsed for row in unsharded)
        phase.layers = {
            "shard.edgecut_cell_s": sharded_s / len(sharded),
            "shard.unsharded_cell_s": unsharded_s / len(unsharded),
            "shard.speedup": unsharded_s / sharded_s,
            "shard.boundary_msgs": sum(row.boundary_msgs or 0 for row in sharded),
            "shard.boundary_bytes": sum(row.boundary_bytes or 0 for row in sharded),
        }
        return phase

    def record(self) -> List[Op]:
        return self.sharded_ops(self.sweep().run("process", jobs=JOBS).rows)


WORKLOADS = {
    cls.name: cls for cls in (SolveLarge, SweepGrid, DynamicChurn, EdgecutTree)
}


# ----------------------------------------------------------------------
def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public callables whose spans make up the per-layer ledger."""
    for name in GENERATORS:
        tracer.install(graphs, name, "graphs.build")
    tracer.install(predictions, "noisy_predictions", "predictions.build")
    tracer.install(bench_workloads, "noisy_predictions", "predictions.build")

    def count_run(result: Any) -> None:
        tracer.counts["simulator.messages"] += result.message_count
        tracer.counts["simulator.rounds"] += result.rounds

    def engine_run_name(engine: Any, *args: Any, **kwargs: Any) -> str:
        if getattr(engine, "schedule", None) == "vectorized":
            return "kernels.run"
        if tracer.run_role is not None:
            return f"dynamic.{tracer.run_role}_run"
        return "simulator.run"

    tracer.install(SyncEngine, "__init__", "simulator.init")
    tracer.install(SyncEngine, "run", engine_run_name, on_result=count_run)
    tracer.install(backends, "execute_edgecut_cell", "shard.edgecut_run")
    tracer.install(GraphProblem, "is_solution", "problems.verify")
    tracer.install(errors, "eta1", "errors.eta1")
    tracer.install(dynamic_runner, "eta1", "errors.eta1")
    tracer.install(dynamic_runner, "apply_batch", "dynamic.apply_batch")
    tracer.install(dynamic_runner, "carry_predictions", "dynamic.carry")

    def role_run(original: Any) -> Any:
        # DynamicRunner runs the warm start first, then (from epoch 1 on)
        # the solve-from-scratch comparison.
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.run_role = "warm" if tracer.op_runs == 0 else "scratch"
            tracer.op_runs += 1
            try:
                return original(*args, **kwargs)
            finally:
                tracer.run_role = None

        return wrapper

    tracer.patch(dynamic_runner, "run", role_run)
