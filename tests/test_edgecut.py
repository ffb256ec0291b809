"""Tests for edge-cut sharding: the boundary transport, the lockstep
driver, and the sweep integration.

The correctness bar is *bit identity*: an edge-cut run must reproduce the
unsharded run's observables exactly — outputs, round counts, message and
bit accounting, and failure sites — for every shard count.  The
differential fuzz below sweeps three greedy families across schedules and
shard counts; the CONGEST tests assert that a boundary message blowing
the bandwidth budget names the same round and edge as the unsharded run
(down to the exception text).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import sys
import time
import warnings

import pytest

from repro.algorithms.mis.greedy import GreedyMISProgram
from repro.bench.algorithms import (
    coloring_simple,
    greedy_mis_reference,
    matching_simple,
)
from repro.core import RunConfig, run
from repro.core.algorithm import FunctionalAlgorithm
from repro.core.runner import ExecutionPolicy
from repro.exec import GraphSpec, Sweep
from repro.graphs import (
    complete_kary_tree,
    connected_erdos_renyi,
    preorder_kary_tree,
)
from repro.kernels import UnsupportedScheduleError
from repro.predictions import perfect_predictions
from repro.problems import PROBLEMS
from repro.shard import EdgecutView, edgecut_bounds, run_edgecut
from repro.shard.edgecut import EdgecutPlan
from repro.shard import store as store_module
from repro.simulator.engine import RoundLimitExceeded
from repro.simulator.models import strict_congest
from repro.simulator.transport import BandwidthExceeded

#: (algorithm factory, problem name, needs predictions) — one greedy
#: family per problem class exercised by the differential fuzz.
FAMILIES = (
    (greedy_mis_reference, "mis", False),
    (matching_simple, "matching", True),
    (coloring_simple, "vertex-coloring", True),
)

OBSERVABLES = (
    "rounds",
    "rounds_executed",
    "message_count",
    "total_bits",
    "max_message_bits",
)


def _fuzz_graph(seed, n=60, p=0.08):
    return connected_erdos_renyi(n, p, seed=seed)


def _setup(factory, problem_name, needs_predictions, graph, seed):
    algorithm = factory()
    predictions = None
    if needs_predictions:
        problem = PROBLEMS[problem_name]
        predictions = perfect_predictions(problem, graph, seed=seed)
    return algorithm, predictions


def _assert_identical(sharded, reference):
    assert sharded.outputs == reference.outputs
    for name in OBSERVABLES:
        assert getattr(sharded, name) == getattr(reference, name), name


# ----------------------------------------------------------------------
# Partition plan
# ----------------------------------------------------------------------
class TestEdgecutPlan:
    def test_bounds_partition_the_id_space(self):
        for n in (1, 2, 7, 60, 61):
            for shards in (2, 3, 5, 8):
                bounds = edgecut_bounds(n, shards)
                assert bounds[0] == 0 and bounds[-1] == n
                assert all(a <= b for a, b in zip(bounds, bounds[1:]))
                sizes = [b - a for a, b in zip(bounds, bounds[1:])]
                assert max(sizes) - min(sizes) <= 1

    def test_view_pins_parent_ambient_quantities(self):
        graph = _fuzz_graph(1)
        view = EdgecutView(graph, 0, 3)
        assert view.n == graph.n
        assert view.d == graph.d
        assert view.delta == graph.delta
        assert view.is_edgecut
        assert set(view.nodes) < set(graph.nodes)
        # Neighbor lists come from the parent: they may cross the cut.
        for node in view.nodes:
            assert view.neighbors(node) == graph.neighbors(node)

    def test_views_partition_the_nodes(self):
        graph = _fuzz_graph(2)
        shards = 4
        seen = []
        for shard in range(shards):
            seen.extend(EdgecutView(graph, shard, shards).nodes)
        assert sorted(seen) == sorted(graph.nodes)


    def test_boundary_nodes_are_the_owned_cut_endpoints(self):
        for seed, shards in ((3, 2), (4, 3), (5, 5)):
            graph = _fuzz_graph(seed)
            for shard in range(shards):
                view = EdgecutView(graph, shard, shards)
                owned = set(view.nodes)
                assert view.boundary_nodes() == {
                    node
                    for node in owned
                    if any(other not in owned for other in graph.neighbors(node))
                }


class TestBoundaryEvents:
    """Only cut-node lifecycle events cross the coordinator."""

    def test_events_reaching_decide_track_the_cut_not_n(self, monkeypatch):
        submitted = []
        decide = EdgecutPlan.decide

        def counting_decide(plan, round_index, submissions):
            submitted.extend(
                event for events, *_ in submissions.values() for event in events
            )
            return decide(plan, round_index, submissions)

        monkeypatch.setattr(EdgecutPlan, "decide", counting_decide)
        graph = preorder_kary_tree(10, 5)  # ptree:10:5, n = 111 111
        result = run_edgecut(
            greedy_mis_reference(), graph,
            config=RunConfig(seed=1, fast=True), shard_count=2,
        )
        assert len(result.outputs) == graph.n
        boundary = set()
        for shard in range(2):
            boundary |= EdgecutView(graph, shard, 2).boundary_nodes()
        # Every boundary node terminates once; nothing else is exported.
        assert sorted(event[1] for event in submitted) == sorted(boundary)
        assert len(submitted) <= 2 * 10 * 5


# ----------------------------------------------------------------------
# Differential fuzz: sharded ≡ unsharded
# ----------------------------------------------------------------------
class TestDifferentialFuzz:
    @pytest.mark.parametrize("factory,problem,needs", FAMILIES)
    @pytest.mark.parametrize("schedule", ("eager", "quiescent"))
    def test_families_and_schedules(self, factory, problem, needs, schedule):
        for seed in (11, 12):
            graph = _fuzz_graph(seed)
            algorithm, predictions = _setup(factory, problem, needs, graph, seed)
            config = RunConfig(
                seed=seed, policy=ExecutionPolicy(schedule=schedule)
            )
            reference = run(algorithm, graph, predictions, config=config)
            for shards in (2, 3, 5):
                sharded = run_edgecut(
                    _setup(factory, problem, needs, graph, seed)[0],
                    graph,
                    predictions,
                    config=config,
                    shard_count=shards,
                )
                _assert_identical(sharded, reference)

    def test_many_shard_counts_including_excess(self):
        """Shard counts up to (and past) the point where shards own a
        handful of nodes each — empty frontiers must not desync the
        barrier."""
        graph = _fuzz_graph(21, n=40)
        algorithm = greedy_mis_reference()
        reference = run(algorithm, graph, seed=5)
        for shards in (2, 4, 8):
            sharded = run_edgecut(
                greedy_mis_reference(),
                graph,
                config=RunConfig(seed=5),
                shard_count=shards,
            )
            _assert_identical(sharded, reference)

    def test_thread_drivers_under_frequent_switches(self):
        """Thread drivers build their engines concurrently over one shared
        graph and algorithm; forcing a thread switch every microsecond,
        with more shards than cores, must not change any observable."""
        graph = _fuzz_graph(22, n=80)
        algorithm, predictions = _setup(
            coloring_simple, "vertex-coloring", True, graph, 6
        )
        config = RunConfig(seed=6, policy=ExecutionPolicy(schedule="quiescent"))
        reference = run(algorithm, graph, predictions, config=config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            sharded = run_edgecut(
                algorithm, graph, predictions, config=config, shard_count=8
            )
            assert time.perf_counter() - started < 60
        finally:
            sys.setswitchinterval(interval)
        _assert_identical(sharded, reference)
        assert sharded.records.keys() == reference.records.keys()

    def test_preorder_tree_round_count_is_depth_bounded(self):
        graph = preorder_kary_tree(3, 5)
        reference = run(greedy_mis_reference(), graph, seed=1)
        assert reference.rounds <= 5 + 2
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=RunConfig(seed=1), shard_count=4
        )
        _assert_identical(sharded, reference)

    def test_complete_kary_tree_bfs_ids_also_identical(self):
        """BFS-numbered trees cut far more edges per block — identity
        must hold regardless of how unfriendly the partition is."""
        graph = complete_kary_tree(3, 4)
        reference = run(greedy_mis_reference(), graph, seed=9)
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=RunConfig(seed=9), shard_count=3
        )
        _assert_identical(sharded, reference)


# ----------------------------------------------------------------------
# CONGEST accounting parity (satellite: same round, same edge)
# ----------------------------------------------------------------------
class TestCongestParity:
    def test_total_bits_identical_under_congest(self):
        graph = _fuzz_graph(31)
        config = RunConfig(seed=3, model=strict_congest(factor=32))
        reference = run(greedy_mis_reference(), graph, config=config)
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=config, shard_count=3
        )
        _assert_identical(sharded, reference)

    def test_bandwidth_exceeded_names_same_round_and_edge(self):
        """A boundary message that blows the strict-CONGEST budget must
        raise with the *same* sender, receiver and round as the
        unsharded run — byte-for-byte the same message."""
        graph = _fuzz_graph(31)
        config = RunConfig(seed=3, model=strict_congest(factor=1))
        with pytest.raises(BandwidthExceeded) as reference:
            run(greedy_mis_reference(), graph, config=config)
        for shards in (2, 3, 4, 5):
            with pytest.raises(BandwidthExceeded) as sharded:
                run_edgecut(
                    greedy_mis_reference(),
                    graph,
                    config=config,
                    shard_count=shards,
                )
            assert str(sharded.value) == str(reference.value)


# ----------------------------------------------------------------------
# Round-limit and partial-result parity
# ----------------------------------------------------------------------
class TestLimitParity:
    def test_round_limit_raises_identically(self):
        graph = _fuzz_graph(41)
        config = RunConfig(seed=2, max_rounds=2)
        with pytest.raises(RoundLimitExceeded) as reference:
            run(greedy_mis_reference(), graph, config=config)
        with pytest.raises(RoundLimitExceeded) as sharded:
            run_edgecut(
                greedy_mis_reference(), graph, config=config, shard_count=3
            )
        assert str(sharded.value) == str(reference.value)

    def test_partial_result_and_stuck_report_match(self):
        graph = _fuzz_graph(42)
        config = RunConfig(seed=2, max_rounds=2, on_round_limit="partial")
        reference = run(greedy_mis_reference(), graph, config=config)
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=config, shard_count=3
        )
        _assert_identical(sharded, reference)
        assert reference.stuck is not None and sharded.stuck is not None
        assert sharded.stuck.live_nodes == reference.stuck.live_nodes
        assert sharded.stuck.round == reference.stuck.round
        assert sharded.stuck.total_nodes == reference.stuck.total_nodes
        assert sharded.stuck.reason == reference.stuck.reason

    def test_deadline_starts_after_shard_setup(self):
        """The deadline clock starts at the round-0 barrier, after every
        shard built its engine — as SyncEngine.run starts it after init.
        Engine construction here outlasts the deadline; the round loop
        is far shorter, so both runs complete."""

        def slow_program():
            time.sleep(0.02)
            return GreedyMISProgram()

        algorithm = FunctionalAlgorithm(
            "slow-init-greedy-mis",
            slow_program,
            round_bound=lambda n, delta, d: n + 1,
            safe_pause_interval=2,
        )
        graph = preorder_kary_tree(3, 3)  # 40 nodes: >= 0.4 s of init
        config = RunConfig(
            seed=3,
            policy=ExecutionPolicy(schedule="quiescent", deadline_s=0.3),
        )
        reference = run(algorithm, graph, config=config)
        sharded = run_edgecut(algorithm, graph, config=config, shard_count=2)
        assert reference.stuck is None
        assert sharded.stuck is None
        _assert_identical(sharded, reference)


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
class TestGuards:
    def test_policy_rejects_unknown_shard_mode(self):
        with pytest.raises(ValueError, match="shard"):
            ExecutionPolicy(shard="edges")

    def test_shard_count_below_two_rejected(self):
        graph = _fuzz_graph(51, n=20)
        with pytest.raises(ValueError, match="shard"):
            run_edgecut(greedy_mis_reference(), graph, shard_count=1)

    def test_trace_rejected(self):
        graph = _fuzz_graph(51, n=20)
        with pytest.raises(ValueError, match="trace"):
            run_edgecut(
                greedy_mis_reference(),
                graph,
                config=RunConfig(trace=True),
                shard_count=2,
            )

    def test_vectorized_kernels_rejected(self):
        graph = _fuzz_graph(52, n=20)
        config = RunConfig(
            policy=ExecutionPolicy(schedule="vectorized", shard="edgecut")
        )
        with pytest.raises(UnsupportedScheduleError, match="edge-cut"):
            run_edgecut(
                greedy_mis_reference(), graph, config=config, shard_count=2
            )

    def test_vectorized_fallback_interprets_identically(self):
        graph = _fuzz_graph(52, n=30)
        config = RunConfig(
            seed=4,
            policy=ExecutionPolicy(
                schedule="vectorized", shard="edgecut", fallback="interpret"
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sharded = run_edgecut(
                greedy_mis_reference(), graph, config=config, shard_count=2
            )
        reference = run(
            greedy_mis_reference(),
            graph,
            config=RunConfig(
                seed=4, policy=ExecutionPolicy(schedule="quiescent")
            ),
        )
        _assert_identical(sharded, reference)


# ----------------------------------------------------------------------
# Sweep integration: serial and process backends
# ----------------------------------------------------------------------
def _edgecut_sweep(graph, *, shard=None, schedule="quiescent", share=False):
    sweep = Sweep(name="edgecut-test", base_seed=7)
    policy = ExecutionPolicy(schedule=schedule, shard=shard, share_graph=share)
    spec = GraphSpec.literal(graph)
    for seed in (11, 12):
        sweep.add(
            f"greedy-s{seed}",
            spec,
            "greedy_mis_reference",
            problem="mis",
            seed=seed,
            policy=policy,
        )
    return sweep


class TestSweepIntegration:
    def test_serial_backend_rows_are_equivalent(self):
        graph = _fuzz_graph(61, n=120)
        reference = _edgecut_sweep(graph).run("serial")
        sharded = _edgecut_sweep(graph, shard="edgecut").run("serial", jobs=3)
        assert sharded.equivalent_to(reference)
        assert all(row.valid for row in sharded.rows)
        for row in sharded.rows:
            assert row.shards == 3
            assert row.boundary_msgs > 0
            assert row.boundary_bytes > 0

    def test_process_backend_matches_serial_with_store(self):
        graph = _fuzz_graph(61, n=120)
        reference = _edgecut_sweep(graph).run("serial")
        sharded = _edgecut_sweep(graph, shard="edgecut", share=True).run(
            "process", jobs=3
        )
        assert sharded.equivalent_to(reference)
        thread_rows = _edgecut_sweep(graph, shard="edgecut").run(
            "serial", jobs=3
        )
        for process_row, thread_row in zip(sharded.rows, thread_rows.rows):
            assert process_row.boundary_msgs == thread_row.boundary_msgs
            assert process_row.boundary_bytes == thread_row.boundary_bytes

    def test_telemetry_sums_boundary_counters(self):
        graph = _fuzz_graph(62, n=80)
        sharded = _edgecut_sweep(graph, shard="edgecut").run("serial", jobs=2)
        telemetry = sharded.telemetry()
        assert telemetry["boundary_msgs_total"] == sum(
            row.boundary_msgs for row in sharded.rows
        )
        assert telemetry["boundary_bytes_total"] == sum(
            row.boundary_bytes for row in sharded.rows
        )
        assert telemetry["boundary_msgs_total"] > 0

    def test_single_job_degrades_to_unsharded_cell(self):
        graph = _fuzz_graph(63, n=40)
        result = _edgecut_sweep(graph, shard="edgecut").run("serial", jobs=1)
        reference = _edgecut_sweep(graph).run("serial")
        assert result.equivalent_to(reference)
        for row in result.rows:
            assert not row.shards

    def test_single_cell_sweep_follows_the_process_backend(self, monkeypatch):
        """One edge-cut cell on the process backend still runs its shards
        in worker processes, and the result reports that backend."""
        starts = []
        original_start = multiprocessing.Process.start

        def counting_start(process):
            starts.append(process)
            return original_start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
        graph = _fuzz_graph(64, n=80)
        sweep = Sweep(name="one-edgecut-cell", base_seed=5)
        sweep.add(
            "only",
            GraphSpec.literal(graph),
            "greedy_mis_reference",
            problem="mis",
            seed=3,
            policy=ExecutionPolicy(schedule="quiescent", shard="edgecut"),
        )
        result = sweep.run("process", jobs=2)
        assert result.backend == "process"
        assert len(starts) == 2
        (row,) = result.rows
        assert row.shards == 2 and row.valid
        threads = sweep.run("serial", jobs=2)
        assert threads.backend == "serial"
        assert result.equivalent_to(threads)
        assert row.boundary_msgs == threads.rows[0].boundary_msgs
        assert row.boundary_bytes == threads.rows[0].boundary_bytes

    def test_spawn_denied_falls_back_to_thread_drivers(self, monkeypatch):
        """When the platform refuses to start shard processes the sweep
        reruns serially on thread drivers — same rows, boundary counters
        included — says so, and leaves no shared-memory segment behind."""
        stores = []
        original_init = store_module.SharedCSRStore.__init__

        def tracking_init(store, *args, **kwargs):
            original_init(store, *args, **kwargs)
            stores.append(store)

        def denied_start(process):
            raise PermissionError(1, "process spawning denied")

        graph = _fuzz_graph(65, n=100)
        serial = _edgecut_sweep(graph, shard="edgecut").run("serial", jobs=2)
        monkeypatch.setattr(store_module.SharedCSRStore, "__init__", tracking_init)
        monkeypatch.setattr(multiprocessing.Process, "start", denied_start)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = _edgecut_sweep(graph, shard="edgecut", share=True).run(
                "process", jobs=2
            )
        assert result.backend == "serial"
        assert result.requested_backend == "process"

        def observed(rows):
            return [
                (row.as_tuple(), row.shards, row.boundary_msgs, row.boundary_bytes)
                for row in rows
            ]

        assert observed(result.rows) == observed(serial.rows)
        assert stores, "the process drivers never tried to publish the graph"
        assert all(store.closed and len(store) == 0 for store in stores)
        assert not glob.glob(f"/dev/shm/repro-csr-{os.getpid()}-*")
