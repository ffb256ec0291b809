"""Tests for the collector guard and the engine lifetime it relies on.

``repro.core.runner.run`` and the edge-cut shard driver build and run
their engines with automatic cyclic collection paused, then release the
engine so reference counting frees the per-run object graph.  The guard
must hand the collector back exactly as it found it — on success, on
error, across overlapping threads and in forked children — and no run
may leave its engine behind as cyclic garbage.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import warnings
import weakref

import pytest

from repro.bench.algorithms import greedy_mis_reference, mis_simple
from repro.core import ExecutionPolicy, run
from repro.core.algorithm import FunctionalAlgorithm
from repro.exec import GraphSpec, Sweep
from repro.faults.plan import CrashFault, FaultPlan
from repro.graphs import connected_erdos_renyi, line
from repro.predictions import perfect_predictions
from repro.problems import MIS
from repro.simulator import NodeProgram, SyncEngine
from repro.simulator import collector
from repro.simulator.collector import paused_collector
from repro.simulator.engine import RoundLimitExceeded


class _Stubborn(NodeProgram):
    def compose(self, ctx):
        return {}


class _SendsAway(NodeProgram):
    def compose(self, ctx):
        return {999: "oops"} if ctx.node_id == 1 else {}


@pytest.fixture
def collector_state():
    """Snapshot the collector's state and restore it after the test."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield enabled, threshold
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def engines(monkeypatch):
    """Weak references to every engine constructed during the test."""
    refs = []
    original = SyncEngine.__init__

    def tracking_init(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(SyncEngine, "__init__", tracking_init)
    return refs


def _graph():
    return connected_erdos_renyi(40, 0.12, seed=5)


def _run_mis(graph, **kwargs):
    return run(
        mis_simple(), graph, perfect_predictions(MIS, graph, seed=1), **kwargs
    )


def _run_edgecut_cell():
    """One edge-cut cell on the serial backend (two thread drivers)."""
    sweep = Sweep(name="collector-test", base_seed=7)
    sweep.add(
        "greedy",
        GraphSpec.literal(_graph()),
        "greedy_mis_reference",
        problem="mis",
        seed=3,
        policy=ExecutionPolicy(schedule="quiescent", shard="edgecut"),
    )
    (row,) = sweep.run("serial", jobs=2).rows
    assert row.valid


# ----------------------------------------------------------------------
# The guard's contract
# ----------------------------------------------------------------------
class TestGuardRestoresState:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_collector_as_found(self, collector_state, enabled):
        gc.set_threshold(555, 7, 9)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        _run_mis(_graph())
        assert gc.isenabled() is enabled
        assert gc.get_threshold() == (555, 7, 9)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_when_run_raises(self, collector_state, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        threshold = gc.get_threshold()
        stubborn = FunctionalAlgorithm("stubborn", _Stubborn)
        with pytest.raises(RoundLimitExceeded):
            run(stubborn, line(4), max_rounds=2)
        assert gc.isenabled() is enabled
        sends_away = FunctionalAlgorithm("sends-away", _SendsAway)
        with pytest.raises(ValueError, match="non-neighbor"):
            run(sends_away, line(3))
        assert gc.isenabled() is enabled
        assert gc.get_threshold() == threshold
        assert collector._depth == 0

    def test_guard_pauses_only_an_enabled_collector(self, collector_state):
        gc.enable()
        with paused_collector():
            assert not gc.isenabled()
            with paused_collector():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        gc.disable()
        with paused_collector():
            assert not gc.isenabled()
        assert not gc.isenabled()

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_overlapping_threads_nest(self, collector_state, first_out):
        gc.enable()
        entered = threading.Barrier(3)
        leave = [threading.Event(), threading.Event()]
        left = [threading.Event(), threading.Event()]

        def worker(index):
            with paused_collector():
                entered.wait(timeout=10)
                leave[index].wait(timeout=10)
            left[index].set()

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=10)
        assert not gc.isenabled()
        assert collector._depth == 2
        leave[first_out].set()
        assert left[first_out].wait(timeout=10)
        assert not gc.isenabled()
        leave[1 - first_out].set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert gc.isenabled()
        assert collector._depth == 0

    def test_many_threads_under_frequent_switches(self, collector_state):
        """A lost update to the entry count would leave the collector
        paused (or resume it under a thread still inside the guard)."""
        gc.enable()
        errors = []

        def worker():
            for _ in range(300):
                with paused_collector():
                    if gc.isenabled():
                        errors.append("collector enabled inside the guard")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert gc.isenabled()
        assert collector._depth == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_an_enabled_collector(self, collector_state):
        gc.enable()
        with paused_collector():
            read, write = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns when a process with live threads
                # forks; the child below only writes one byte and exits.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                try:
                    ok = gc.isenabled() and collector._depth == 0
                    os.write(write, b"1" if ok else b"0")
                finally:
                    os._exit(0)
            os.close(write)
            reply = os.read(read, 1)
            os.close(read)
            os.waitpid(pid, 0)
            assert not gc.isenabled()
        assert reply == b"1"
        assert gc.isenabled()


# ----------------------------------------------------------------------
# A run leaves no garbage
# ----------------------------------------------------------------------
class TestRunLeavesNoGarbage:
    """Every engine ``run()`` builds is dead when it returns, freed by
    reference counting — none of these tests calls ``gc.collect()``."""

    @staticmethod
    def _assert_all_dead(engines):
        assert engines, "no engine was built"
        assert [ref() is None for ref in engines] == [True] * len(engines)
        assert gc.garbage == []

    @pytest.mark.parametrize(
        "schedule", ["eager", "quiescent", "quiescent-debug", "async"]
    )
    def test_interpreted_schedules(self, engines, schedule):
        _run_mis(_graph(), policy=ExecutionPolicy(schedule=schedule))
        self._assert_all_dead(engines)

    def test_vectorized_schedule(self, engines):
        result = run(
            greedy_mis_reference(),
            _graph(),
            policy=ExecutionPolicy(schedule="vectorized"),
        )
        assert result.kernel is not None
        self._assert_all_dead(engines)

    def test_profiled_run(self, engines):
        result = _run_mis(_graph(), profile=True)
        assert result.profile is not None
        self._assert_all_dead(engines)

    def test_fault_plan_run(self, engines):
        plan = FaultPlan(crashes=(CrashFault(1, 2), CrashFault(2, 3)))
        _run_mis(_graph(), faults=plan, on_round_limit="partial")
        self._assert_all_dead(engines)

    def test_raising_run(self, engines):
        stubborn = FunctionalAlgorithm("stubborn", _Stubborn)
        with pytest.raises(RoundLimitExceeded):
            run(stubborn, line(4), max_rounds=2)
        self._assert_all_dead(engines)

    def test_edgecut_cell_on_serial_backend(self, engines):
        _run_edgecut_cell()
        self._assert_all_dead(engines)

    def test_freed_without_any_collection(self, engines, collector_state):
        """With the collector disabled by the caller the guard runs no
        collection, so only the release can free the engine."""
        gc.disable()
        _run_mis(_graph(), profile=True)
        run(
            greedy_mis_reference(),
            _graph(),
            policy=ExecutionPolicy(schedule="vectorized"),
        )
        _run_edgecut_cell()
        self._assert_all_dead(engines)


def test_release_cuts_every_back_reference():
    engine = SyncEngine(
        line(5),
        lambda node: greedy_mis_reference().build_program(),
        schedule="vectorized",
        profile=True,
    )
    engine.run()
    stages = (engine._scheduler, engine._lifecycle, engine.clock, engine._kernel)
    assert all(stage.rt is engine for stage in stages)
    engine._release()
    assert all(stage.rt is None for stage in stages)
