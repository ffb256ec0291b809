"""The capability table: every cell, through every entry point that reads it.

:mod:`repro.simulator.capability` decides, once and before any engine or
shard driver exists, whether a combination of schedule × shard mode ×
faults × trace/sinks × profile × shard count (× custom metrics, for sweep
cells) runs, is refused, or is downgraded with one warning.  These tests
walk every cell of the table through the sweep dispatch, through
:func:`repro.core.run` and through :func:`repro.shard.run_edgecut`, with
the engine and the shard drivers replaced by sentinels, and check that
each entry point does exactly what the table says.
"""

from __future__ import annotations

import warnings

import pytest

from repro.bench.algorithms import greedy_mis_reference
from repro.core import RunConfig, run
from repro.core.runner import ExecutionPolicy
from repro.exec import GraphSpec, Sweep
from repro.faults import FaultPlan
from repro.graphs import preorder_kary_tree, ring
from repro.kernels import UnsupportedScheduleError
from repro.shard import run_edgecut
from repro.simulator.capability import (
    FEATURES,
    SCHEDULES,
    CapabilityError,
    cells,
    decide,
)
from repro.simulator.scheduling import SCHEDULERS

#: A word each refusal or downgrade message must contain for its axis.
AXIS_WORDS = {
    "shard": "shard",
    "shard_count": "shard count",
    "faults": "fault",
    "trace": "trace",
    "profile": "profil",
    "metrics": "metrics",
}


class _Reached(Exception):
    """Raised by a sentinel standing in for an engine or a shard driver."""

    def __init__(self, kind, schedule):
        super().__init__(kind, schedule)
        self.kind = kind
        self.schedule = schedule


def _metrics(**kwargs):
    return {}


def _expect(verdict, call):
    """Run ``call`` and check it against ``verdict``: a refusal raises
    its type naming its axis and reaches nothing; otherwise it warns
    exactly once per downgrade and reaches the sentinel with what the
    table says runs.  Returns the :class:`_Reached` sentinel, if any."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if verdict.action == "refuse":
            with pytest.raises(verdict.error) as refused:
                call()
            assert AXIS_WORDS[verdict.axes[-1]] in str(refused.value)
            assert not isinstance(refused.value, _Reached)
            reached = None
        else:
            with pytest.raises(_Reached) as sentinel:
                call()
            reached = sentinel.value
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if verdict.action == "downgrade":
        assert len(runtime) == 1, [str(w.message) for w in runtime]
        for axis in verdict.axes:
            assert AXIS_WORDS[axis] in str(runtime[0].message)
    else:
        assert runtime == []
    return reached


# ----------------------------------------------------------------------
# The table itself
# ----------------------------------------------------------------------
class TestTable:
    def test_schedule_axis_is_the_scheduler_registry(self):
        assert list(SCHEDULES) == list(SCHEDULERS)

    def test_every_cell_has_one_consistent_verdict(self):
        seen = 0
        for key, verdict in cells():
            seen += 1
            schedule, fallback, shard, count, *_ = key
            if verdict.action == "run":
                assert verdict.axes == ()
                assert (verdict.schedule, verdict.shard) == (schedule, shard)
            else:
                assert verdict.axes
                for axis in verdict.axes:
                    assert AXIS_WORDS[axis] in verdict.message
            if verdict.action == "downgrade":
                assert "running unsharded" in verdict.message or (
                    "falling back" in verdict.message
                )
                assert not SCHEDULES[verdict.schedule]["kernels"] or (
                    verdict.schedule == schedule
                )
        assert seen == 512

    def test_strict_callers_refuse_every_shard_downgrade(self):
        for key, verdict in cells():
            schedule, fallback, shard, count, *flags = key
            strict = decide(
                schedule, shard=shard, shard_count=count, fallback=fallback,
                **dict(zip(FEATURES, flags)),
                strict=True,
            )
            if shard is not None and verdict.shard is None:
                assert strict.action == "refuse"
                assert strict.error is CapabilityError
            elif verdict.action != "refuse":
                assert strict == verdict


# ----------------------------------------------------------------------
# Every cell through every entry point
# ----------------------------------------------------------------------
@pytest.fixture
def sentinels(monkeypatch):
    """Replace every engine construction and shard driver by a sentinel."""
    import repro.core.runner as runner
    import repro.exec.backends as backends
    import repro.shard.edgecut as edgecut

    def engine(graph, programs, *, schedule, **kwargs):
        raise _Reached(None, schedule)

    def edgecut_cell(index, cell, *args, **kwargs):
        raise _Reached("edgecut", cell.config.schedule)

    def component_shard(index, cell, *args, **kwargs):
        raise _Reached("components", cell.config.schedule)

    def unsharded_cell(index, cell, *args, **kwargs):
        raise _Reached(None, cell.config.schedule)

    def shard_drivers(plan, algorithm, predictions, config, model, **kwargs):
        raise _Reached("edgecut", config.schedule)

    monkeypatch.setattr(runner, "SyncEngine", engine)
    monkeypatch.setattr(backends, "execute_edgecut_cell", edgecut_cell)
    monkeypatch.setattr(backends, "execute_shard", component_shard)
    monkeypatch.setattr(backends, "_execute_cell", unsharded_cell)
    monkeypatch.setattr(edgecut, "_run_shards", shard_drivers)


class TestEntryPoints:
    def test_sweep_dispatch_follows_every_cell(self, sentinels):
        graph = GraphSpec.literal(ring(6))
        for key, verdict in cells():
            schedule, fallback, shard, count, faults, trace, profile, metrics = key
            sweep = Sweep(name="table").add(
                "cell",
                graph,
                "greedy_mis_reference",
                faults=FaultPlan() if faults else None,
                metrics=_metrics if metrics else None,
                config=RunConfig(
                    trace=trace,
                    policy=ExecutionPolicy(
                        schedule=schedule, fallback=fallback, shard=shard
                    ),
                ),
            )
            reached = _expect(
                verdict,
                lambda: sweep.run("serial", jobs=count, profile=profile),
            )
            if reached is not None:
                assert (reached.kind, reached.schedule) == (
                    verdict.shard, verdict.schedule,
                ), key

    def test_run_follows_every_unsharded_cell(self, sentinels):
        graph = ring(6)
        for key, verdict in cells():
            schedule, fallback, shard, count, faults, trace, profile, metrics = key
            if shard is not None or metrics or count != 2:
                continue
            config = RunConfig(
                faults=FaultPlan() if faults else None,
                trace=trace,
                profile=profile,
                policy=ExecutionPolicy(schedule=schedule, fallback=fallback),
            )
            reached = _expect(
                verdict, lambda: run(greedy_mis_reference(), graph, config=config)
            )
            if reached is not None:
                assert reached.schedule == verdict.schedule, key

    def test_run_edgecut_follows_every_edgecut_cell_strictly(self, sentinels):
        graph = ring(6)
        for key, _ in cells():
            schedule, fallback, shard, count, faults, trace, profile, metrics = key
            if shard != "edgecut" or metrics:
                continue
            verdict = decide(
                schedule, shard=shard, shard_count=count, faults=faults,
                trace=trace, profile=profile, fallback=fallback, strict=True,
            )
            config = RunConfig(
                faults=FaultPlan() if faults else None,
                trace=trace,
                profile=profile,
                policy=ExecutionPolicy(schedule=schedule, fallback=fallback),
            )
            reached = _expect(
                verdict,
                lambda: run_edgecut(
                    greedy_mis_reference(), graph, config=config,
                    shard_count=count,
                ),
            )
            if reached is not None:
                assert reached.schedule == verdict.schedule, key


# ----------------------------------------------------------------------
# Policies the table refuses at construction
# ----------------------------------------------------------------------
class TestPolicyRefusals:
    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({"schedule": "async", "shard": "components"}, "async"),
            ({"schedule": "async", "shard": "edgecut"}, "async"),
        ],
        ids=["async-components", "async-edgecut"],
    )
    def test_refused_policy(self, fields, fragment):
        with pytest.raises(ValueError, match=fragment):
            ExecutionPolicy(**fields)


# ----------------------------------------------------------------------
# Regressions: decisions that used to be taken per shard, or not at all
# ----------------------------------------------------------------------
def _edgecut_sweep(graph, **policy):
    return Sweep(name="edgecut", base_seed=3).add(
        "greedy",
        GraphSpec.literal(graph),
        "greedy_mis_reference",
        problem="mis",
        policy=ExecutionPolicy(shard="edgecut", **policy),
    )


class TestEdgecutDecidedOnce:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_vectorized_edgecut_refuses_with_one_type(self, backend):
        graph = preorder_kary_tree(3, 3)
        with pytest.raises(UnsupportedScheduleError, match="edge-cut"):
            _edgecut_sweep(graph, schedule="vectorized").run(backend, jobs=2)

    def test_vectorized_fallback_warns_once_not_per_shard(self):
        graph = preorder_kary_tree(3, 3)
        config = RunConfig(
            policy=ExecutionPolicy(schedule="vectorized", fallback="interpret")
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sharded = run_edgecut(
                greedy_mis_reference(), graph, config=config, shard_count=3
            )
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "falling back" in str(runtime[0].message)
        reference = run(
            greedy_mis_reference(), graph,
            policy=ExecutionPolicy(schedule="quiescent"),
        )
        assert sharded.outputs == reference.outputs
        assert sharded.rounds == reference.rounds


class TestSweepDowngradesWarn:
    @pytest.mark.parametrize("events", [False, True], ids=["trace", "events"])
    def test_traced_edgecut_cell_warns_and_runs_unsharded(self, events):
        graph = preorder_kary_tree(3, 3)
        sweep = Sweep(name="edgecut", base_seed=3).add(
            "greedy",
            GraphSpec.literal(graph),
            "greedy_mis_reference",
            problem="mis",
            config=RunConfig(trace=not events),
            policy=ExecutionPolicy(shard="edgecut"),
        )
        with pytest.warns(RuntimeWarning, match="trace.*running unsharded"):
            result = sweep.run("serial", jobs=2, events=events)
        assert result.rows[0].shards is None
        assert result.rows[0].valid

    def test_single_shard_edgecut_cell_warns_and_runs_unsharded(self):
        graph = preorder_kary_tree(3, 3)
        with pytest.warns(RuntimeWarning, match="shard count.*running unsharded"):
            result = _edgecut_sweep(graph).run("serial", jobs=1)
        assert result.rows[0].shards is None
        assert result.rows[0].valid

    def test_one_warning_per_distinct_downgrade(self):
        graph = GraphSpec.literal(preorder_kary_tree(3, 2))
        sweep = Sweep(name="many", base_seed=3)
        for seed in range(4):
            sweep.add(
                f"s{seed}", graph, "greedy_mis_reference", problem="mis",
                seed=seed, policy=ExecutionPolicy(shard="edgecut"),
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sweep.run("serial", jobs=1)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert all(row.shards is None for row in result.rows)
