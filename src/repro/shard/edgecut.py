"""Edge-cut sharded execution: connected graphs across round-lockstep shards.

Component sharding (:mod:`repro.shard.plan`) splits a cell only along
connected components; a single connected graph still runs in one engine.
This module shards *through* the edges: the identifier space is block
partitioned (:func:`~repro.shard.plan.edgecut_node_ids`), each shard runs
a full :class:`~repro.simulator.engine.SyncEngine` over an
:class:`~repro.shard.plan.EdgecutView` of its contiguous block, and the
messages that cross the cut travel through a per-round barrier.

There is one coordinator (:func:`_run_shards`): it starts one shard
driver (:func:`_drive_shard`) per block, routes every barrier in
lockstep through an :class:`EdgecutPlan` and merges the shard results
once (:func:`_merge_results`).  Only the kind of driver varies:

* **threads** (``serial`` backend, :func:`run_edgecut`, and any sweep
  whose platform denies spawning) — each driver is a thread of this
  process, wired to the coordinator by an in-process loopback pair that
  hands objects over by reference;
* **processes** (``process`` backend) — each driver is a dedicated
  :class:`multiprocessing.Process` wired by a pipe; it builds the
  algorithm and predictions from the cell's specs, attaches the graph
  zero-copy through an active :class:`~repro.shard.store.SharedCSRStore`
  and keeps its per-node records.

Bit-identity with the unsharded run rests on the invariants documented in
:class:`~repro.simulator.transport.BoundaryTransport` (ascending-sender
inbox merges, deferred globally-ordered strict-CONGEST violations) plus
two driver-side rules:

* **Global event order** — terminations are never published shard-locally;
  every shard exports them and the coordinator broadcasts one globally
  sorted list per round, reproducing the unsharded per-round
  ``neighbor_outputs`` insertion order.
* **Global continuation** — the run continues while the *sum* of shard
  active counts is positive, and the violation / deadline /
  ``on_round_limit`` decisions are taken once, centrally, with the same
  precedence as :meth:`SyncEngine.run`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time
import traceback
from bisect import bisect_right
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.graphs.graph import DistGraph
from repro.shard.plan import EdgecutView, edgecut_bounds
from repro.shard.store import SharedCSRStore, reset_worker_state
from repro.simulator.collector import paused_collector
from repro.simulator.engine import RoundLimitExceeded, SyncEngine
from repro.simulator.metrics import RunResult, StuckReport
from repro.simulator.transport import BoundaryTransport, bandwidth_error

if TYPE_CHECKING:  # lazy at runtime: repro.exec imports this module.
    from repro.exec.cache import ArtifactCache
    from repro.exec.plan import Cell
    from repro.exec.results import CellResult

_PICKLE = pickle.HIGHEST_PROTOCOL

#: Schedules whose round loops carry the boundary hooks.  ``vectorized``
#: reaches the kernel resolver, which rejects edge-cut views (or
#: downgrades via ``fallback="interpret"``); ``async`` is rejected by
#: :class:`~repro.core.runner.ExecutionPolicy` before a driver exists.
_SUPPORTED_SCHEDULES = ("eager", "quiescent", "quiescent-debug", "vectorized")


class EdgecutPlan:
    """Routing + continuation policy for one edge-cut run.

    The coordinator delegates every barrier to one plan instance: message
    routing, event ordering, violation adjudication and the continue/stop
    decision are single-sourced here.  The plan also owns the run's
    boundary telemetry — each shard's per-round outbound batch is
    serialized and its size accumulated into
    ``boundary_bytes``/``boundary_msgs`` (thread drivers hand batches
    over unserialized, so this pickle is purely the measurement, and both
    driver kinds report the same numbers).
    """

    def __init__(
        self,
        graph: DistGraph,
        shard_count: int,
        *,
        max_rounds: int,
        on_round_limit: str,
        deadline_s: Optional[float],
        bandwidth_budget: int,
    ) -> None:
        self.graph = graph
        self.shard_count = shard_count
        bounds = edgecut_bounds(len(graph.nodes), shard_count)
        #: First owned identifier of each shard, for owner lookup.
        self._starts = [graph.nodes[b] for b in bounds[:-1]]
        self.max_rounds = max_rounds
        self.on_round_limit = on_round_limit
        self.deadline_s = deadline_s
        #: Armed at the round-0 barrier (see :meth:`decide`).
        self.deadline: Optional[float] = None
        self.bandwidth_budget = bandwidth_budget
        self.boundary_msgs = 0
        self.boundary_bytes = 0

    def owner(self, node: int) -> int:
        """The shard owning ``node``'s mailbox."""
        return bisect_right(self._starts, node) - 1

    # -- per-round message phase ---------------------------------------
    def route_messages(
        self, batches: Mapping[int, List[tuple]]
    ) -> Dict[int, List[tuple]]:
        """Route every shard's outbound batch to its receivers' shards.

        Each inbound list is sorted by ``(sender, seq)`` — ascending
        compose order — so delivery and accounting at the receiving shard
        walk the same order the unsharded compose loop would have.
        """
        routed: Dict[int, List[tuple]] = {
            shard: [] for shard in range(self.shard_count)
        }
        owner = self.owner
        for shard in sorted(batches):
            batch = batches[shard]
            if not batch:
                continue
            self.boundary_msgs += len(batch)
            self.boundary_bytes += len(pickle.dumps(batch, _PICKLE))
            for message in batch:
                routed[owner(message[2])].append(message)
        for inbound in routed.values():
            inbound.sort(key=lambda message: (message[0], message[1]))
        return routed

    # -- per-round event phase -----------------------------------------
    def decide(
        self, round_index: int, submissions: Mapping[int, tuple]
    ) -> Dict[int, tuple]:
        """Merge the round's events and pick the global continuation.

        ``submissions`` maps shard -> ``(events, active_count, preview,
        violations)`` as drained at the barrier after ``round_index``
        rounds have executed.  Returns per-shard ``(events, command,
        extra)`` replies; the events list is globally sorted
        (terminations before crashes, each ascending by node, matching
        the unsharded publication order) and routed only to shards
        owning at least one neighbor of the event node.  Decision
        precedence mirrors :meth:`SyncEngine.run`: a strict violation
        aborts first (it would have raised mid-round unsharded), then
        global quiescence stops the run, then the wall-clock deadline,
        then the round budget.  The deadline clock starts at the round-0
        barrier — after every shard's engine construction and setup, as
        :meth:`SyncEngine.run` starts its own.
        """
        if round_index == 0 and self.deadline_s is not None:
            self.deadline = time.perf_counter() + self.deadline_s
        events: List[tuple] = []
        violations: List[tuple] = []
        total_active = 0
        preview: List[int] = []
        for shard in sorted(submissions):
            shard_events, active, shard_preview, shard_violations = (
                submissions[shard]
            )
            events.extend(shard_events)
            violations.extend(shard_violations)
            total_active += active
            preview.extend(shard_preview)
        events.sort(key=lambda event: (event[0] != "terminate", event[1]))

        command = "continue"
        extra: Any = None
        if violations:
            sender, seq, receiver, bits = min(violations)
            command = "violation"
            extra = (bits, self.bandwidth_budget, sender, receiver, round_index)
        elif total_active == 0:
            command = "stop"
        elif self.deadline is not None and time.perf_counter() >= self.deadline:
            command = "deadline"
        elif round_index >= self.max_rounds:
            if self.on_round_limit == "partial":
                command = "round-limit-partial"
            else:
                command = "round-limit"
                extra = (total_active, sorted(preview)[:10])

        owner = self.owner
        neighbors = self.graph.neighbors
        routed: Dict[int, List[tuple]] = {
            shard: [] for shard in range(self.shard_count)
        }
        for event in events:
            for shard in {owner(v) for v in neighbors(event[1])}:
                routed[shard].append(event)
        return {
            shard: (routed[shard], command, extra)
            for shard in range(self.shard_count)
        }

    def raise_for(self, command: str, extra: Any) -> None:
        """Re-raise the exception a stopping command stands for, if any."""
        if command == "violation":
            bits, budget, sender, receiver, round_index = extra
            raise bandwidth_error(bits, budget, sender, receiver, round_index)
        if command == "round-limit":
            total_active, preview = extra
            raise RoundLimitExceeded(
                f"{total_active} node(s) still active after "
                f"{self.max_rounds} rounds: {preview}"
            )




# ----------------------------------------------------------------------
# Connections between the coordinator and its shard drivers
# ----------------------------------------------------------------------
_CLOSED = object()


class _Loopback:
    """One end of an in-process duplex connection (the thread drivers').

    ``send``/``recv``/``close`` mirror :func:`multiprocessing.Pipe`
    connections, but objects pass by reference — nothing is pickled —
    and closing an end makes every later ``recv`` on the peer raise
    :class:`EOFError`, as a closed pipe does.
    """

    __slots__ = ("_inbox", "_outbox")

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
        self._inbox = inbox
        self._outbox = outbox

    def send(self, obj: Any) -> None:
        self._outbox.put(obj)

    def recv(self) -> Any:
        obj = self._inbox.get()
        if obj is _CLOSED:
            self._inbox.put(_CLOSED)  # stay closed for later calls
            raise EOFError
        return obj

    def close(self) -> None:
        self._outbox.put(_CLOSED)


def _loopback_pair() -> Tuple[_Loopback, _Loopback]:
    forward: queue.SimpleQueue = queue.SimpleQueue()
    backward: queue.SimpleQueue = queue.SimpleQueue()
    return _Loopback(backward, forward), _Loopback(forward, backward)


class _Link:
    """The coordinator as a shard driver sees it: one request/reply per
    barrier over the driver's connection — the exchange interface
    :class:`~repro.simulator.transport.BoundaryTransport` calls."""

    def __init__(self, conn: Any) -> None:
        self.conn = conn

    def exchange_messages(
        self, shard: int, round_index: int, outbound: List[tuple]
    ) -> List[tuple]:
        self.conn.send(("msgs", round_index, outbound))
        return self.conn.recv()

    def exchange_events(
        self, shard: int, round_index: int, submission: tuple
    ) -> tuple:
        self.conn.send(("events", round_index, submission))
        return self.conn.recv()


# ----------------------------------------------------------------------
# Shard driver (a thread or a worker process)
# ----------------------------------------------------------------------
def _build_shard_engine(
    graph: DistGraph,
    algorithm: Any,
    predictions: Optional[Mapping[int, Any]],
    config: Any,
    shard: int,
    shard_count: int,
    coordinator: Any,
) -> SyncEngine:
    """One shard's engine: an :class:`EdgecutView` plus a boundary
    transport, constructed exactly as :func:`repro.core.runner.run`
    builds the unsharded engine (same model/seed/budget resolution).
    ``deadline_s`` stays with the coordinator — a shard stopping on its
    own clock would desert the barrier.
    """
    view = EdgecutView(graph, shard, shard_count)
    restricted = None
    if predictions is not None:
        restricted = {
            node: predictions[node]
            for node in view.nodes
            if node in predictions
        }
    owned = frozenset(view.nodes)

    def transport_factory(nodes, result, model, n, fast):
        return BoundaryTransport(
            nodes,
            result,
            model,
            n,
            fast,
            owned=owned,
            shard=shard,
            coordinator=coordinator,
        )

    return SyncEngine(
        view,
        lambda node: algorithm.build_program(),
        predictions=restricted,
        model=config.model or algorithm.model,
        max_rounds=config.max_rounds,
        seed=config.effective_seed,
        on_round_limit=config.on_round_limit,
        fast=config.fast,
        schedule=config.schedule,
        fallback=config.fallback,
        transport=transport_factory,
    )


def _apply_remote_events(engine: SyncEngine, events: Sequence[tuple]) -> None:
    """Apply one round's globally ordered termination/crash events.

    The mirror of the publication loop in
    :meth:`~repro.simulator.lifecycle.NodeLifecycle.finalize_round`,
    restricted to the neighbors this shard owns.
    """
    if not events:
        return
    contexts = engine.contexts
    scheduler = engine._scheduler
    neighbors_of = engine.graph.neighbors
    for kind, node, output in events:
        owned = [v for v in neighbors_of(node) if v in contexts]
        if kind == "terminate":
            for neighbor in owned:
                ctx = contexts[neighbor]
                ctx.active_neighbors.discard(node)
                ctx.neighbor_outputs[node] = output
            scheduler.on_terminated(node, owned)
        else:
            for neighbor in owned:
                ctx = contexts[neighbor]
                ctx.active_neighbors.discard(node)
                ctx.crashed_neighbors.add(node)
            scheduler.on_crashed(node, owned)


def _run_rounds(engine: SyncEngine, link: _Link) -> None:
    """Run one shard to the global stop decision, filling its result.

    The loop shape matches :meth:`SyncEngine.run` with the control
    checks hoisted to the coordinator: setup, then — per round — an
    event barrier (apply the previous round's global events, learn
    whether to continue) and, inside ``run_round``, the message barrier.
    """
    transport = engine.transport
    scheduler = engine._scheduler
    result = engine.result
    engine._setup_phase()
    round_index = 0
    while True:
        events, command, _extra = link.exchange_events(
            transport.shard,
            round_index,
            (
                transport.take_events(),
                len(engine._active),
                engine._active_order[:10],
                transport.take_violations(),
            ),
        )
        _apply_remote_events(engine, events)
        if command != "continue":
            break
        round_index += 1
        scheduler.run_round(round_index)
    scheduler.finish()
    result.rounds_executed = round_index
    result.rounds = max(
        (
            record.termination_round
            for record in result.records.values()
            if record.termination_round is not None
        ),
        default=0,
    )
    if command == "deadline":
        result.stuck = engine._build_stuck_report(round_index, reason="deadline")
    elif command == "round-limit-partial":
        result.stuck = engine._build_stuck_report(round_index)


def _drive_shard(conn: Any, in_process: bool) -> None:
    """One shard driver: receive its inputs, build the shard engine, run
    its rounds against the coordinator and report.

    The final message is ``("done", result)`` or ``("error", failure)``:
    in-process the exception itself, so callers see its original type
    and text; from a worker process its formatted traceback.  A worker
    process builds the algorithm and predictions from the cell's specs
    and keeps its per-node records — at bench scale they would dominate
    the pipe traffic without informing any column.
    """
    try:
        if not in_process:
            reset_worker_state()
        shard, shard_count, graph, algorithm, predictions, config = conn.recv()
        if not in_process:
            algorithm = algorithm.build()
            if predictions is not None:
                predictions = predictions.build(graph)
        link = _Link(conn)
        # As in repro.core.runner.run: no cyclic collection while the
        # shard engine lives, and refcount frees it once released.
        with paused_collector():
            engine = _build_shard_engine(
                graph, algorithm, predictions, config, shard, shard_count, link
            )
            try:
                _run_rounds(engine, link)
            finally:
                engine._release()
            result = engine.result
            del engine
        if not in_process:
            result.records = {}
        conn.send(("done", result))
    except EOFError:
        pass  # the coordinator hung up: another shard failed
    except Exception as exc:
        try:
            conn.send(("error", exc if in_process else traceback.format_exc()))
        except OSError:
            pass  # the coordinator is gone too
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
def _lockstep(
    plan: EdgecutPlan, conns: Sequence[Any]
) -> Tuple[List[RunResult], str, Any]:
    """Serve every barrier until all shards report.

    Every shard is always in the same phase — ``msgs`` / ``events``
    alternate, and after a stopping command the next message is
    ``done`` — so one ``recv`` per shard per phase is the whole
    protocol.  Returns the shard results and the final decision.
    """
    command = "continue"
    extra: Any = None
    while True:
        messages = []
        for shard, conn in enumerate(conns):
            try:
                message = conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"edge-cut shard {shard} died without reporting an error"
                ) from None
            if message[0] == "error":
                if isinstance(message[1], BaseException):
                    raise message[1]
                raise RuntimeError(
                    f"edge-cut shard {shard} failed:\n{message[1]}"
                )
            messages.append(message)
        kind = messages[0][0]
        if kind == "done":
            return [message[1] for message in messages], command, extra
        payloads = {shard: message[2] for shard, message in enumerate(messages)}
        if kind == "msgs":
            replies = plan.route_messages(payloads)
        else:
            replies = plan.decide(messages[0][1], payloads)
            _events, command, extra = replies[0]
        for shard, conn in enumerate(conns):
            conn.send(replies[shard])


def _merge_results(
    model: Any, n: int, results: Sequence[RunResult]
) -> RunResult:
    """Fold the shard results, in shard order, into the
    unsharded-identical :class:`RunResult` — the one merge.

    Outputs and records are unions, message/bit counters sums, widths
    and rounds maxima; a stuck run's report unions the shards' live
    nodes and snapshots.
    """
    merged = RunResult(model=model)
    live: List[int] = []
    snapshots: Dict[int, Any] = {}
    stuck: Optional[StuckReport] = None
    for result in results:
        merged.outputs.update(result.outputs)
        merged.records.update(result.records)
        merged.message_count += result.message_count
        merged.total_bits += result.total_bits
        merged.bandwidth_violations += result.bandwidth_violations
        merged.max_message_bits = max(
            merged.max_message_bits, result.max_message_bits
        )
        merged.rounds = max(merged.rounds, result.rounds)
        if result.stuck is not None:
            stuck = result.stuck
            live.extend(stuck.live_nodes)
            snapshots.update(stuck.snapshots)
    merged.rounds_executed = results[0].rounds_executed
    if stuck is not None:
        merged.stuck = StuckReport(
            round=merged.rounds_executed,
            live_nodes=sorted(live),
            total_nodes=n,
            snapshots=dict(sorted(snapshots.items())),
            reason=stuck.reason,
        )
    return merged


def _run_shards(
    plan: EdgecutPlan,
    algorithm: Any,
    predictions: Any,
    config: Any,
    model: Any,
    *,
    processes: bool,
) -> RunResult:
    """The coordinator: one driver per shard, every barrier in lockstep,
    one merge.

    Thread drivers share ``algorithm`` and ``predictions`` by reference.
    Process drivers receive them as the cell's specs; the graph crosses
    each pipe once, zero-copy via a :class:`SharedCSRStore` (workers
    attach the one shared CSR segment instead of unpickling flat
    buffers).
    """
    graph = plan.graph
    store = SharedCSRStore() if processes else None
    if store is not None:
        try:
            store.publish(graph.csr)
        except Exception:  # store unavailable: ship flat buffers instead
            store.close()
            store = None
    conns: List[Any] = []
    drivers: List[Any] = []
    try:
        # activate/deactivate, NOT ``with``: __exit__ would close the
        # store and unlink the segment before the workers attach.
        if store is not None:
            store.activate()
        try:
            for shard in range(plan.shard_count):
                if processes:
                    conn, child = multiprocessing.Pipe()
                    driver = multiprocessing.Process(
                        target=_drive_shard, args=(child, False), daemon=True
                    )
                else:
                    conn, child = _loopback_pair()
                    driver = threading.Thread(
                        target=_drive_shard,
                        args=(child, True),
                        name=f"edgecut-{shard}",
                        daemon=True,
                    )
                conns.append(conn)
                driver.start()
                drivers.append(driver)
                if processes:
                    child.close()
                conn.send(
                    (shard, plan.shard_count, graph, algorithm, predictions, config)
                )
        finally:
            if store is not None:
                store.deactivate()
        results, command, extra = _lockstep(plan, conns)
    except BaseException:
        if processes:
            for driver in drivers:
                driver.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for driver in drivers:
            driver.join(timeout=30)
        if store is not None:
            store.release(graph.csr)
            store.close()
    plan.raise_for(command, extra)
    return _merge_results(model, graph.n, results)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _check_shardable(config: Any, shard_count: int) -> None:
    if shard_count < 2:
        raise ValueError(
            f"edge-cut sharding needs >= 2 shards, got {shard_count}"
        )
    if config.faults is not None:
        raise ValueError("edge-cut sharding cannot run fault plans")
    if config.trace or config.profile:
        raise ValueError("edge-cut sharding cannot capture traces or profiles")
    if config.schedule not in _SUPPORTED_SCHEDULES:
        raise ValueError(
            f"edge-cut sharding does not support schedule={config.schedule!r}"
        )


def _run_edgecut(
    algorithm: Any,
    graph: DistGraph,
    predictions: Optional[Mapping[int, Any]],
    config: Any,
    shard_count: int,
    *,
    specs: Optional[Tuple[Any, Any]] = None,
) -> Tuple[RunResult, EdgecutPlan]:
    """One edge-cut run: the merged result plus the plan, whose
    boundary counters are the run's inter-shard traffic.

    With ``specs`` — the cell's ``(algorithm, predictions)`` specs — the
    shard drivers are worker processes that build both themselves;
    without, they are threads sharing ``algorithm`` and ``predictions``.
    """
    _check_shardable(config, shard_count)
    if algorithm.uses_predictions and predictions is None:
        raise ValueError(
            f"{algorithm.name or type(algorithm).__name__} requires predictions"
        )
    model = config.model or algorithm.model
    plan = EdgecutPlan(
        graph,
        shard_count,
        # The engine's default budget: 8n + 64.
        max_rounds=(
            config.max_rounds if config.max_rounds is not None else 8 * graph.n + 64
        ),
        on_round_limit=config.on_round_limit,
        deadline_s=config.deadline_s,
        bandwidth_budget=model.bandwidth_bits(graph.n),
    )
    shared = specs if specs is not None else (algorithm, predictions)
    result = _run_shards(
        plan, *shared, config, model, processes=specs is not None
    )
    return result, plan


def run_edgecut(
    algorithm: Any,
    graph: DistGraph,
    predictions: Optional[Mapping[int, Any]] = None,
    *,
    config: Optional[Any] = None,
    shard_count: int = 2,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` across ``shard_count`` edge-cut
    shards (one thread each) and return the merged :class:`RunResult`.

    The in-process counterpart of :func:`repro.core.runner.run` —
    outputs, records, round counts, message/bit counters, strict-CONGEST
    exceptions, round-limit behavior and stuck reports are bit-identical
    to the unsharded call.
    """
    from repro.core.runner import RunConfig

    return _run_edgecut(
        algorithm, graph, predictions, config or RunConfig(), shard_count
    )[0]


def execute_edgecut_cell(
    index: int,
    cell: "Cell",
    seed: int,
    shard_count: int,
    *,
    mode: str = "thread",
    cache: "ArtifactCache",
) -> "CellResult":
    """Execute one ``shard="edgecut"`` sweep cell and return its row.

    ``mode`` picks the shard drivers: ``"thread"`` (serial backend, and
    the fallback when spawning is denied) or ``"process"`` (process
    backend: one worker per shard, the parent coordinating).  The row is
    verified on the **full** graph — unlike component shards, an
    edge-cut shard's induced subgraph is not a closed world, so
    per-shard verdicts would miss every cut edge.
    """
    from repro.exec.results import cell_row

    start = time.perf_counter()
    graph, predictions = cell.inputs(cache)
    specs = (cell.algorithm, cell.predictions) if mode == "process" else None
    result, plan = _run_edgecut(
        cell.algorithm.build(),
        graph,
        predictions,
        cell.config.with_overrides(seed=seed),
        shard_count,
        specs=specs,
    )
    return cell_row(
        index, cell, seed, graph, predictions, result,
        start=start,
        shards=shard_count,
        boundary_msgs=plan.boundary_msgs,
        boundary_bytes=plan.boundary_bytes,
    )
