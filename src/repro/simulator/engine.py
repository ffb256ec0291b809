"""The synchronous round-based execution engine (orchestrator).

:class:`SyncEngine` executes one :class:`~repro.simulator.program.
NodeProgram` per node under the model of Section 2 of the paper: rounds are
synchronous; in each round every active node composes messages (from its
state at the end of the previous round), all messages are delivered, then
every active node processes its inbox, may assign outputs, and may
terminate.  Messages a node sends in its final round are delivered normally
— the paper's "notifies its neighbors ... outputs ... and terminates".

After a node terminates, the engine exposes its output to its neighbors at
the start of the following round (``ctx.neighbor_outputs``) — exactly the
information and timing an explicit final-round notification message
provides, so composed algorithms (the Section 7 templates) stay faithful
without re-implementing the handshake.

The engine itself is a thin orchestrator over composable runtime stages
(docs/ARCHITECTURE.md has the full layer map): the shared
:class:`~repro.graphs.csr.CSRTopology` core, ``Transport`` (mailboxes +
bit accounting), ``Scheduler`` (eager / quiescent / quiescent-debug round
drive), ``FaultInterposer`` (the one fault surface; ``docs/MODEL.md``),
``NodeLifecycle`` (terminations, crashes, recoveries, stuck reports) and
``ObsDispatch`` (event fan-out + round profile).  The engine wires the
stages and owns the run loop; it contains no scheduling policy and no
message-path code.  ``on_round_limit="partial"`` turns a blown round
budget into a partial result carrying a ``StuckReport`` instead of an
exception, so benchmarks under faults can *measure* degradation.
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.obs.profile import NULL_CLOCK, PhaseClock, RoundProfile
from repro.simulator.context import NodeContext
from repro.simulator.interpose import FaultInterposer
from repro.simulator.lifecycle import NodeLifecycle
from repro.simulator.metrics import NodeRecord, RunResult, StuckReport
from repro.simulator.models import LOCAL, ExecutionModel
from repro.simulator.obs_dispatch import ObsDispatch
from repro.simulator.program import NodeProgram
from repro.simulator.scheduling import SCHEDULERS, QuiescenceViolation
from repro.simulator.trace import TraceRecorder
from repro.simulator.transport import (
    BandwidthExceeded,
    LocalTransport,
    Transport,
)

__all__ = [
    "BandwidthExceeded",
    "QuiescenceViolation",
    "RoundLimitExceeded",
    "SyncEngine",
]


class RoundLimitExceeded(RuntimeError):
    """Raised when a run exceeds its round budget without terminating.

    Every algorithm in the paper has a finite worst-case round complexity;
    hitting this limit under fault-free execution always indicates a bug
    (e.g. deadlocked composition or a non-terminating wait).  Under fault
    injection it may instead mean the adversary starved the algorithm —
    pass ``on_round_limit="partial"`` to record that outcome instead of
    raising.
    """


ProgramSource = Union[Mapping[int, NodeProgram], Callable[[int], NodeProgram]]

#: Transport constructor signature the engine injects at build time:
#: ``(nodes, result, model, n, fast) -> Transport``.
TransportFactory = Callable[..., Transport]


class SyncEngine:
    """Runs node programs over a graph in synchronous rounds.

    Args:
        graph: A :class:`~repro.graphs.graph.DistGraph` (or any object with
            ``nodes``, ``neighbors(v)``, ``n``, ``d``, ``delta`` and
            ``node_attrs(v)``).
        programs: Either a mapping ``node -> NodeProgram`` or a factory
            ``node -> NodeProgram`` called once per node.
        predictions: Optional mapping ``node -> prediction`` handed to each
            node's context (the per-node prediction of Section 1.1).
        model: Execution model for bandwidth accounting.
        max_rounds: Round budget; defaults to ``8 * n + 64``.
        seed: Base seed for the per-node random streams.
        trace: Optional :class:`TraceRecorder` receiving every event
            (kept as a named argument because the recorder is attached
            to ``result.trace``; it is also just one sink).
        sinks: Additional :class:`~repro.obs.events.EventSink` objects
            receiving every event plus run/round lifecycle hooks with
            wall-clock and message deltas.  When neither sinks nor a
            trace are attached, the round loop does no observability
            work at all.
        profile: ``True`` (or a :class:`~repro.obs.profile.RoundProfile`
            to fill) records per-round compose/deliver/process/finalize
            phase timings on ``result.profile``.  The scheduler runs its
            one round loop either way; profiling only binds a
            :class:`~repro.obs.profile.PhaseClock` that times its phases.
        faults: A :class:`~repro.faults.plan.FaultPlan` (or any object
            with a ``build_controller()`` factory) describing crashes,
            crash-recovery, message adversaries and prediction
            corruption.  Anything else raises :class:`TypeError`.
        on_round_limit: ``"raise"`` (default) raises
            :class:`RoundLimitExceeded` when the budget is blown;
            ``"partial"`` stops instead and returns the partial
            :class:`RunResult` with a populated ``stuck`` report.
        fast: Skip per-message bit-size estimation (``total_bits``,
            ``max_message_bits`` and CONGEST budget checks stay zero) for
            maximum throughput; ``message_count`` is still maintained.
            Outputs, round counts and termination records are identical
            to a normal run.
        schedule: Round-scheduling policy.  ``"eager"`` (default) runs
            every active node every round.  ``"quiescent"`` skips nodes
            whose programs declare ``quiescent_when_idle = True`` in
            rounds with no wake reason (mail, neighbor event, setup or
            recovery, timed wakeup via ``ctx.wake_at``), cutting frontier
            workloads from Θ(n · rounds) to Θ(total activity) while
            staying observationally identical.  ``"quiescent-debug"``
            executes eagerly but raises :class:`QuiescenceViolation` when
            an idle node acts.  ``"async"`` is the asynchronous execution
            model of docs/MODEL.md: messages are delayed up to ``phi``
            ticks by a seeded adversary, nodes fire on receipt, and a
            stabilization detector quiesces starved runs.
            ``"vectorized"`` executes compiled whole-frontier NumPy
            kernels (:mod:`repro.kernels`) over the CSR buffers instead
            of interpreting per-node programs — bit-identical outputs
            and counters for the registered greedy families, an order
            of magnitude faster at scale; unsupported runs raise
            :class:`~repro.kernels.UnsupportedScheduleError` (see
            ``fallback``).  See docs/PERFORMANCE.md.
        phi: Delay bound (ticks) for the ``"async"`` schedule's
            adversary; ``0`` (default) degenerates to synchronous
            delivery.  Only meaningful with ``schedule="async"``.
        send_timeout: Ticks an async sender waits before retransmitting
            a lost message (exponential backoff, ``max_retries``
            attempts); ``None`` (default) disables retries.  Only
            meaningful with ``schedule="async"``.
        max_retries: Retransmission budget per original send.
        deadline_s: Optional wall-clock budget (seconds) for the whole
            run.  A run that exceeds it stops *gracefully* — whatever
            ``on_round_limit`` says — and returns the partial result
            with a ``stuck`` report whose ``reason`` is ``"deadline"``,
            so a hung cell can never wedge a sweep or CI job.
        fallback: What to do when ``schedule="vectorized"`` cannot run
            this instance (no kernel for the program family, fault
            injection, event sinks, per-node program mappings).
            ``None`` (default) raises
            :class:`~repro.kernels.UnsupportedScheduleError`;
            ``"interpret"`` warns and downgrades to the interpreted
            ``"quiescent"`` schedule, which accepts any program.
        transport: Optional transport factory ``(nodes, result, model,
            n, fast) -> Transport``; ``None`` builds the default
            :class:`~repro.simulator.transport.LocalTransport`.  The
            edge-cut shard driver injects a
            :class:`~repro.simulator.transport.BoundaryTransport`
            bound to its coordinator here.
    """

    def __init__(
        self,
        graph: Any,
        programs: ProgramSource,
        *,
        predictions: Optional[Mapping[int, Any]] = None,
        model: ExecutionModel = LOCAL,
        max_rounds: Optional[int] = None,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
        sinks: Optional[Sequence[Any]] = None,
        profile: Union[bool, RoundProfile, None] = None,
        faults: Optional[Any] = None,
        on_round_limit: str = "raise",
        fast: bool = False,
        schedule: str = "eager",
        phi: int = 0,
        send_timeout: Optional[int] = None,
        max_retries: int = 2,
        deadline_s: Optional[float] = None,
        fallback: Optional[str] = None,
        transport: Optional[TransportFactory] = None,
    ) -> None:
        if on_round_limit not in ("raise", "partial"):
            raise ValueError(
                f"on_round_limit must be 'raise' or 'partial', got {on_round_limit!r}"
            )
        if schedule not in SCHEDULERS:
            known = ", ".join(repr(name) for name in SCHEDULERS)
            raise ValueError(f"schedule must be one of {known}, got {schedule!r}")
        if phi < 0:
            raise ValueError(f"phi must be non-negative, got {phi}")
        if (phi or send_timeout is not None) and schedule != "async":
            raise ValueError(
                "phi= and send_timeout= belong to the asynchronous model; "
                f"pass schedule='async' (got schedule={schedule!r})"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        if fallback not in (None, "interpret"):
            raise ValueError(
                f"fallback must be None or 'interpret', got {fallback!r}"
            )
        self.graph = graph
        self.model = model
        self.trace = trace
        #: The observability stage: event fan-out plus the round profile.
        self.obs = ObsDispatch(sinks=sinks, trace=trace, profile=profile)
        #: The phase clock the scheduler's round loop reports to: a
        #: :class:`PhaseClock` filling the profile, else the shared no-op.
        self.clock: Any = (
            NULL_CLOCK
            if self.obs.profile is None
            else PhaseClock(self.obs.profile, self)
        )
        self.max_rounds = max_rounds if max_rounds is not None else 8 * graph.n + 64
        self.on_round_limit = on_round_limit
        self.fast = fast
        self.schedule = schedule
        #: Async-model knobs (read by the async scheduler at bind time;
        #: inert under every synchronous policy).
        self.phi = phi
        self.send_timeout = send_timeout
        self.max_retries = max_retries
        self.deadline_s = deadline_s
        #: The scheduling stage: which nodes run a round, and the
        #: compose/deliver/process drive.
        self._scheduler = SCHEDULERS[schedule]()
        if self.obs.profile is not None and not self._scheduler.supports_profile:
            raise ValueError(
                f"profiling is not supported with schedule={schedule!r}"
            )
        self._seed = seed
        #: The run's result record, shared with transport and interposer.
        self.result = RunResult(model=model)
        controller = self._resolve_faults(faults)
        #: The fault stage, or ``None`` — faultless runs pay nothing.
        self.interposer: Optional[FaultInterposer] = (
            FaultInterposer(controller, self.result, self.obs)
            if controller is not None
            else None
        )
        predictions = dict(predictions or {})
        if self.interposer is not None and predictions:
            predictions = self.interposer.corrupt_predictions(
                predictions, sorted(graph.nodes)
            )
        self._predictions = predictions
        self._program_source = programs

        #: The compiled whole-frontier kernel when this run executes
        #: under ``schedule="vectorized"``, else ``None``.  Resolving it
        #: is the capability handshake: runs the kernels cannot
        #: reproduce bit-identically (faults, sinks, unregistered
        #: program families, per-node mappings) raise
        #: ``UnsupportedScheduleError`` here — or, under
        #: ``fallback="interpret"``, warn and downgrade to the
        #: interpreted quiescent schedule, which accepts any program.
        self._kernel = None
        if self._scheduler.uses_kernels:
            from repro.kernels import UnsupportedScheduleError, resolve_kernel

            try:
                self._kernel = resolve_kernel(self, programs)
            except UnsupportedScheduleError as exc:
                if fallback != "interpret":
                    raise
                warnings.warn(
                    f"schedule='vectorized' cannot run this instance "
                    f"({exc}); falling back to the interpreted "
                    f"'quiescent' schedule",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.schedule = schedule = "quiescent"
                self._scheduler = SCHEDULERS[schedule]()

        self.programs: Dict[int, NodeProgram] = {}
        self.contexts: Dict[int, NodeContext] = {}
        if self._kernel is None:
            # The kernel path never touches per-node programs/contexts/
            # inboxes; skipping them keeps construction O(1) per node in
            # arrays rather than Python objects at n ≈ 10⁶.
            for node in sorted(graph.nodes):
                if callable(programs):
                    program = programs(node)
                else:
                    program = programs[node]
                self.programs[node] = program
                self.contexts[node] = self._build_context(node)

        self._active = set(self.graph.nodes)
        #: Sorted view of ``_active``, rebuilt only when membership changes
        #: (terminations, crashes, recoveries) instead of thrice per round.
        self._active_order: List[int] = sorted(self._active)
        for node in self.graph.nodes:
            self.result.records[node] = NodeRecord(node_id=node)
        #: The transport stage: mailboxes, delivery and bit accounting.
        #: Injected — :class:`~repro.simulator.transport.LocalTransport`
        #: unless the caller (e.g. the edge-cut shard driver) provides a
        #: factory with the same ``(nodes, result, model, n, fast)``
        #: signature.
        factory = LocalTransport if transport is None else transport
        self.transport = factory(
            self.graph.nodes if self._kernel is None else (),
            self.result,
            model,
            graph.n,
            fast,
        )
        #: The lifecycle stage: terminations, crashes, recoveries.
        self._lifecycle = NodeLifecycle(self)
        self._scheduler.bind(self)

    @staticmethod
    def _resolve_faults(faults: Optional[Any]) -> Optional[Any]:
        """The run's fault controller, built from the ``faults`` plan."""
        if faults is None:
            return None
        if not hasattr(faults, "build_controller"):
            raise TypeError(
                f"faults= takes a FaultPlan (or any object with a "
                f"build_controller() factory), got {type(faults).__name__}"
            )
        return faults.build_controller()

    def _build_context(self, node: int) -> NodeContext:
        return NodeContext(
            node_id=node,
            neighbors=frozenset(self.graph.neighbors(node)),
            n=self.graph.n,
            d=self.graph.d,
            delta=self.graph.delta,
            prediction=self._predictions.get(node),
            attrs=self.graph.node_attrs(node),
            seed=self._seed,
            phi=self.phi,
        )

    # ------------------------------------------------------------------
    def run(self, stop_after: Optional[int] = None) -> RunResult:
        """Execute until every node terminates (or faults/limits stop it).

        With ``stop_after``, execute at most that many rounds and return
        the partial record without raising — how tests observe the partial
        solution a bounded component (e.g. a base algorithm) leaves behind.
        """
        obs = self.obs
        result = self.result
        if obs:
            obs.run_begin(
                {
                    "n": self.graph.n,
                    "model": getattr(self.model, "name", str(self.model)),
                    "max_rounds": self.max_rounds,
                    "seed": self._seed,
                    "fast": self.fast,
                    "transport": type(self.transport).__name__,
                }
            )
        self.clock.time_setup(self._setup_phase)
        run_round = self._scheduler.run_round
        round_index = 0
        run_deadline = (
            None if self.deadline_s is None else perf_counter() + self.deadline_s
        )
        while self._active or self._has_pending_recoveries(round_index):
            if stop_after is not None and round_index >= stop_after:
                break
            if run_deadline is not None and perf_counter() >= run_deadline:
                # Wall-clock deadlines always degrade gracefully: a hung
                # cell must never wedge a sweep, whatever on_round_limit
                # says about round budgets.
                result.stuck = self._build_stuck_report(
                    round_index, reason="deadline"
                )
                break
            if round_index >= self.max_rounds:
                if self.on_round_limit == "partial":
                    result.stuck = self._build_stuck_report(round_index)
                    break
                raise RoundLimitExceeded(
                    f"{len(self._active)} node(s) still active after "
                    f"{self.max_rounds} rounds: {sorted(self._active)[:10]}"
                )
            round_index += 1
            if obs:
                obs.round_begin(round_index, len(self._active))
                round_start = perf_counter()
                messages_before = result.message_count
            run_round(round_index)
            if obs:
                obs.round_end(
                    round_index,
                    {
                        "elapsed": perf_counter() - round_start,
                        "messages": result.message_count - messages_before,
                        "active": len(self._active),
                    },
                )
            if self._scheduler.quiesced and self._active:
                # The async stabilization detector proved nothing can
                # ever happen again; stop instead of spinning empty
                # ticks to the round budget.
                if self.on_round_limit != "partial":
                    raise RoundLimitExceeded(
                        f"{len(self._active)} node(s) stabilized without "
                        f"terminating after {round_index} rounds: "
                        f"{sorted(self._active)[:10]}"
                    )
                result.stuck = self._build_stuck_report(
                    round_index, reason="stabilized"
                )
                break
        # Batched schedulers (vectorized kernels) write their buffered
        # per-node outcomes into ``result`` here; interpreted schedulers
        # already wrote through and this is a no-op.
        self._scheduler.finish()
        result.rounds_executed = round_index
        result.rounds = max(
            (
                record.termination_round
                for record in result.records.values()
                if record.termination_round is not None
            ),
            default=0,
        )
        result.profile = obs.profile
        if obs:
            obs.run_end(
                {
                    "rounds": result.rounds,
                    "rounds_executed": result.rounds_executed,
                    "messages": result.message_count,
                    "dropped": result.dropped_messages,
                    "terminated": sum(
                        1
                        for record in result.records.values()
                        if record.termination_round is not None
                    ),
                    "stuck": result.stuck is not None,
                }
            )
        return result

    def _release(self) -> None:
        """Cut every stage's back-reference to this engine.

        The stages hold the engine as ``rt``, which makes the whole
        per-run object graph cyclic.  An owner that is done with the
        engine (``repro.core.runner.run``, the edge-cut shard driver)
        calls this so reference counting frees the graph as soon as the
        owner drops the engine, without a full cyclic collection.  A
        stage added with an ``rt`` handle must be cut here too.  The
        engine cannot run again afterwards; ``result`` stays valid.
        """
        self._scheduler.rt = None
        self._lifecycle.rt = None
        if isinstance(self.clock, PhaseClock):
            self.clock.rt = None
        if self._kernel is not None:
            self._kernel.rt = None

    def _has_pending_recoveries(self, round_index: int) -> bool:
        """Whether a crashed node is still scheduled to rejoin later.

        Keeps the run alive across a window in which *every* node is
        momentarily crashed but recoveries are due.
        """
        if self.interposer is None:
            return False
        due = self.interposer.last_recovery_round()
        if due is None:
            return False
        # A rejoin beyond the round budget can never fire; ignore it.
        return round_index < due <= self.max_rounds

    # ------------------------------------------------------------------
    def _setup_phase(self) -> None:
        scheduler = self._scheduler
        if scheduler.handles_setup:
            scheduler.run_setup()
            return
        for node in self._active_order:
            ctx = self.contexts[node]
            ctx.round = 0
            self.programs[node].setup(ctx)
            scheduler.note_setup(node, ctx)
        self.finalize_round(0)

    def apply_recoveries(self, round_index: int) -> None:
        """Rejoin crash-with-recovery nodes (lifecycle stage delegator)."""
        self._lifecycle.apply_recoveries(round_index)

    def finalize_round(
        self, round_index: int, participants: Optional[List[int]] = None
    ) -> None:
        """Apply terminations/crashes and publish neighbor updates.

        Delegates to the lifecycle stage; ``participants`` (sorted)
        restricts the termination scan to the nodes the quiescent schedule
        actually ran this round.
        """
        self._lifecycle.finalize_round(round_index, participants)

    def _build_stuck_report(
        self, round_index: int, reason: str = "round-limit"
    ) -> StuckReport:
        report = self._scheduler.build_stuck_report(round_index, reason)
        if report is not None:
            return report
        return self._lifecycle.build_stuck_report(round_index, reason=reason)
