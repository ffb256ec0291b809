"""The round-scheduling stage.

A :class:`Scheduler` decides *which* nodes run in a round and drives the
compose → deliver → process phases for them, delegating message policy to
the :class:`~repro.simulator.interpose.FaultInterposer`, message cost and
mailboxes to the :class:`~repro.simulator.transport.Transport`, and event
fan-out to the :class:`~repro.simulator.obs_dispatch.ObsDispatch`.  The
engine orchestrates rounds; it never special-cases a scheduling policy —
the three policies that used to be branches inside one monolithic round
loop are now three implementations of one protocol:

* :class:`EagerScheduler` — every active node, every round (the default).
* :class:`QuiescentScheduler` — runs only the wake-set of nodes whose
  programs can observably act, per the idle contract of
  :class:`~repro.simulator.program.NodeProgram` (``quiescent_when_idle``).
* :class:`QuiescentDebugScheduler` — executes eagerly while tracking the
  hypothetical wake-set and raises :class:`QuiescenceViolation` the
  moment a supposedly idle node acts.
* :class:`AsyncScheduler` — the asynchronous execution model: a seeded
  :class:`~repro.simulator.adversary.DelayAdversary` assigns each message
  a delivery delay of up to ``phi`` ticks, nodes fire on receipt rather
  than in lockstep, lost sends can be retransmitted with bounded backoff,
  and a stabilization detector quiesces the run when nothing can ever
  happen again.  At ``phi = 0`` with no send timeout it is bit-identical
  to the quiescent (and hence the eager) schedule.

Each scheduler has one round loop, ``run_round``.  The profiling
schedulers run its phases one after another — compose every outbox,
deliver (replays first, then fresh sends), process, finalize — and report
each boundary to the run's phase clock (:class:`~repro.obs.profile.
PhaseClock`, or a shared do-nothing clock when the run is not profiled),
so a profiled run is the same run, timed.

Writing a new scheduler means subclassing :class:`Scheduler`, implementing
``run_round`` (calling the phase clock), registering it in
:data:`SCHEDULERS` and giving it a row in the capability table
(:mod:`repro.simulator.capability`, which says whether it profiles), and
wiring the wake hooks (``note_setup``, ``on_delivery``
bookkeeping, ``on_terminated``/``on_crashed``/``on_recovered``) if the
policy needs per-round wake state; see docs/ARCHITECTURE.md.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.simulator.adversary import DelayAdversary, RetryPolicy
from repro.simulator.context import NodeContext
from repro.simulator.interpose import DROPPED


class QuiescenceViolation(RuntimeError):
    """Raised under ``schedule="quiescent-debug"`` on an idle-contract break.

    A program that declares ``quiescent_when_idle = True`` promises that in
    rounds where nothing woke it (no message received last round, no
    neighbor event, no timed wakeup due) it neither sends, outputs, nor
    terminates.  The debug schedule executes every node eagerly while
    tracking the wake-set the quiescent schedule would have used, and
    raises this error the moment a supposedly idle node acts — the same
    divergence ``schedule="quiescent"`` would have silently introduced.
    """


def _non_neighbor_error(
    node: int, outbox: Dict[int, Any], neighbors: Any, round_index: int
) -> ValueError:
    """The error for an outbox addressed to a non-neighbor (the model
    sends only along edges); callers test ``neighbors.issuperset(outbox)``
    inline, since that check runs once per sender per round."""
    receiver = next(key for key in outbox if key not in neighbors)
    return ValueError(
        f"node {node} sent to non-neighbor {receiver} in round {round_index}"
    )


class Scheduler:
    """Protocol for round-scheduling policies.

    A scheduler is bound to one engine run via :meth:`bind` and then
    drives every round through :meth:`run_round`, reporting its phase
    boundaries to the engine's phase clock (``rt.clock``).  The remaining
    hooks let wake-tracking policies observe the lifecycle events that
    constitute wake conditions; the eager policy leaves them as no-ops so
    the default hot path carries no wake bookkeeping at all.

    What a policy can run alongside (profiling, shards, faults, sinks) is
    not declared here but in the capability table
    (:mod:`repro.simulator.capability`), which refuses unsupported
    combinations before an engine exists.

    Attributes:
        processed_last_round: Nodes the last executed round actually
            processed (``None`` means every active node) — keeps
            stuck-report inbox snapshots identical across schedules.
        quiesced: Whether the policy's stabilization detector concluded
            that nothing observable can ever happen again (only the
            async policy ever sets it); the engine turns it into a
            partial result instead of spinning to the round budget.
        handles_setup: Whether the policy runs round 0 itself via
            :meth:`run_setup` instead of the engine's per-node loop.
    """

    quiesced = False
    handles_setup = False

    def __init__(self) -> None:
        self.rt: Any = None
        self.processed_last_round: Optional[set] = None

    def bind(self, rt: Any) -> None:
        """Attach the runtime (the engine) this scheduler drives."""
        self.rt = rt

    # -- wake-condition hooks (no-ops for the eager policy) -------------
    def note_setup(self, node: int, ctx: NodeContext) -> None:
        """A node finished its setup (round 0) with ``ctx`` state."""

    def on_terminated(self, node: int, neighbors: Any) -> None:
        """A node terminated at the end of a round."""

    def on_crashed(self, node: int, neighbors: Any) -> None:
        """A node crashed at the end of a round."""

    def on_recovered(
        self, node: int, ctx: NodeContext, program: Any
    ) -> None:
        """A crashed node rejoined at the start of a round."""

    def on_recovery_terminated(self, node: int) -> None:
        """A rejoined node terminated straight from its recovery setup."""

    # -- round execution ------------------------------------------------
    def run_setup(self) -> None:
        """Round 0 for policies with ``handles_setup = True``."""
        raise NotImplementedError

    def run_round(self, round_index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Called once after the round loop, before result aggregation.

        Batched policies flush buffered per-node results here; the
        interpreted policies write through per round and need nothing.
        """

    def build_stuck_report(
        self, round_index: int, reason: str
    ) -> Optional[Any]:
        """Policy-built stuck report, or ``None`` to use the lifecycle's."""
        return None


class EagerScheduler(Scheduler):
    """Runs every active node every round (the default policy)."""

    def run_round(self, round_index: int) -> None:
        rt = self.rt
        clock = rt.clock
        rt.apply_recoveries(round_index)
        # Local bindings keep the per-round loops free of attribute churn;
        # the fault/sink hooks are skipped entirely when nothing is
        # installed, and the transport elides bandwidth accounting in
        # ``fast`` mode.
        active = rt._active
        order = rt._active_order
        programs = rt.programs
        contexts = rt.contexts
        transport = rt.transport
        inboxes = transport.inboxes
        deposit = transport.deposit
        emit = rt.obs.emit if rt.obs else None
        interposer = rt.interposer
        transport.round = round_index
        remote = transport.remote

        # Compose phase: every active node decides its messages using state
        # from the end of the previous round.
        clock.begin("compose")
        # Two flat lists, not (node, outbox) pairs: a pair per sender
        # would double the objects allocated each round.  run() and the
        # edge-cut driver pause the cyclic collector, so that matters
        # only to direct SyncEngine callers, whose collector would scan
        # the extra objects.
        senders: List[int] = []
        outboxes: List[Dict[int, Any]] = []
        for node in order:
            inboxes[node].clear()
            ctx = contexts[node]
            ctx.round = round_index
            outbox = programs[node].compose(ctx)
            if outbox:
                if not ctx.neighbors.issuperset(outbox):
                    raise _non_neighbor_error(
                        node, outbox, ctx.neighbors, round_index
                    )
                senders.append(node)
                outboxes.append(outbox)

        # Deliver phase: adversarial replays land before fresh sends, and
        # walking the outboxes in compose order fixes each receiver's
        # inbox order (senders in ascending id).
        clock.mark("deliver")
        if interposer is not None and interposer.has_pending_replays:
            interposer.deliver_replays(round_index, transport, active)
        for node, outbox in zip(senders, outboxes):
            for receiver, payload in outbox.items():
                if emit is not None:
                    emit(
                        round_index, "send", node, {"to": receiver, "payload": payload}
                    )
                # Messages to nodes that already terminated or crashed are
                # dropped: the recipient no longer participates.  (A sender
                # learns of a neighbor's termination only in the following
                # round, so such sends are legitimate.)  A receiver whose
                # mailbox lives on another shard is handed to the boundary
                # instead; the owning shard applies the same rules.
                if receiver not in active:
                    if receiver in remote:
                        transport.export(node, receiver, payload)
                    continue
                if interposer is not None:
                    payload = interposer.adjudicate(
                        round_index, node, receiver, payload
                    )
                    if payload is DROPPED:
                        continue
                deposit(node, receiver, payload)
        # Boundary barrier: merge cut messages before any node processes
        # (a no-op under the local transport).
        transport.sync(round_index, active)

        # Process phase: every active node consumes its inbox.
        clock.mark("process")
        for node in order:
            programs[node].process(contexts[node], inboxes[node])

        clock.mark("finalize")
        rt.finalize_round(round_index)
        clock.end(round_index)


class QuiescentScheduler(Scheduler):
    """Runs only the wake-set: woken ∪ always-awake, active, sorted.

    Observationally identical to the eager policy under the idle
    contract: a node outside the wake-set would have composed an empty
    outbox and processed an empty inbox without acting, so skipping it
    changes no output, message, round count or event.  Nodes that
    *receive* a message this round are pulled into the process phase
    (and the next round's wake-set) even if they were asleep, exactly
    as the eager path would have processed them.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Nodes with a pending wake condition for the upcoming round
        #: (everyone before round 1, seeded in :meth:`bind`).
        self._next_wake: set = set()
        #: node -> earliest requested timed-wakeup round.
        self._timed_wake: Dict[int, int] = {}
        #: Nodes whose programs did not opt into quiescence.
        self._always_awake: set = set()

    def bind(self, rt: Any) -> None:
        super().bind(rt)
        self._next_wake = set(rt.graph.nodes)
        for node, program in rt.programs.items():
            if not getattr(program, "quiescent_when_idle", False):
                self._always_awake.add(node)

    # -- wake bookkeeping ----------------------------------------------
    def _collect_wake(self, node: int, ctx: NodeContext) -> None:
        """Fold a context's pending ``wake_at`` request into the schedule."""
        request = ctx._wake_request
        if request is not None:
            ctx._wake_request = None
            current = self._timed_wake.get(node)
            if current is None or request < current:
                self._timed_wake[node] = request

    def note_setup(self, node: int, ctx: NodeContext) -> None:
        self._collect_wake(node, ctx)

    def on_terminated(self, node: int, neighbors: Any) -> None:
        # Neighbors observe terminations from the next round on; under
        # quiescent scheduling that observation is a wake condition.
        self._next_wake.update(neighbors)

    def on_crashed(self, node: int, neighbors: Any) -> None:
        self._next_wake.update(neighbors)

    def on_recovered(self, node: int, ctx: NodeContext, program: Any) -> None:
        # The rejoined node starts fresh (round-1 semantics) and its
        # neighbors observe the recovery, so all of them are schedulable
        # this round; stale timed wakeups of the old incarnation die with
        # it.
        self._timed_wake.pop(node, None)
        self._next_wake.add(node)
        self._next_wake.update(ctx.neighbors)
        if getattr(program, "quiescent_when_idle", False):
            self._always_awake.discard(node)
        else:
            self._always_awake.add(node)
        self._collect_wake(node, ctx)

    def on_recovery_terminated(self, node: int) -> None:
        self._timed_wake.pop(node, None)
        self._next_wake.discard(node)
        self._always_awake.discard(node)

    def compute_wake_order(self, round_index: int) -> List[int]:
        """This round's compose schedule: woken ∪ always-awake, active,
        sorted.

        Consumes the accumulated wake-set and the due timed wakeups, and
        resets the wake-set so this round's events feed the next one.
        """
        wake = self._next_wake
        timed = self._timed_wake
        if timed:
            due = [node for node, when in timed.items() if when <= round_index]
            for node in due:
                del timed[node]
            wake.update(due)
        if self._always_awake:
            wake |= self._always_awake
        active = self.rt._active
        scheduled = sorted(node for node in wake if node in active)
        self._next_wake = set()
        return scheduled

    # -- round execution ------------------------------------------------
    def run_round(self, round_index: int) -> None:
        rt = self.rt
        clock = rt.clock
        rt.apply_recoveries(round_index)
        active = rt._active
        programs = rt.programs
        contexts = rt.contexts
        transport = rt.transport
        inboxes = transport.inboxes
        deposit = transport.deposit
        emit = rt.obs.emit if rt.obs else None
        interposer = rt.interposer
        transport.round = round_index
        remote = transport.remote

        # Compose phase, charged the wake-set computation too (it is the
        # scheduler's overhead).
        clock.begin("compose")
        scheduled = self.compute_wake_order(round_index)
        next_wake = self._next_wake
        #: Nodes to run in the process phase; sleeping nodes keep stale
        #: inboxes, cleared lazily when a delivery first wakes them.
        process_set = set(scheduled)
        # Flat lists, not pairs, as in the eager loop.
        senders: List[int] = []
        outboxes: List[Dict[int, Any]] = []
        for node in scheduled:
            inboxes[node].clear()
            ctx = contexts[node]
            ctx.round = round_index
            outbox = programs[node].compose(ctx)
            if outbox:
                if not ctx.neighbors.issuperset(outbox):
                    raise _non_neighbor_error(
                        node, outbox, ctx.neighbors, round_index
                    )
                senders.append(node)
                outboxes.append(outbox)

        clock.mark("deliver")
        if interposer is not None and interposer.has_pending_replays:
            interposer.deliver_replays(
                round_index, transport, active, awaken=process_set, wake=next_wake
            )
        for node, outbox in zip(senders, outboxes):
            for receiver, payload in outbox.items():
                if emit is not None:
                    emit(
                        round_index, "send", node, {"to": receiver, "payload": payload}
                    )
                if receiver not in active:
                    if receiver in remote:
                        transport.export(node, receiver, payload)
                    continue
                if interposer is not None:
                    payload = interposer.adjudicate(
                        round_index, node, receiver, payload
                    )
                    if payload is DROPPED:
                        # The drop may have starved a waiter mid-protocol;
                        # waking the would-be receiver is harmless (an idle
                        # round is a no-op by contract) and keeps it live.
                        next_wake.add(receiver)
                        continue
                if receiver not in process_set:
                    inboxes[receiver].clear()
                    process_set.add(receiver)
                deposit(node, receiver, payload)
                next_wake.add(receiver)
        # Boundary barrier: inbound cut messages wake their receivers and
        # join the process phase exactly as local deliveries would have
        # (a no-op under the local transport).
        transport.sync(round_index, active, process_set, next_wake)

        clock.mark("process")
        if len(process_set) == len(scheduled):
            process_order: List[int] = scheduled
        else:
            process_order = sorted(process_set)
        for node in process_order:
            ctx = contexts[node]
            ctx.round = round_index
            programs[node].process(ctx, inboxes[node])
            self._collect_wake(node, ctx)
        self.processed_last_round = process_set

        clock.mark("finalize")
        rt.finalize_round(round_index, participants=process_order)
        clock.end(round_index, scheduled=len(process_order))


class QuiescentDebugScheduler(QuiescentScheduler):
    """Eager execution that polices the quiescence idle contract.

    Runs every active node (so state evolution matches the eager
    schedule exactly, including programs whose idle rounds mutate
    private counters) while maintaining the wake-set the quiescent
    schedule would have used; any observable action — a send, an
    output, a termination — by a node outside that set raises
    :class:`QuiescenceViolation`.
    """

    def run_round(self, round_index: int) -> None:
        rt = self.rt
        rt.apply_recoveries(round_index)
        expected = set(self.compute_wake_order(round_index))
        next_wake = self._next_wake
        active = rt._active
        order = rt._active_order
        programs = rt.programs
        contexts = rt.contexts
        transport = rt.transport
        inboxes = transport.inboxes
        deposit = transport.deposit
        emit = rt.obs.emit if rt.obs else None
        interposer = rt.interposer
        transport.round = round_index
        remote = transport.remote

        for node in order:
            inboxes[node].clear()
        if interposer is not None and interposer.has_pending_replays:
            interposer.deliver_replays(
                round_index, transport, active, wake=next_wake
            )

        for node in order:
            ctx = contexts[node]
            ctx.round = round_index
            outbox = programs[node].compose(ctx)
            if not outbox:
                continue
            if node not in expected:
                raise QuiescenceViolation(
                    f"node {node} ({type(programs[node]).__name__}) composed "
                    f"a non-empty outbox in round {round_index} while idle: "
                    f"schedule='quiescent' would have skipped this send"
                )
            if not ctx.neighbors.issuperset(outbox):
                raise _non_neighbor_error(node, outbox, ctx.neighbors, round_index)
            for receiver, payload in outbox.items():
                if emit is not None:
                    emit(
                        round_index, "send", node, {"to": receiver, "payload": payload}
                    )
                if receiver not in active:
                    if receiver in remote:
                        transport.export(node, receiver, payload)
                    continue
                if interposer is not None:
                    payload = interposer.adjudicate(
                        round_index, node, receiver, payload
                    )
                    if payload is DROPPED:
                        next_wake.add(receiver)
                        continue
                deposit(node, receiver, payload)
                next_wake.add(receiver)
        transport.sync(round_index, active, None, next_wake)

        for node in order:
            ctx = contexts[node]
            inbox = inboxes[node]
            if node in expected or inbox:
                programs[node].process(ctx, inbox)
                self._collect_wake(node, ctx)
                continue
            before = (ctx.has_output, ctx.output)
            programs[node].process(ctx, inbox)
            self._collect_wake(node, ctx)
            if ctx.terminate_requested or (ctx.has_output, ctx.output) != before:
                raise QuiescenceViolation(
                    f"node {node} ({type(programs[node]).__name__}) "
                    f"{'terminated' if ctx.terminate_requested else 'assigned output'} "
                    f"in round {round_index} while idle: schedule='quiescent' "
                    f"would not have run it"
                )

        rt.finalize_round(round_index)


class AsyncScheduler(QuiescentScheduler):
    """The asynchronous execution model: delays, timeouts, stabilization.

    Builds on the quiescent wake machinery — a node fires exactly when
    something can observably reach it (a delivery, a neighbor event, a
    timed wakeup), which under asynchrony *is* fire-on-receipt — and
    relaxes lockstep delivery through three mechanisms:

    * **Adversarial delays** — every message that survives the fault
      interposer is handed to a :class:`~repro.simulator.adversary.
      DelayAdversary`; a message assigned delay ``delta > 0`` is parked
      in flight and lands at the start of tick ``tick + delta`` (waking
      its receiver), charged to the transport at delivery time.
    * **Send timeouts with bounded retry** — when the interposer drops a
      send and a send timeout is armed (engine-wide ``send_timeout`` or
      per-node ``ctx.set_send_timeout``), the sender retransmits after
      an exponential backoff (``timeout * 2**(attempt-1)`` ticks), up to
      ``max_retries`` times; the retransmission is re-adjudicated and
      re-delayed like any fresh send.
    * **Self-stabilizing recovery** — when active nodes remain but no
      wake condition, in-flight message, pending retry, replay or
      scheduled recovery exists anywhere, the scheduler pulses: it wakes
      every active node once (an idle round is a no-op by the quiescence
      contract, so the pulse is always safe).  A pulse that provokes no
      new activity proves the execution has *stabilized*; the scheduler
      sets :attr:`quiesced` and the engine ends the run with a partial
      result instead of spinning empty ticks to the round budget.

    At ``phi = 0`` with no send timeout every message lands in its send
    tick, no retry is ever armed and the stabilization detector stays
    dormant, so the execution is bit-identical — outputs, counters and
    the full event stream — to ``schedule="quiescent"`` (and therefore
    to eager; ``tests/test_engine_fuzz.py`` enforces this
    differentially).  Profiling is unsupported: with messages in flight
    the compose/deliver phase split of a tick is not well-defined.
    """

    def __init__(self) -> None:
        super().__init__()
        #: due tick -> [(sender, receiver, payload)] in dispatch order.
        self._in_flight: Dict[int, List[Tuple[int, int, Any]]] = {}
        #: due tick -> [(sender, receiver, payload, attempt)].
        self._retries: Dict[int, List[Tuple[int, int, Any, int]]] = {}
        self._adversary = DelayAdversary(0, 0)
        self._policy = RetryPolicy()
        #: Whether the previous tick was a stabilization pulse that has
        #: not yet provoked any activity.
        self._pulsed = False
        self.quiesced = False

    def bind(self, rt: Any) -> None:
        super().bind(rt)
        self._adversary = DelayAdversary(rt.phi, rt._seed)
        self._policy = RetryPolicy(rt.send_timeout, rt.max_retries)

    # -- async bookkeeping ----------------------------------------------
    def _has_future_work(self, round_index: int) -> bool:
        """Whether anything anywhere can still wake a node later."""
        if self._in_flight or self._retries or self._timed_wake:
            return True
        rt = self.rt
        interposer = rt.interposer
        if interposer is not None and interposer.has_pending_replays:
            return True
        return rt._has_pending_recoveries(round_index)

    def _dispatch(
        self,
        tick: int,
        sender: int,
        receiver: int,
        payload: Any,
        attempt: int,
        process_set: set,
        next_wake: set,
    ) -> None:
        """Route one composed (or retransmitted) message.

        Adjudicates faults, then either lands the message now (delay 0 —
        the synchronous path), parks it in flight (delay > 0), or — on a
        drop with a timeout armed — schedules a backoff retransmission
        of the *original* payload.
        """
        rt = self.rt
        interposer = rt.interposer
        if interposer is not None:
            adjudicated = interposer.adjudicate(tick, sender, receiver, payload)
            if adjudicated is DROPPED:
                next_wake.add(receiver)
                ctx_timeout = rt.contexts[sender]._send_timeout
                timeout = (
                    ctx_timeout
                    if ctx_timeout is not None
                    else self._policy.send_timeout
                )
                if timeout is not None:
                    due = self._policy.retry_due(tick, attempt + 1, timeout)
                    if due is not None:
                        self._retries.setdefault(due, []).append(
                            (sender, receiver, payload, attempt + 1)
                        )
                return
            payload = adjudicated
        delay = self._adversary.delay(tick, sender, receiver)
        if delay:
            rt.result.delayed_messages += 1
            if rt.obs:
                rt.obs.emit(
                    tick,
                    "delay",
                    sender,
                    {"to": receiver, "payload": payload, "delay": delay},
                )
            self._in_flight.setdefault(tick + delay, []).append(
                (sender, receiver, payload)
            )
            return
        transport = rt.transport
        if receiver not in process_set:
            transport.inboxes[receiver].clear()
            process_set.add(receiver)
        transport.deposit(sender, receiver, payload)
        next_wake.add(receiver)

    # -- round execution ------------------------------------------------
    def run_round(self, round_index: int) -> None:
        rt = self.rt
        rt.apply_recoveries(round_index)
        scheduled = self.compute_wake_order(round_index)
        next_wake = self._next_wake
        active = rt._active
        programs = rt.programs
        contexts = rt.contexts
        transport = rt.transport
        inboxes = transport.inboxes
        deposit = transport.deposit
        emit = rt.obs.emit if rt.obs else None
        interposer = rt.interposer
        live_async = (
            self._adversary.phi > 0 or self._policy.send_timeout is not None
        )

        if scheduled:
            self._pulsed = False
        elif live_async and active and not self._has_future_work(round_index):
            if self._pulsed:
                # A full pulse provoked nothing and nothing is in flight
                # anywhere: the execution has stabilized short of
                # termination.  Tell the engine instead of spinning.
                self.quiesced = True
                self.processed_last_round = set()
                rt.finalize_round(round_index, participants=[])
                return
            # Self-stabilizing recovery: wake everyone once.  An idle
            # round is a no-op under the quiescence contract, so the
            # pulse never perturbs a healthy execution.
            self._pulsed = True
            rt.result.recovery_pulses += 1
            if emit is not None:
                emit(round_index, "stabilize", -1, {"live": len(active)})
            scheduled = list(rt._active_order)

        process_set = set(scheduled)
        for node in scheduled:
            inboxes[node].clear()
        if interposer is not None and interposer.has_pending_replays:
            interposer.deliver_replays(
                round_index, transport, active, awaken=process_set, wake=next_wake
            )

        # Delayed messages due this tick land before fresh sends — they
        # are older traffic, the same precedence adversarial replays get.
        # A receiver that left the computation while the message was in
        # flight discards it, matching the synchronous rule for sends to
        # inactive nodes.
        due = self._in_flight.pop(round_index, None)
        if due is not None:
            for sender, receiver, payload in due:
                if receiver not in active:
                    continue
                if emit is not None:
                    emit(
                        round_index,
                        "deliver",
                        sender,
                        {"to": receiver, "payload": payload},
                    )
                if receiver not in process_set:
                    inboxes[receiver].clear()
                    process_set.add(receiver)
                deposit(sender, receiver, payload)
                next_wake.add(receiver)

        # Retransmissions whose backoff timer expires this tick.
        due_retries = self._retries.pop(round_index, None)
        if due_retries is not None:
            for sender, receiver, payload, attempt in due_retries:
                if sender not in active or receiver not in active:
                    continue
                rt.result.retried_messages += 1
                if emit is not None:
                    emit(
                        round_index,
                        "retry",
                        sender,
                        {"to": receiver, "payload": payload, "attempt": attempt},
                    )
                self._dispatch(
                    round_index, sender, receiver, payload, attempt,
                    process_set, next_wake,
                )

        for node in scheduled:
            ctx = contexts[node]
            ctx.round = round_index
            outbox = programs[node].compose(ctx)
            if not outbox:
                continue
            if not ctx.neighbors.issuperset(outbox):
                raise _non_neighbor_error(node, outbox, ctx.neighbors, round_index)
            for receiver, payload in outbox.items():
                if emit is not None:
                    emit(
                        round_index, "send", node, {"to": receiver, "payload": payload}
                    )
                if receiver not in active:
                    continue
                self._dispatch(
                    round_index, node, receiver, payload, 0,
                    process_set, next_wake,
                )

        if len(process_set) == len(scheduled):
            process_order: List[int] = scheduled
        else:
            process_order = sorted(process_set)
        for node in process_order:
            ctx = contexts[node]
            ctx.round = round_index
            programs[node].process(ctx, inboxes[node])
            self._collect_wake(node, ctx)
        self.processed_last_round = process_set
        rt.finalize_round(round_index, participants=process_order)


class VectorizedScheduler(Scheduler):
    """Runs whole-frontier compiled kernels (:mod:`repro.kernels`).

    Instead of interpreting compose/deliver/process per node, every
    round executes as NumPy array operations over the run's CSR buffers
    — one :class:`~repro.kernels.base.FrontierKernel` per algorithm
    family, chosen at engine construction by the program-family probe
    after the capability table has refused the run features kernels
    cannot reproduce (unsupported runs raise
    :class:`~repro.kernels.UnsupportedScheduleError`, or fall back to
    the interpreted quiescent schedule under ``fallback="interpret"``).

    The kernel keeps the engine's ``_active`` set, result counters and
    per-node records bit-identical to the interpreted schedules
    (fuzz-checked in tests/test_vectorized.py); per-node record
    write-back is batched into :meth:`finish`, so the round loop does
    O(frontier) array work and no per-node Python at all.
    """

    handles_setup = True

    def __init__(self) -> None:
        super().__init__()
        self.kernel: Any = None

    def bind(self, rt: Any) -> None:
        self.rt = rt
        self.kernel = rt._kernel
        self.kernel.bind(rt)

    def run_setup(self) -> None:
        self.kernel.setup()

    def run_round(self, round_index: int) -> None:
        # The interpreted phase split does not exist here: the whole round
        # is charged to the ``kernel`` phase, and ``scheduled`` counts the
        # nodes that observably acted (the vectorized analogue of the
        # quiescent wake-set size).
        clock = self.rt.clock
        clock.begin("kernel")
        acted = self.kernel.run_round(round_index)
        clock.end(round_index, scheduled=int(acted))

    def finish(self) -> None:
        self.kernel.flush()

    def build_stuck_report(self, round_index: int, reason: str) -> Any:
        return self.kernel.stuck_report(round_index, reason)


#: Registry mapping the public ``schedule=`` names to implementations.
SCHEDULERS = {
    "eager": EagerScheduler,
    "quiescent": QuiescentScheduler,
    "quiescent-debug": QuiescentDebugScheduler,
    "async": AsyncScheduler,
    "vectorized": VectorizedScheduler,
}

