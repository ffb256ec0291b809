"""High-level execution entry points.

``run(algorithm, graph, predictions, config=RunConfig(...))`` is the one
call every example, benchmark and sweep uses: it builds one program per
node, executes the synchronous engine, and returns the
:class:`~repro.simulator.metrics.RunResult` whose ``rounds`` field is the
paper's performance measure.

:class:`RunConfig` is the single, frozen description of *how* to execute
— model, round budget, seed, fault plan, round-limit policy, tracing,
the engine's ``fast`` mode and the :class:`ExecutionPolicy` (scheduling
and asynchrony knobs) — so that a configuration can be hashed, compared,
stored in a sweep cell and shipped to a worker process.  The keyword
arguments of :func:`run` are conveniences that build (or override) a
:class:`RunConfig`.

The execution knobs (``schedule``/``phi``/``send_timeout``/
``max_retries``/``deadline_s``/``fallback``) live in
:class:`ExecutionPolicy` and are passed as ``policy=`` (docs/API.md
documents the policy surface).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.core.algorithm import DistributedAlgorithm
from repro.graphs.graph import DistGraph
from repro.simulator.capability import check_policy, decide
from repro.simulator.collector import paused_collector
from repro.simulator.engine import SyncEngine, default_round_budget
from repro.simulator.metrics import RunResult
from repro.simulator.models import ExecutionModel
from repro.simulator.trace import TraceRecorder

#: Sentinel distinguishing "not passed" from an explicit ``None``/value.
_UNSET: Any = object()


@dataclass(frozen=True)
class ExecutionPolicy:
    """How rounds are driven: schedule choice plus its tuning knobs.

    The one structured home for every knob that selects or parameterizes
    a :class:`~repro.simulator.scheduling.Scheduler` — what used to be
    five-and-growing flat keywords on :func:`run`.  Frozen and hashable,
    so policies can be shared across sweep cells and compared;
    :func:`repro.schedules` lists the valid ``schedule`` names with
    their capabilities.

    Attributes:
        schedule: Round scheduling policy — ``"eager"`` (every live node
            every round), ``"quiescent"`` (skip nodes that declare
            ``quiescent_when_idle`` and cannot observably act this
            round; observationally identical, much faster on frontier
            workloads), ``"quiescent-debug"`` (run eagerly but raise
            :class:`~repro.simulator.engine.QuiescenceViolation` if a
            node the quiescent schedule would have skipped acts),
            ``"async"`` (the asynchronous model: adversarial delivery
            delays up to ``phi`` ticks, fire-on-receipt scheduling,
            send timeouts and stabilization detection), or
            ``"vectorized"`` (compiled whole-frontier NumPy kernels
            over the CSR buffers — bit-identical to the interpreted
            engine for the registered greedy families, an order of
            magnitude faster at scale; see docs/PERFORMANCE.md).
        phi: Delay bound for the ``"async"`` schedule's adversary
            (``0`` = synchronous delivery; requires
            ``schedule="async"`` when nonzero).
        send_timeout: Async sender-side retransmission timeout (ticks);
            ``None`` disables retries.  Requires ``schedule="async"``.
        max_retries: Retransmission budget per lost send.
        deadline_s: Wall-clock budget (seconds) per run; exceeding it
            returns a partial result with a ``stuck`` report
            (``reason="deadline"``) instead of hanging.
        fallback: For ``schedule="vectorized"`` runs the kernels cannot
            execute: ``None`` (default) raises
            :class:`~repro.kernels.UnsupportedScheduleError`;
            ``"interpret"`` warns and runs the interpreted
            ``"quiescent"`` schedule instead.
        share_graph: Sweep-level zero-copy flag — the process-pool
            backend activates a :class:`~repro.shard.store.SharedCSRStore`
            when any cell requests it, so CSR buffers cross the pool
            boundary once as shared segments instead of per-chunk
            pickles.  A no-op for single runs and the serial backend
            (nothing ships).
        shard: ``"components"`` splits the cell's graph by connected
            components across pool workers and merges the shard results
            into one bit-identical row (see :mod:`repro.shard`).
            ``"edgecut"`` block-partitions the identifier space of a
            (possibly connected) graph and runs one engine per block,
            exchanging boundary messages at a per-round barrier
            (see :mod:`repro.shard.edgecut`) — also bit-identical.
            ``None`` (default) runs unsharded.  A sweep-level request:
            :func:`run` executes one engine whatever it says.

    Construction checks the knobs against the capability table
    (:mod:`repro.simulator.capability`), raising its ``CapabilityError``
    (a ``ValueError``).
    """

    schedule: str = "eager"
    phi: int = 0
    send_timeout: Optional[int] = None
    max_retries: int = 2
    deadline_s: Optional[float] = None
    fallback: Optional[str] = None
    share_graph: bool = False
    shard: Optional[str] = None

    def __post_init__(self) -> None:
        check_policy(
            self.schedule, phi=self.phi, send_timeout=self.send_timeout,
            deadline_s=self.deadline_s, fallback=self.fallback, shard=self.shard,
        )


@dataclass(frozen=True)
class RunConfig:
    """Frozen description of one engine execution.

    Attributes:
        model: Execution model override; ``None`` uses the algorithm's.
        max_rounds: Round budget; ``None`` uses the engine default
            (``8 * n + 64``).
        seed: Seed for the per-node random streams.  ``None`` means
            *unset*: single runs fall back to seed 0, while sweep cells
            derive a deterministic per-cell seed.  An explicit ``0`` is
            honored everywhere (it is a real seed, not "unset").
        faults: A :class:`~repro.faults.plan.FaultPlan` describing
            crashes, message adversaries and prediction corruption;
            ``None`` runs fault-free.
        on_round_limit: ``"raise"`` or ``"partial"`` (graceful
            degradation; the result carries a ``stuck`` report).
        trace: Record every event; the :class:`TraceRecorder` is attached
            to the result as ``result.trace``.
        fast: Engine fast mode — skip per-message bit-size estimation
            (identical outputs and round counts, no bandwidth columns).
        profile: Record per-round phase timings (compose/deliver/
            process/finalize, plus ``kernel`` under
            ``schedule="vectorized"``); the
            :class:`~repro.obs.profile.RoundProfile` is attached to the
            result as ``result.profile``.
        policy: The :class:`ExecutionPolicy` — schedule choice and its
            asynchrony/fallback knobs.  The policy's fields are also
            readable directly on the config (``config.schedule`` etc.).
    """

    model: Optional[ExecutionModel] = None
    max_rounds: Optional[int] = None
    seed: Optional[int] = None
    faults: Optional[Any] = None
    on_round_limit: str = "raise"
    trace: bool = False
    fast: bool = False
    profile: bool = False
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        check_policy(self.schedule, on_round_limit=self.on_round_limit)

    # -- policy field pass-throughs (the documented read surface) -------
    @property
    def schedule(self) -> str:
        return self.policy.schedule

    @property
    def phi(self) -> int:
        return self.policy.phi

    @property
    def send_timeout(self) -> Optional[int]:
        return self.policy.send_timeout

    @property
    def max_retries(self) -> int:
        return self.policy.max_retries

    @property
    def deadline_s(self) -> Optional[float]:
        return self.policy.deadline_s

    @property
    def fallback(self) -> Optional[str]:
        return self.policy.fallback

    @property
    def effective_seed(self) -> int:
        """The seed a single run uses: the configured one, else 0."""
        return 0 if self.seed is None else self.seed

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with the given (non-``_UNSET``) fields replaced."""
        changes = {
            key: value for key, value in overrides.items() if value is not _UNSET
        }
        return replace(self, **changes) if changes else self


def run(
    algorithm: DistributedAlgorithm,
    graph: DistGraph,
    predictions: Optional[Mapping[int, Any]] = None,
    *,
    config: Optional[RunConfig] = None,
    model: Optional[ExecutionModel] = _UNSET,
    max_rounds: Optional[int] = _UNSET,
    seed: Optional[int] = _UNSET,
    faults: Optional[Any] = _UNSET,
    on_round_limit: str = _UNSET,
    trace: bool = _UNSET,
    fast: bool = _UNSET,
    profile: bool = _UNSET,
    policy: Optional[ExecutionPolicy] = None,
    sinks: Optional[Any] = None,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` and return the execution record.

    The execution is described by ``config``; any keyword argument passed
    alongside it overrides the corresponding field.  Calls without a
    ``config`` build one from the keywords, so
    ``run(alg, g, p, seed=3)`` and
    ``run(alg, g, p, config=RunConfig(seed=3))`` are identical.

    Args:
        algorithm: Any :class:`DistributedAlgorithm` (including templates).
        graph: The instance.
        predictions: Per-node predictions; required when the algorithm
            declares ``uses_predictions``.
        config: A :class:`RunConfig`; defaults to ``RunConfig()``.
        model, max_rounds, seed, faults, on_round_limit, trace, fast,
            profile: Field-level overrides of ``config`` (see
            :class:`RunConfig`).
        policy: An :class:`ExecutionPolicy` override — the documented
            way to choose a schedule and its asynchrony/fallback knobs:
            ``run(alg, g, policy=ExecutionPolicy(schedule="vectorized"))``.
        sinks: Extra :class:`~repro.obs.events.EventSink` objects
            attached to the engine for this call (not part of the
            frozen config: sinks hold live resources such as open
            files).

    Returns:
        The :class:`RunResult`; when tracing was requested its ``trace``
        attribute holds the :class:`TraceRecorder`.
    """
    config = (config or RunConfig()).with_overrides(
        model=model,
        max_rounds=max_rounds,
        seed=seed,
        faults=faults,
        on_round_limit=on_round_limit,
        trace=trace,
        fast=fast,
        profile=profile,
        policy=_UNSET if policy is None else policy,
    )
    return run_engine(algorithm, graph, predictions, config, sinks=sinks)


def resolve_run(
    algorithm: DistributedAlgorithm,
    graph: Any,
    predictions: Optional[Mapping[int, Any]],
    config: RunConfig,
) -> Tuple[ExecutionModel, int]:
    """The model and round budget a run resolves to, after the predictions
    check; the edge-cut coordinator needs both before any engine exists."""
    if algorithm.uses_predictions and predictions is None:
        raise ValueError(
            f"{algorithm.name or type(algorithm).__name__} requires predictions"
        )
    max_rounds = config.max_rounds
    if max_rounds is None:
        max_rounds = default_round_budget(graph.n)
    return config.model or algorithm.model, max_rounds


def run_engine(
    algorithm: DistributedAlgorithm,
    graph: Any,
    predictions: Optional[Mapping[int, Any]],
    config: RunConfig,
    *,
    sinks: Optional[Any] = None,
    transport: Optional[Any] = None,
    drive: Optional[Callable[[SyncEngine], RunResult]] = None,
) -> RunResult:
    """Build one engine, drive it and free it: the one engine construction
    site, for :func:`run` and every edge-cut shard driver.

    The capability table decides first, so a refusal raises and a
    downgrade warns once before the engine exists.  ``transport`` is the
    engine's transport factory; ``drive`` runs the engine and returns its
    result (default :meth:`SyncEngine.run`).  The collector stays off the
    per-run graph while it lives, and the released engine is freed by
    refcount (see :mod:`repro.simulator.collector`).
    """
    model, max_rounds = resolve_run(algorithm, graph, predictions, config)
    verdict = decide(
        config.schedule,
        faults=config.faults is not None,
        trace=config.trace or bool(sinks),
        profile=config.profile,
        fallback=config.fallback,
    ).enact(stacklevel=4)
    recorder = TraceRecorder() if config.trace else None
    with paused_collector():
        engine = SyncEngine(
            graph,
            lambda node: algorithm.build_program(),
            predictions=predictions,
            model=model,
            max_rounds=max_rounds,
            seed=config.effective_seed,
            trace=recorder,
            sinks=sinks,
            profile=config.profile,
            faults=config.faults,
            on_round_limit=config.on_round_limit,
            fast=config.fast,
            schedule=verdict.schedule,
            phi=config.phi,
            send_timeout=config.send_timeout,
            max_retries=config.max_retries,
            deadline_s=config.deadline_s,
            fallback=verdict.fallback,
            transport=transport,
        )
        try:
            result = engine.run() if drive is None else drive(engine)
        finally:
            engine._release()
        del engine
    result.trace = recorder
    return result
