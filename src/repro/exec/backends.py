"""Sweep execution backends: serial and process-pool.

The process backend fans chunks of cells out over a
:class:`concurrent.futures.ProcessPoolExecutor`; the serial backend runs
the identical per-cell function in-process.  Because per-cell seeds are
fixed before dispatch (explicit or derived — see
:func:`repro.exec.plan.derive_cell_seed`) and cached artifacts are
immutable, the two backends produce row-for-row identical
:class:`~repro.exec.results.SweepResult` tables for the same sweep, and
any chunking of the process backend does too.

Chunked dispatch matters for throughput twice over: it amortizes the
pickle/IPC overhead of small cells, and — because chunks keep grid order,
which groups cells sharing a graph spec — it turns most per-worker
artifact-cache lookups into hits.

Two :class:`~repro.core.runner.ExecutionPolicy` knobs change what a
dispatched work item *is*:

* ``share_graph=True`` — the process backend activates a
  :class:`~repro.shard.store.SharedCSRStore` around dispatch, so every
  CSR topology crossing the pool boundary ships once as a shared-memory
  segment and each cell pickles down to a ~100-byte handle (measured
  into the rows' ``ship_bytes``/``shared_bytes`` columns).
* ``shard="components"`` / ``shard="edgecut"`` — cells the capability
  table lets shard run as shards.  Component shards are independent, so
  on the process backend they become one pool work item each and their
  rows merge back into one bit-identical row; edge-cut shards are
  coupled by a per-round barrier, so each such cell runs as one unit
  whose shard drivers the parent coordinates (see
  :mod:`repro.shard.edgecut`).

Every cell is decided once, in the parent, before any cell runs
(:func:`_decided`): the capability table refuses what cannot run, warns
once per distinct downgrade, and rewrites the cell's config to what
actually runs.  Every cell then takes one dispatch (:func:`_run_cell`),
which reads the decided shard mode, and every run becomes a row in one
place (:func:`repro.exec.results.cell_row`).  The serial
backend, the process backend and the fallback when the platform denies
spawning differ only in whether shard drivers are threads or processes.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import replace
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple

from repro.core.runner import run
from repro.exec.cache import (
    ArtifactCache,
    configure_process_cache,
    process_cache,
)
from repro.exec.plan import Cell, Spec, Sweep, derive_cell_seed
from repro.exec.results import CellResult, SweepResult, cell_row
from repro.obs.events import MemoryEventSink, write_jsonl_events
from repro.shard.edgecut import execute_edgecut_cell
from repro.shard.plan import execute_shard, merge_partials
from repro.shard.store import SharedCSRStore, reset_worker_state
from repro.simulator.capability import decide

#: A pool work item: an entire cell, or one component shard.
#: ``("cell", index, cell, seed, events)`` /
#: ``("shard", index, cell, seed, shard, shard_count)``.
#: Edge-cut cells never become pool items (see the module docstring).
WorkItem = Tuple[Any, ...]


def execute(
    sweep: Sweep,
    *,
    backend: str = "process",
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
    cache_dir: Optional[str] = None,
    cache_size: int = 256,
    profile: bool = False,
    events: bool = False,
    events_path: Optional[str] = None,
) -> SweepResult:
    """Run every cell of ``sweep`` on the chosen backend.

    With ``profile``, every cell runs with round profiling and its
    ``RoundProfile.summary()`` lands on the row.  With ``events`` (or an
    ``events_path``), every cell's structured events are captured; an
    ``events_path`` additionally writes them all — tagged with their
    cell label, in cell order — as one JSONL file.

    The returned :class:`SweepResult` records both the requested and the
    *effective* backend: a process-backend request runs serially for a
    single unsharded cell and on platforms that cannot spawn workers,
    and reports so instead of claiming parallelism it didn't have.
    Sharded cells follow the requested backend — on ``"process"`` their
    shards run in worker processes even when the sweep has one cell.
    """
    if backend not in ("serial", "process"):
        raise ValueError(f"backend must be 'serial' or 'process', got {backend!r}")
    if cache is not None and backend == "process":
        raise ValueError(
            "cache= is only honored by the serial backend (worker processes "
            "cannot share a live cache object); pass cache_dir= to share "
            "artifacts on disk, or use backend='serial'"
        )
    events = events or events_path is not None
    shard_count = max(1, jobs or os.cpu_count() or 2)
    tagged = _decided(sweep, profile, events, shard_count)
    sharded = any(cell.config.policy.shard for _, cell, _ in tagged)
    start = time.perf_counter()
    shared_bytes = 0
    if backend == "serial" or (len(tagged) <= 1 and not sharded):
        effective = "serial"
        # ``is not None``, not truthiness: a fresh caller-supplied cache
        # is empty and ArtifactCache defines ``__len__``.
        local_cache = (
            cache
            if cache is not None
            else ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
        )
        rows, stats = _execute_serial(tagged, local_cache, events, shard_count)
    else:
        store = None
        if any(cell.config.policy.share_graph for _, cell, _ in tagged):
            store = SharedCSRStore(directory=cache_dir)
        try:
            if store is not None:
                store.activate()
            rows, stats, effective = _execute_process_pool(
                tagged,
                jobs=jobs,
                chunk_size=chunk_size,
                cache_dir=cache_dir,
                cache_size=cache_size,
                events=events,
                shard_count=shard_count,
                store=store,
            )
            if store is not None:
                shared_bytes = store.total_bytes
        finally:
            if store is not None:
                store.close()
    rows.sort(key=lambda row: row.index)
    result = SweepResult(
        name=sweep.name,
        rows=rows,
        backend=effective,
        requested_backend=backend,
        elapsed=time.perf_counter() - start,
        cache_stats=stats,
        shared_bytes=shared_bytes,
    )
    if events_path is not None:
        _write_sweep_events(events_path, rows)
    return result


def _decided(
    sweep: Sweep, profile: bool, events: bool, shard_count: int
) -> List[Tuple[int, Cell, int]]:
    """``(index, cell, seed)`` for every cell as it will run.

    The capability table decides each cell once, before any cell runs:
    a refusal raises here, each distinct downgrade warns once (a sharded
    request with faults, custom metrics, profiling, event capture or a
    trace runs unsharded, as does an edge-cut request with one shard),
    and the cell's config is rewritten to what actually runs (with
    ``profile`` folded in), so no later stage decides again.
    """
    tagged = []
    warned = set()
    for index, cell in enumerate(sweep.cells):
        config = cell.config
        if profile:
            config = config.with_overrides(profile=True)
        policy = config.policy
        verdict = decide(
            policy.schedule,
            shard=policy.shard,
            shard_count=shard_count,
            faults=cell.faults is not None or config.faults is not None,
            trace=events or config.trace,
            profile=config.profile,
            metrics=cell.metrics is not None,
            fallback=policy.fallback,
        )
        if verdict.error is not None or verdict.message not in warned:
            warned.add(verdict.message)
            verdict.enact(stacklevel=5)
        decided = verdict.applied_to(policy)
        if decided is not policy:
            config = config.with_overrides(policy=decided)
        if config is not cell.config:
            cell = replace(cell, config=config)
        tagged.append((index, cell, _resolved_seed(sweep, index, cell)))
    return tagged


def _write_sweep_events(path: str, rows: List[CellResult]) -> None:
    """Serialize every row's captured events as one JSONL file."""
    # Truncate first: write_jsonl_events appends per cell.
    open(path, "w", encoding="utf-8").close()
    for row in rows:
        if row.events:
            write_jsonl_events(path, row.events, cell=row.label)


def _resolved_seed(sweep: Sweep, index: int, cell: Cell) -> int:
    """The seed a cell runs with: explicit beats configured beats derived.

    ``seed=0`` is a real seed at either level — only ``None`` (unset)
    falls through to the derived per-cell seed.
    """
    if cell.seed is not None:
        return cell.seed
    if cell.config.seed is not None:
        return cell.config.seed
    return derive_cell_seed(sweep.base_seed, index, cell.label)


# ----------------------------------------------------------------------
# Per-cell execution (shared verbatim by both backends)
# ----------------------------------------------------------------------
def _execute_cell(
    index: int,
    cell: Cell,
    seed: int,
    cache: ArtifactCache,
    events: bool = False,
) -> CellResult:
    """One cell in one engine."""
    start = time.perf_counter()
    graph, predictions = cell.inputs(cache)
    faults = cell.faults
    if isinstance(faults, Spec):  # a FaultSpec, or a generic Spec
        faults = faults.build(graph)
    config = cell.config.with_overrides(seed=seed)
    if faults is not None:
        config = config.with_overrides(faults=faults)
    sink = MemoryEventSink() if events else None
    result = run(
        cell.algorithm.build(),
        graph,
        predictions,
        config=config,
        sinks=[sink] if sink is not None else None,
    )
    return cell_row(
        index, cell, seed, graph, predictions, result,
        start=start,
        events=sink.entries if sink is not None else None,
    )


def _run_cell(
    index: int,
    cell: Cell,
    seed: int,
    cache: ArtifactCache,
    events: bool,
    shard_count: int,
    drivers: str,
) -> CellResult:
    """The one dispatch: a decided cell on this process, sharded as its
    policy says (see :func:`_decided`).

    Component shards run one after another here and merge in place —
    the serial spelling of the pool's split, so every backend yields the
    same rows.  ``drivers`` (``"thread"`` or ``"process"``) is what runs
    an edge-cut cell's shards.
    """
    kind = cell.config.policy.shard
    if kind == "edgecut":
        return execute_edgecut_cell(
            index, cell, seed, shard_count, mode=drivers, cache=cache
        )
    if kind == "components":
        return merge_partials(
            [
                execute_shard(index, cell, seed, shard, shard_count, cache)
                for shard in range(shard_count)
            ]
        )
    return _execute_cell(index, cell, seed, cache, events)


def _execute_serial(
    tagged: List[Tuple[int, Cell, int]],
    cache: ArtifactCache,
    events: bool,
    shard_count: int,
) -> Tuple[List[CellResult], Dict[str, int]]:
    """Every cell in this process, edge-cut shards on threads."""
    rows = [
        _run_cell(index, cell, seed, cache, events, shard_count, "thread")
        for index, cell, seed in tagged
    ]
    return rows, cache.stats()


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------
def _init_worker(cache_size: int, cache_dir: Optional[str]) -> None:
    """Pool initializer: one artifact cache per worker process.

    Also clears any fork-inherited :class:`SharedCSRStore` reduce hook —
    workers attach segments, they must never publish them.
    """
    reset_worker_state()
    configure_process_cache(maxsize=cache_size, disk_dir=cache_dir)


def _execute_item(item: WorkItem, cache: ArtifactCache) -> CellResult:
    """One work item in a worker: a cell's row, or one shard's row."""
    kind = item[0]
    if kind == "cell":
        _, index, cell, seed, events = item
        return _execute_cell(index, cell, seed, cache, events)
    _, index, cell, seed, shard, shard_count = item
    return execute_shard(index, cell, seed, shard, shard_count, cache)


def _run_chunk(
    task: Tuple[List[WorkItem], ...]
) -> Tuple[List[CellResult], Dict[str, int]]:
    """Execute one chunk in a worker; returns its rows (in item order)
    plus cache counters."""
    (items,) = task
    cache = process_cache()
    before = cache.stats()
    outputs = [_execute_item(item, cache) for item in items]
    after = cache.stats()
    delta = {
        key: after[key] - before.get(key, 0)
        for key in ("hits", "disk_hits", "misses", "corrupt")
    }
    return outputs, delta


def _failed_cell_result(item: WorkItem, exc: BaseException) -> CellResult:
    """A placeholder row for a work item whose worker died (twice).

    Every run-derived field is zero/``None``; ``failure`` records the
    exception so the sweep table stays complete and diagnosable instead
    of silently dropping the cell.  A failed *shard* fails its whole
    cell — partial rows would not be comparable.
    """
    _kind, index, cell, seed = item[:4]
    return CellResult(
        index=index,
        label=cell.label,
        graph_name="",
        n=0,
        seed=seed,
        rounds=0,
        rounds_executed=0,
        failure=f"{type(exc).__name__}: {exc}",
    )


def _drain_pool(
    chunks: List[Tuple[List[WorkItem]]],
    workers: int,
    cache_size: int,
    cache_dir: Optional[str],
    outputs: List[Tuple[WorkItem, CellResult]],
    stats: Dict[str, int],
) -> List[Tuple[List[WorkItem], BaseException]]:
    """Run chunks on one fresh pool, collecting ``(item, row)`` pairs into
    ``outputs`` and cache counters into ``stats``.

    Returns the chunks (with the exception) whose workers the pool lost
    — a crashed worker poisons the whole executor, so every not-yet-run
    chunk surfaces as :class:`BrokenProcessPool` while already-completed
    chunks keep their results.
    """
    lost: List[Tuple[List[WorkItem], BaseException]] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(cache_size, cache_dir),
    ) as pool:
        futures = {}
        try:
            for chunk in chunks:
                futures[pool.submit(_run_chunk, chunk)] = chunk
        except BrokenProcessPool as exc:
            # The pool died while submissions were still going in; every
            # chunk that never made it to a worker is lost as well.
            lost.extend((chunk[0], exc) for chunk in chunks[len(futures):])
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                chunk_outputs, chunk_stats = future.result()
            except BrokenProcessPool as exc:
                lost.append((chunk[0], exc))
                continue
            outputs.extend(zip(chunk[0], chunk_outputs))
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
    return lost


def _expand_items(
    tagged: List[Tuple[int, Cell, int]],
    shard_count: int,
    events: bool,
) -> List[WorkItem]:
    """Work items in grid order: one per cell, or one per shard for
    component-sharded cells.  Edge-cut cells are absent by construction
    — the caller runs them with parent-coordinated shard drivers."""
    items: List[WorkItem] = []
    for index, cell, seed in tagged:
        if cell.config.policy.shard == "components":
            items.extend(
                ("shard", index, cell, seed, shard, shard_count)
                for shard in range(shard_count)
            )
        else:
            items.append(("cell", index, cell, seed, events))
    return items


def _measure_shipping(
    items: List[WorkItem], store: SharedCSRStore
) -> Dict[int, int]:
    """Per-cell dispatched-pickle bytes, measured under the active store.

    The measurement pickle is also the store's publication pass: the
    first ``dumps`` of each topology creates its segment, so by the time
    the pool pickles the same items only handles cross the boundary.
    Only taken when a store is active — the handles make it cheap; with
    flat buffers it would double the dominant serialization cost.
    """
    ship: Dict[int, int] = {}
    for item in items:
        index = item[1]
        size = len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        ship[index] = ship.get(index, 0) + size
    return ship


def _shared_bytes_for(cell: Cell, store: SharedCSRStore) -> Optional[int]:
    """Segment bytes behind the cell's literal graph, if published."""
    csr = getattr(cell.graph.value, "csr", None)
    if csr is None:
        return None
    handle = store.handle_for(csr)
    return handle.nbytes if handle is not None else None


def _collect_rows(
    outputs: List[Tuple[WorkItem, CellResult]],
    failed: List[CellResult],
) -> List[CellResult]:
    """Fold worker rows into final rows: pass cell rows through, merge
    each cell's shard rows in shard order, let a failed shard fail its
    cell."""
    rows: List[CellResult] = []
    shards: Dict[int, List[Tuple[int, CellResult]]] = {}
    for item, row in outputs:
        if item[0] == "shard":
            shards.setdefault(row.index, []).append((item[4], row))
        else:
            rows.append(row)
    failed_indexes = {row.index for row in failed}
    for index, parts in shards.items():
        if index not in failed_indexes:  # else a lost shard failed the cell
            parts.sort(key=lambda part: part[0])
            rows.append(merge_partials([row for _, row in parts]))
    seen = {row.index for row in rows}
    rows.extend(row for row in failed if row.index not in seen)
    return rows


def _execute_process_pool(
    tagged: List[Tuple[int, Cell, int]],
    *,
    jobs: Optional[int],
    chunk_size: Optional[int],
    cache_dir: Optional[str],
    cache_size: int,
    events: bool = False,
    shard_count: int = 1,
    store: Optional[SharedCSRStore] = None,
) -> Tuple[List[CellResult], Dict[str, int], str]:
    """Rows, cache counters and the backend that actually ran them.

    Pool items (whole cells and component shards) run on the pool, then
    edge-cut cells run here with one worker process per shard.  If the
    platform denies spawning either kind of worker, the whole sweep
    reruns serially — the same dispatch, with thread shard drivers.
    """
    edgecut = {
        index
        for index, cell, _ in tagged
        if cell.config.policy.shard == "edgecut"
    }
    edgecut_tagged = [entry for entry in tagged if entry[0] in edgecut]
    pool_tagged = [entry for entry in tagged if entry[0] not in edgecut]
    items = _expand_items(pool_tagged, shard_count, events)
    workers = max(1, min(jobs or os.cpu_count() or 2, len(items)))
    ship = _measure_shipping(items, store) if store is not None else {}
    if chunk_size is None:
        # ~4 waves per worker balances scheduling slack against IPC cost.
        chunk_size = max(1, len(items) // (workers * 4) or 1)
    chunks = [
        (items[i : i + chunk_size],)
        for i in range(0, len(items), chunk_size)
    ]
    outputs: List[Tuple[WorkItem, CellResult]] = []
    failed: List[CellResult] = []
    stats: Dict[str, int] = {
        "hits": 0, "disk_hits": 0, "misses": 0, "corrupt": 0,
    }
    try:
        lost = _drain_pool(
            chunks, workers, cache_size, cache_dir, outputs, stats
        )
        if lost:
            # A worker died and took the pool with it.  The completed
            # chunks' outputs are already collected; retry only the lost
            # items, once, each on its own fresh single-worker pool —
            # isolation, so a permanently-poisonous cell can neither
            # sink its chunk-mates nor the other cells being retried.
            retry_items = [item for chunk, _ in lost for item in chunk]
            warnings.warn(
                f"a sweep worker died ({lost[0][1]}); retrying "
                f"{len(retry_items)} affected work item(s) on a fresh pool",
                RuntimeWarning,
                stacklevel=3,
            )
            for item in retry_items:
                still_lost = _drain_pool(
                    [([item],)], 1, cache_size, cache_dir, outputs, stats
                )
                for chunk, exc in still_lost:
                    failed.extend(
                        _failed_cell_result(lost_item, exc)
                        for lost_item in chunk
                    )
        rows = _collect_rows(outputs, failed)
        parent_cache = ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
        rows.extend(
            _run_cell(
                index, cell, seed, parent_cache, events, shard_count, "process"
            )
            for index, cell, seed in edgecut_tagged
        )
        for key, value in parent_cache.stats().items():
            stats[key] = stats.get(key, 0) + value
        if store is not None:
            # Tagged is enumerate-ordered, so ``tagged[i] == (i, cell, seed)``.
            for row in rows:
                if row.failure is not None:
                    continue
                row.ship_bytes = ship.get(row.index)
                row.shared_bytes = _shared_bytes_for(tagged[row.index][1], store)
    except OSError as exc:
        # Sandboxes and restricted CI runners sometimes forbid spawning
        # worker processes; the sweep still completes, just serially —
        # and the result says so (``backend="serial"``).
        warnings.warn(
            f"process backend unavailable ({exc}); falling back to serial",
            RuntimeWarning,
            stacklevel=2,
        )
        cache = ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
        rows, stats = _execute_serial(tagged, cache, events, shard_count)
        return rows, stats, "serial"
    return rows, stats, "process"
