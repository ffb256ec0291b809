"""Component-sharded cell execution: split, run, merge bit-identically.

The embarrassingly-shardable case from ROADMAP item 4: nodes in different
connected components never exchange messages, so a cell whose graph has
many components can run as independent sub-cells — one per worker — and
merge back into a single :class:`~repro.exec.results.CellResult` that is
**bit-identical** to the unsharded run.  Identity holds because every
ambient quantity a node observes is pinned to the parent graph's value:

* per-node randomness is keyed ``Random(f"{seed}:{node_id}")`` — the
  stream never sees the shard;
* a :func:`shard_view` reports the *parent's* ``n`` and ``Δ``, so round
  budgets (``8n + 64``), CONGEST bandwidth (``O(log n)`` bits), palette
  sizes (``Δ+1`` / ``2Δ−1``) and template slice bounds all match;
* predictions are built from the full graph's spec (same factory, same
  seed) and restricted to the shard's nodes;
* the merge rules are exactly the component decompositions of the
  engine's aggregates — ``rounds``/``rounds_executed`` are maxima,
  message/solution counts are sums, validity is a conjunction, and η₁ is
  a maximum (error components are sub-component by definition).

What shards: cells without fault plans, custom metrics, profiling,
traces or event capture, on any schedule except ``"async"`` (the delay
adversary draws from tick-global streams, so component isolation does
not hold).  The capability table (:mod:`repro.simulator.capability`)
decides it once per cell, before the sweep runs; a cell it will not
shard runs unsharded with one warning.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence

from repro.core.runner import run
from repro.graphs.graph import DistGraph

if TYPE_CHECKING:  # imported lazily at runtime: repro.exec imports this
    # module (via the backends), so a module-level import would cycle.
    from repro.exec.cache import ArtifactCache
    from repro.exec.plan import Cell
    from repro.exec.results import CellResult


def shard_view(parent: DistGraph, nodes: Sequence[int]) -> DistGraph:
    """The induced subgraph with the parent's ambient ``n``/``Δ`` pinned.

    The view's node set and edges are the shard's own (freshly built
    topology, per the subgraph-freshness contract), but ``graph.n`` and
    ``graph.delta`` report the parent's values — the quantities a node in
    the unsharded run would know.
    """
    view = parent.subgraph(nodes)
    view.n = parent.n
    view._delta_override = parent.delta
    return view


def shard_node_ids(graph: DistGraph, shard: int, shard_count: int) -> List[int]:
    """Identifiers of the components assigned to ``shard`` (round-robin
    over the topology's min-id-ordered component list)."""
    csr = graph.csr
    ids = csr.ids
    parts = csr.components()
    return [
        ids[index]
        for part_index in range(shard, len(parts), shard_count)
        for index in parts[part_index]
    ]


def edgecut_bounds(n_nodes: int, shard_count: int) -> List[int]:
    """Block boundaries of the edge-cut partition: ``shard_count + 1``
    positions into the sorted identifier sequence.

    Shard ``s`` owns the contiguous slice ``[bounds[s], bounds[s+1])`` of
    the ascending node ids — a BFS/DFS-block partition for generators that
    number locality-contiguously (preorder trees, rings, grids), and a
    balanced ±1 split for any graph.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    return [(n_nodes * s) // shard_count for s in range(shard_count + 1)]


def edgecut_node_ids(
    graph: DistGraph, shard: int, shard_count: int
) -> List[int]:
    """Identifiers owned by ``shard`` under the edge-cut block partition."""
    nodes = graph.nodes
    bounds = edgecut_bounds(len(nodes), shard_count)
    return list(nodes[bounds[shard] : bounds[shard + 1]])


class EdgecutView:
    """One edge-cut shard's window onto the *full* parent graph.

    Unlike :func:`shard_view` (components), no subgraph is built: an
    owned node keeps its complete adjacency — including neighbors whose
    mailboxes live on other shards — because the paper's algorithms act
    on full local views and only the *delivery* of cut messages moves to
    the :class:`~repro.simulator.transport.BoundaryTransport`.  ``nodes``
    is the owned contiguous block; every ambient quantity (``n``, ``d``,
    ``Δ``, attrs) delegates to the parent, so round budgets, CONGEST
    bandwidth and palette sizes match the unsharded run exactly.
    """

    __slots__ = ("parent", "shard", "shard_count", "nodes")

    #: Marks an engine's graph as an edge-cut shard: the engine asks the
    #: capability table strictly for ``shard="edgecut"``, so compiled
    #: kernels (no halo exchange) and whole-graph features refuse loudly.
    is_edgecut = True

    def __init__(
        self, parent: DistGraph, shard: int, shard_count: int
    ) -> None:
        if not 0 <= shard < shard_count:
            raise ValueError(
                f"shard must be in [0, {shard_count}), got {shard}"
            )
        self.parent = parent
        self.shard = shard
        self.shard_count = shard_count
        self.nodes = tuple(edgecut_node_ids(parent, shard, shard_count))

    def __reduce__(self) -> tuple:
        # Rebuild from the parent (which ships zero-copy under an active
        # SharedCSRStore) instead of pickling the owned-id tuple.
        return (type(self), (self.parent, self.shard, self.shard_count))

    @property
    def n(self) -> int:
        return self.parent.n

    @property
    def d(self) -> int:
        return self.parent.d

    @property
    def delta(self) -> Optional[int]:
        return self.parent.delta

    @property
    def name(self) -> str:
        return (
            f"{self.parent.name}[edgecut {self.shard}/{self.shard_count}]"
        )

    def neighbors(self, node: int):
        return self.parent.neighbors(node)

    def node_attrs(self, node: int):
        return self.parent.node_attrs(node)

    def boundary_nodes(self) -> FrozenSet[int]:
        """Owned nodes with at least one neighbor on another shard.

        The owned block is one contiguous index range and CSR rows
        ascend, so a row leaves the block exactly when its first index
        lies below it or its last index at or past its end — two reads
        per owned node, no neighbor walk.
        """
        csr = self.parent.csr
        bounds = edgecut_bounds(csr.n, self.shard_count)
        low, high = bounds[self.shard], bounds[self.shard + 1]
        indptr = csr.indptr
        indices = csr.indices
        ids = csr.ids
        return frozenset(
            ids[index]
            for index in range(low, high)
            if indptr[index] < indptr[index + 1]
            and (
                indices[indptr[index]] < low
                or indices[indptr[index + 1] - 1] >= high
            )
        )


def execute_shard(
    index: int,
    cell: "Cell",
    seed: int,
    shard: int,
    shard_count: int,
    cache: "ArtifactCache",
) -> "CellResult":
    """Run one shard of a cell (worker-side) and return its row.

    The parent graph is attached/built through the worker's artifact
    cache (zero-copy when a :class:`~repro.shard.store.SharedCSRStore`
    shipped it); the shard's induced view is cached per
    ``(graph, shard, shard_count)`` so grid cells sharing a graph reuse
    it.  The row is verified on the view — a component shard is a closed
    world — but named after the parent graph.
    """
    from repro.exec.results import cell_row

    start = time.perf_counter()
    graph, full = cell.inputs(cache)
    view = cache.get_or_build(
        f"shard:{shard}/{shard_count}@{cell.graph.key}",
        lambda: shard_view(graph, shard_node_ids(graph, shard, shard_count)),
    )
    predictions = None
    if full is not None:
        predictions = {node: full[node] for node in view.nodes if node in full}
    config = cell.config.with_overrides(seed=seed)
    result = run(cell.algorithm.build(), view, predictions, config=config)
    return cell_row(
        index, cell, seed, view, predictions, result,
        start=start, graph_name=graph.name,
    )


def merge_partials(rows: Sequence["CellResult"]) -> "CellResult":
    """Fold one cell's per-shard rows, in shard order, into the
    unsharded-identical row.

    Maxima for round counts and η₁ (component-wise maxima compose),
    sums for message/solution counters, conjunction for validity; the
    kernel name is the first shard's that has one.
    """
    if not rows:
        raise ValueError("no shard rows to merge")
    valids = [row.valid for row in rows if row.valid is not None]
    errors = [row.error for row in rows if row.error is not None]
    kernels = [row.kernel for row in rows if row.kernel is not None]
    return replace(
        rows[0],
        rounds=max(row.rounds for row in rows),
        rounds_executed=max(row.rounds_executed for row in rows),
        valid=all(valids) if valids else None,
        error=max(errors) if errors else None,
        message_count=sum(row.message_count for row in rows),
        dropped_messages=sum(row.dropped_messages for row in rows),
        delayed_messages=sum(row.delayed_messages for row in rows),
        retried_messages=sum(row.retried_messages for row in rows),
        kernel=kernels[0] if kernels else None,
        stuck=any(row.stuck for row in rows),
        solution_size=sum(row.solution_size for row in rows),
        elapsed=sum(row.elapsed for row in rows),
        profile=None,
        shards=len(rows),
    )
