"""Deterministic graph generators.

Every structured family used by the paper's constructions and by our
experiment suite: lines (the lower-bound workhorse of Lemmas 4, 5, 13, 14),
rings, stars and cliques (the extremes of the μ₂ measure), grids
(Figure 2), the wheel ``F_k`` with subdivided spokes (Figure 1), forests of
short paths (the Section 10 Luby workload), and caterpillars.

All generators assign sequential identifiers ``1..n`` by default; use
:mod:`repro.graphs.identifiers` to reassign identifiers afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph


def empty_graph(n: int, name: str = "") -> DistGraph:
    """``n`` isolated nodes with ids ``1..n``."""
    return DistGraph({v: [] for v in range(1, n + 1)}, name=name or f"empty-{n}")


def line(n: int) -> DistGraph:
    """A path (the paper's "line") on ``n`` nodes: 1 - 2 - ... - n."""
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for v in range(1, n):
        adjacency[v].append(v + 1)
    return DistGraph(adjacency, name=f"line-{n}")


def ring(n: int) -> DistGraph:
    """A cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for v in range(1, n):
        adjacency[v].append(v + 1)
    adjacency[n].append(1)
    return DistGraph(adjacency, name=f"ring-{n}")


def star(n: int) -> DistGraph:
    """A star: node 1 is the center, nodes ``2..n`` are leaves.

    Stars witness τ(G) = 1, making μ₂ far smaller than μ₁ (Section 5).
    """
    if n < 1:
        raise ValueError("a star needs at least 1 node")
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for v in range(2, n + 1):
        adjacency[1].append(v)
    return DistGraph(adjacency, name=f"star-{n}")


def clique(n: int) -> DistGraph:
    """The complete graph on ``n`` nodes.

    Cliques witness α(G) = 1, making μ₂ far smaller than μ₁ (Section 5).
    """
    adjacency = {
        v: [u for u in range(1, n + 1) if u != v] for v in range(1, n + 1)
    }
    return DistGraph(adjacency, name=f"clique-{n}")


def complete_bipartite(a: int, b: int) -> DistGraph:
    """``K_{a,b}``: left part ``1..a``, right part ``a+1..a+b``."""
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, a + b + 1)}
    for left in range(1, a + 1):
        for right in range(a + 1, a + b + 1):
            adjacency[left].append(right)
    return DistGraph(adjacency, name=f"K{a},{b}")


def grid2d(rows: int, cols: int) -> DistGraph:
    """A ``rows x cols`` grid; node attrs carry ``pos=(i, j)``.

    Node with coordinates ``(i, j)`` (0-based) has id ``i * cols + j + 1``.
    This is the instance family of Figure 2.
    """
    def node_id(i: int, j: int) -> int:
        return i * cols + j + 1

    adjacency: Dict[int, List[int]] = {}
    attrs: Dict[int, Dict[str, Tuple[int, int]]] = {}
    for i in range(rows):
        for j in range(cols):
            node = node_id(i, j)
            adjacency.setdefault(node, [])
            attrs[node] = {"pos": (i, j)}
            if i + 1 < rows:
                adjacency[node].append(node_id(i + 1, j))
            if j + 1 < cols:
                adjacency[node].append(node_id(i, j + 1))
    return DistGraph(adjacency, attrs=attrs, name=f"grid-{rows}x{cols}")


def wheel_fk(k: int) -> DistGraph:
    """The graph ``F_k`` of Figure 1.

    A wheel with ``k`` nodes on the rim, a center node, and one additional
    node subdividing each spoke: rim node ``i`` connects to rim node
    ``i+1 (mod k)`` and to spoke node ``i``, which connects to the center.
    Total ``2k + 1`` nodes.  ``F_k`` has diameter 4 while the subgraph
    induced by the rim has diameter ``floor(k / 2)`` — the paper's witness
    that component diameter is not a monotone measure.

    Ids: rim nodes ``1..k``, spoke nodes ``k+1..2k``, center ``2k+1``.
    Node attrs carry ``role`` in ``{"rim", "spoke", "center"}``.
    """
    if k < 3:
        raise ValueError("F_k needs at least 3 rim nodes")
    center = 2 * k + 1
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, 2 * k + 2)}
    attrs: Dict[int, Dict[str, str]] = {}
    for i in range(1, k + 1):
        attrs[i] = {"role": "rim"}
        attrs[k + i] = {"role": "spoke"}
        rim_next = i % k + 1
        adjacency[i].append(rim_next)
        adjacency[i].append(k + i)
        adjacency[k + i].append(center)
    attrs[center] = {"role": "center"}
    return DistGraph(adjacency, attrs=attrs, name=f"F{k}")


def path_forest(num_paths: int, path_length: int) -> DistGraph:
    """A forest of ``num_paths`` disjoint paths of ``path_length`` nodes.

    The Section 10 workload: many small components, on which Luby's
    algorithm's *maximum* round count over components exceeds the expected
    rounds of any single component.
    """
    adjacency: Dict[int, List[int]] = {}
    node = 0
    for _ in range(num_paths):
        first = node + 1
        for offset in range(path_length):
            node += 1
            adjacency.setdefault(node, [])
            if node > first:
                adjacency[node - 1].append(node)
    return DistGraph(adjacency, name=f"paths-{num_paths}x{path_length}")


def hypercube(dimension: int) -> DistGraph:
    """The ``dimension``-dimensional hypercube: 2^dim nodes, ids 1-based.

    Node with id ``i`` corresponds to the bit string of ``i - 1``;
    neighbors differ in exactly one bit.  A classic Δ = dimension,
    diameter = dimension benchmark family.
    """
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    size = 2**dimension
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, size + 1)}
    for v in range(size):
        for bit in range(dimension):
            u = v ^ (1 << bit)
            if v < u:
                adjacency[v + 1].append(u + 1)
    return DistGraph(adjacency, name=f"hypercube-{dimension}")


def torus(rows: int, cols: int) -> DistGraph:
    """A ``rows x cols`` torus (grid with wraparound): 4-regular.

    Requires both dimensions ≥ 3 so wrap edges are distinct.  Node attrs
    carry ``pos=(i, j)`` like :func:`grid2d`.
    """
    if rows < 3 or cols < 3:
        raise ValueError("a torus needs both dimensions >= 3")

    def node_id(i: int, j: int) -> int:
        return i * cols + j + 1

    adjacency: Dict[int, List[int]] = {}
    attrs: Dict[int, Dict[str, Tuple[int, int]]] = {}
    for i in range(rows):
        for j in range(cols):
            node = node_id(i, j)
            adjacency.setdefault(node, [])
            attrs[node] = {"pos": (i, j)}
            adjacency[node].append(node_id((i + 1) % rows, j))
            adjacency[node].append(node_id(i, (j + 1) % cols))
    return DistGraph(adjacency, attrs=attrs, name=f"torus-{rows}x{cols}")


def complete_kary_tree(arity: int, height: int) -> DistGraph:
    """A complete ``arity``-ary tree of the given height (root id 1).

    An unrooted instance (no parent attributes); for the rooted version
    see :mod:`repro.graphs.rooted_trees`.
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    adjacency: Dict[int, List[int]] = {1: []}
    frontier = [1]
    next_id = 2
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(arity):
                adjacency[next_id] = [parent]
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return DistGraph(adjacency, name=f"karytree-{arity}-h{height}")


def preorder_kary_tree(arity: int, height: int) -> DistGraph:
    """A complete ``arity``-ary tree with DFS-preorder identifiers (root 1).

    Same topology as :func:`complete_kary_tree` (which numbers nodes in
    BFS order) but every node's id is smaller than all ids in its
    subtree, so each subtree occupies one contiguous identifier block.
    Two consequences make this the edge-cut benchmark family:

    * block-partitioning the id space (``shard="edgecut"``) cuts only
      ~``shards * height`` parent edges — the cut is the path from each
      block boundary back to the root, not a constant fraction of ``m``;
    * each parent's id is smaller than its children's, so every leaf is
      a local maximum and greedy symmetry-breaking finishes in
      ~``height`` adjudication waves regardless of ``n``.
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if height < 0:
        raise ValueError("height must be non-negative")
    # Subtree size at each depth: 1 at the leaves, else 1 + arity * below.
    sizes = [1] * (height + 1)
    for depth in range(height - 1, -1, -1):
        sizes[depth] = 1 + arity * sizes[depth + 1]
    # Rows in index space (id ``v`` has index ``v - 1``): a child's row
    # gets its parent first and its own children later, so every row
    # ascends and feeds the trusted constructor as is.
    rows: List[List[int]] = [[] for _ in range(sizes[0])]
    stack = [(0, 0)]
    while stack:
        index, depth = stack.pop()
        if depth == height:
            continue
        step = sizes[depth + 1]
        children = range(index + 1, index + 1 + arity * step, step)
        rows[index].extend(children)
        for child in children:
            rows[child].append(index)
            stack.append((child, depth + 1))
    csr = CSRTopology.from_rows(tuple(range(1, sizes[0] + 1)), rows)
    return DistGraph._from_csr(
        csr, None, None, f"preorder-karytree-{arity}-h{height}"
    )


def caterpillar(spine: int, legs_per_node: int) -> DistGraph:
    """A caterpillar: a spine path with ``legs_per_node`` leaves per node.

    Ids: spine is ``1..spine``; leaves follow in spine order.
    """
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, spine + 1)}
    for v in range(1, spine):
        adjacency[v].append(v + 1)
    next_id = spine + 1
    for v in range(1, spine + 1):
        for _ in range(legs_per_node):
            adjacency[next_id] = [v]
            next_id += 1
    return DistGraph(adjacency, name=f"caterpillar-{spine}x{legs_per_node}")
