"""Seeded random graph families (thin wrappers over networkx).

All generators relabel to identifiers ``1..n`` and return
:class:`~repro.graphs.graph.DistGraph` instances; every generator takes an
explicit seed so experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from typing import List

import networkx as nx

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph


def _from_nx_zero_based(nx_graph, name: str) -> DistGraph:
    """Relabel an undirected networkx graph on ``0..n-1`` to ids
    ``1..n`` and build it over its neighbor dicts directly.

    The adjacency dicts are the rows (in index space already), so the
    only checks left are the cheap ones a networkx ``Graph`` does not
    guarantee by type: the labels are exactly ``0..n-1`` and no node
    lists itself.
    """
    adjacency = nx_graph._adj
    n = len(adjacency)
    try:
        rows = list(map(adjacency.__getitem__, range(n)))
    except KeyError:
        raise ValueError("networkx labels must be exactly 0..n-1") from None
    if any(map(dict.__contains__, rows, range(n))):
        raise ValueError("networkx graph has a self-loop")
    csr = CSRTopology.from_rows(tuple(range(1, n + 1)), rows)
    return DistGraph._from_csr(csr, None, None, name)


def erdos_renyi(n: int, p: float, seed: int = 0) -> DistGraph:
    """An Erdős–Rényi ``G(n, p)`` graph with ids ``1..n``."""
    nx_graph = nx.gnp_random_graph(n, p, seed=seed)
    return _from_nx_zero_based(nx_graph, name=f"gnp-{n}-{p}-s{seed}")


def connected_erdos_renyi(n: int, p: float, seed: int = 0) -> DistGraph:
    """A connected ``G(n, p)`` sample.

    Sampled as ``G(n, p)`` and then patched into one component by linking
    consecutive components with a single random edge each (the standard
    trick for connected benchmark instances; the patch adds at most
    ``#components - 1`` edges).
    """
    nx_graph = nx.gnp_random_graph(n, p, seed=seed)
    rng = random.Random(f"{seed}:connect")
    components = [sorted(c) for c in nx.connected_components(nx_graph)]
    for previous, current in zip(components, components[1:]):
        nx_graph.add_edge(rng.choice(previous), rng.choice(current))
    return _from_nx_zero_based(nx_graph, name=f"gnp-conn-{n}-{p}-s{seed}")


def random_regular(n: int, degree: int, seed: int = 0) -> DistGraph:
    """A random ``degree``-regular graph with ids ``1..n``."""
    nx_graph = nx.random_regular_graph(degree, n, seed=seed)
    return _from_nx_zero_based(nx_graph, name=f"reg-{n}-{degree}-s{seed}")


def barabasi_albert(n: int, m: int, seed: int = 0) -> DistGraph:
    """A Barabási–Albert preferential-attachment graph with ids ``1..n``."""
    nx_graph = nx.barabasi_albert_graph(n, m, seed=seed)
    return _from_nx_zero_based(nx_graph, name=f"ba-{n}-{m}-s{seed}")


def random_tree(n: int, seed: int = 0) -> DistGraph:
    """A uniformly random (unrooted) tree with ids ``1..n``."""
    if n == 1:
        return DistGraph({1: []}, name=f"tree-1-s{seed}")
    # Sample a Prüfer sequence directly: uniform over labelled trees and
    # independent of networkx version differences.
    rng = random.Random(f"{seed}:tree")
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for value in sequence:
        degree[value] += 1
    # Rows in index space (node ``v`` has index ``v - 1``), both
    # directions of every edge, so they feed the trusted constructor.
    rows: List[List[int]] = [[] for _ in range(n)]
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for value in sequence:
        leaf = heapq.heappop(leaves)
        rows[leaf].append(value)
        rows[value].append(leaf)
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, value)
    # After consuming the sequence exactly two nodes of residual degree 1
    # remain in the heap; join them.
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    rows[u].append(v)
    rows[v].append(u)
    csr = CSRTopology.from_rows(tuple(range(1, n + 1)), rows)
    return DistGraph._from_csr(csr, None, None, f"tree-{n}-s{seed}")
