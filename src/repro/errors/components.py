"""Error components: what remains after the base algorithm.

Each problem's *base algorithm* (Section 4) is a fixed, simple pruning
algorithm that outputs exactly the predictions that are locally consistent
with a correct solution.  The error components of an instance are the
components of the subgraph induced by the nodes that would still be active
after running it (for edge coloring: the components of the subgraph
induced by the still-uncolored edges).

The functions here are *pure* re-statements of the base algorithms — they
compute the same partial solutions as the message-passing implementations
in :mod:`repro.algorithms` (a property the test suite checks), but without
simulation, so error measures are cheap to evaluate inside sweeps.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Any, Dict, FrozenSet, List, Mapping, Tuple

from repro.graphs.graph import DistGraph
from repro.problems.base import Outputs
from repro.problems.matching import UNMATCHED

Predictions = Mapping[int, Any]


# ----------------------------------------------------------------------
# Base partial solutions (one per problem)
# ----------------------------------------------------------------------
def mis_base_partial(graph: DistGraph, predictions: Predictions) -> Outputs:
    """Partial solution of the MIS Base Algorithm (Section 4).

    The nodes predicted 1 whose neighbors are all predicted 0 form an
    independent set ``I``; ``I`` outputs 1 and the neighbors of ``I``
    output 0.
    """
    zeros = {node for node, value in predictions.items() if value == 0}
    all_zero = zeros.issuperset
    neighbors = graph.neighbors
    independent = {
        node
        for node in graph.nodes
        if predictions.get(node) == 1 and all_zero(neighbors(node))
    }
    outputs: Outputs = {node: 1 for node in independent}
    for node in independent:
        outputs.update(dict.fromkeys(neighbors(node), 0))
    return outputs


def matching_base_partial(graph: DistGraph, predictions: Predictions) -> Outputs:
    """Partial solution of the Maximal Matching Base Algorithm (Section 8.1).

    Mutually predicted pairs output their match; a node predicted ⊥ whose
    neighbors are all matched outputs ⊥.
    """
    outputs: Outputs = {}
    for node in graph.nodes:
        partner = predictions.get(node)
        if (
            partner is not None
            and partner != UNMATCHED
            and partner in graph.neighbors(node)
            and predictions.get(partner) == node
        ):
            outputs[node] = partner
    for node in graph.nodes:
        if node in outputs:
            continue
        if predictions.get(node) == UNMATCHED and all(
            other in outputs for other in graph.neighbors(node)
        ):
            outputs[node] = UNMATCHED
    return outputs


def vertex_coloring_base_partial(
    graph: DistGraph, predictions: Predictions
) -> Outputs:
    """Partial solution of the (Δ+1)-Vertex Coloring Base Algorithm.

    A node outputs its predicted color when it is a legal color that
    differs from every neighbor's prediction (Section 8.2).
    """
    palette_size = graph.delta + 1
    outputs: Outputs = {}
    for node in graph.nodes:
        color = predictions.get(node)
        if not isinstance(color, int) or not 1 <= color <= palette_size:
            continue
        if all(predictions.get(other) != color for other in graph.neighbors(node)):
            outputs[node] = color
    return outputs


def edge_coloring_base_partial(
    graph: DistGraph, predictions: Predictions
) -> Outputs:
    """Partial solution of the (2Δ−1)-Edge Coloring Base Algorithm.

    A node proposes its predicted color for an edge when that color is
    legal and not repeated among its own edge predictions; an edge is
    colored when both endpoints propose the same color (Section 8.3).
    Predictions are dicts ``neighbor -> color`` per node.
    """
    palette_size = max(1, 2 * graph.delta - 1)

    def proposals(node: int) -> Dict[int, int]:
        prediction = predictions.get(node) or {}
        if not isinstance(prediction, dict):
            return {}
        counts: Dict[int, int] = {}
        for color in prediction.values():
            if isinstance(color, int):
                counts[color] = counts.get(color, 0) + 1
        return {
            other: color
            for other, color in prediction.items()
            if other in graph.neighbors(node)
            and isinstance(color, int)
            and 1 <= color <= palette_size
            and counts.get(color, 0) == 1
        }

    all_proposals = {node: proposals(node) for node in graph.nodes}
    outputs: Outputs = {node: {} for node in graph.nodes}
    for u, v in graph.edges():
        color_u = all_proposals[u].get(v)
        color_v = all_proposals[v].get(u)
        if color_u is not None and color_u == color_v:
            outputs[u][v] = color_u
            outputs[v][u] = color_u
    return {node: value for node, value in outputs.items() if value}


_BASE_PARTIALS = {
    "mis": mis_base_partial,
    "matching": matching_base_partial,
    "vertex-coloring": vertex_coloring_base_partial,
    "edge-coloring": edge_coloring_base_partial,
}


# ----------------------------------------------------------------------
# Error components
# ----------------------------------------------------------------------
def error_components(
    problem_name: str, graph: DistGraph, predictions: Predictions
) -> List[FrozenSet[int]]:
    """Error components of an instance (Sections 4 and 8).

    For the node problems these are the components induced by nodes that
    produce no output under the base algorithm.  For edge coloring they
    are the components of the subgraph induced by the uncolored edges.
    """
    if problem_name not in _BASE_PARTIALS:
        raise ValueError(f"unknown problem {problem_name!r}")
    if problem_name == "edge-coloring":
        return [nodes for nodes, _ in edge_error_components(graph, predictions)]
    outputs = _BASE_PARTIALS[problem_name](graph, predictions)
    return graph.induced_components(filterfalse(outputs.__contains__, graph.nodes))


def edge_error_components(
    graph: DistGraph, predictions: Predictions
) -> List[Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]]:
    """Edge-coloring error components with their edge sets.

    Returns ``(node set, edge set)`` per component of the subgraph induced
    by the edges left uncolored by the base algorithm.
    """
    outputs = edge_coloring_base_partial(graph, predictions)

    def colored(u: int, v: int) -> bool:
        return v in (outputs.get(u) or {})

    uncolored = [(u, v) for u, v in graph.edges() if not colored(u, v)]
    adjacency: Dict[int, List[int]] = {}
    for u, v in uncolored:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    edge_graph = DistGraph(adjacency, d=graph.d) if adjacency else None
    if edge_graph is None:
        return []
    result = []
    for nodes in edge_graph.components():
        edges = frozenset(
            (u, v) for u, v in uncolored if u in nodes and v in nodes
        )
        result.append((nodes, edges))
    return result


def black_white_components(
    graph: DistGraph, predictions: Predictions
) -> Tuple[List[FrozenSet[int]], List[FrozenSet[int]]]:
    """Black and white components for MIS (Sections 5 and 9).

    A black (white) component is a component of the subgraph induced by
    the nodes with prediction 1 (0) that are still active after the MIS
    Base Algorithm.
    """
    outputs = mis_base_partial(graph, predictions)
    active = [node for node in graph.nodes if node not in outputs]
    black = [node for node in active if predictions.get(node) == 1]
    white = [node for node in active if predictions.get(node) != 1]
    return graph.induced_components(black), graph.induced_components(white)
