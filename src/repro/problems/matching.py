"""The Maximal Matching problem (Section 8.1).

Each node outputs the identifier of the neighbor it is matched to, or
``UNMATCHED`` (the paper's ⊥).  When all nodes have terminated,
``y_i = j`` iff ``y_j = i``, and every unmatched node has only matched
neighbors.  Predictions are a predicted partner (or ⊥) per node.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Set, Tuple

from repro.graphs.graph import DistGraph
from repro.problems.base import GraphProblem, Outputs

#: The ⊥ output: the node ends up unmatched.
UNMATCHED = "unmatched"


class MaximalMatchingProblem(GraphProblem):
    """Maximal Matching: outputs are partner ids or ``UNMATCHED``."""

    name = "matching"

    # ------------------------------------------------------------------
    def verify_solution(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems = self.check_outputs_complete(graph, outputs)
        if problems:
            return problems
        problems.extend(self._check_consistency(graph, outputs))
        return problems

    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        return self._check_consistency(graph, outputs)

    def _check_consistency(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Mutual matches along edges, and no edge between two ⊥-nodes.

        On CSR rows, as MIS verification does: a partner must be in the
        node's row, and set algebra over the ⊥-nodes' rows finds the
        ⊥-nodes with a ⊥-neighbor (``covered``).  Only those walk their
        neighbor sets, so messages keep the per-node scan's order and a
        cold graph builds no frozenset per node.
        """
        problems: List[str] = []
        csr = graph.csr
        index_of = csr.index_of
        for node, value in sorted(outputs.items()):
            if value == UNMATCHED:
                continue
            if index_of.get(value, -1) not in csr.row(index_of[node]):
                problems.append(f"node {node} matched to non-neighbor {value!r}")
                continue
            partner_value = outputs.get(value)
            if partner_value != node:
                problems.append(
                    f"match {node}->{value} not reciprocated "
                    f"(partner output {partner_value!r})"
                )
        unmatched = {
            index_of[node] for node, value in outputs.items() if value == UNMATCHED
        }
        covered = unmatched.intersection(chain.from_iterable(map(csr.row, unmatched)))
        ids = csr.ids
        for node in sorted(map(ids.__getitem__, covered)):
            for other in graph.neighbors(node):
                if other in outputs and outputs[other] == UNMATCHED and other > node:
                    problems.append(f"adjacent unmatched nodes {node} and {other}")
        return problems

    def extendability_violations(
        self, graph: DistGraph, outputs: Outputs
    ) -> List[str]:
        """Extendability for Maximal Matching (Section 8.1).

        A partial solution is extendable when matched pairs are mutual
        edges, and every ⊥-node's neighbors are all decided and matched —
        otherwise a remainder solution could leave an edge between two
        unmatched nodes.
        """
        problems = self._check_consistency(graph, outputs)
        for node, value in sorted(outputs.items()):
            if value != UNMATCHED:
                continue
            for other in graph.neighbors(node):
                if other not in outputs:
                    problems.append(
                        f"unmatched node {node} has undecided neighbor {other}"
                    )
                elif outputs[other] == UNMATCHED:
                    pass  # already reported by the consistency check
        return problems

    # ------------------------------------------------------------------
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        """Greedy maximal matching: match each node to its first free neighbor."""
        order = list(order) if order is not None else list(graph.nodes)
        position = {node: index for index, node in enumerate(order)}
        partner = {}
        for node in order:
            if node in partner:
                continue
            candidates = sorted(
                (other for other in graph.neighbors(node) if other not in partner),
                key=lambda other: position.get(other, other),
            )
            if candidates:
                other = candidates[0]
                partner[node] = other
                partner[other] = node
        return {
            node: partner.get(node, UNMATCHED) for node in graph.nodes
        }

    # ------------------------------------------------------------------
    def matched_edges(self, outputs: Outputs) -> Set[Tuple[int, int]]:
        """The matching as a set of ``(min, max)`` edges."""
        edges = set()
        for node, value in outputs.items():
            if value != UNMATCHED and outputs.get(value) == node:
                edges.add((min(node, value), max(node, value)))
        return edges


#: Singleton instance used throughout the repository.
MATCHING = MaximalMatchingProblem()
