"""The (Δ+1)-Vertex Coloring problem (Section 8.2).

Each node outputs a color in ``{1, ..., Δ+1}`` different from all its
neighbors' colors.  The problem is a special case of list vertex coloring:
a partial solution is extendable exactly when it is a proper partial
coloring with legal colors — every active node's remaining palette (the
colors not output by its neighbors) stays larger than its remaining
degree, so any remainder solution completes it.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.graphs.graph import DistGraph
from repro.problems.base import GraphProblem, Outputs


class VertexColoringProblem(GraphProblem):
    """(Δ+1)-Vertex Coloring: outputs are colors in ``{1, ..., Δ+1}``."""

    name = "vertex-coloring"

    def num_colors(self, graph: DistGraph) -> int:
        """The palette size for this instance: Δ + 1 (at least 1)."""
        return graph.delta + 1

    # ------------------------------------------------------------------
    def verify_solution(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems = self.check_outputs_complete(graph, outputs)
        if problems:
            return problems
        problems.extend(self.verify_partial(graph, outputs))
        return problems

    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems: List[str] = []
        palette_size = self.num_colors(graph)
        for node, color in sorted(outputs.items()):
            if not isinstance(color, int) or not 1 <= color <= palette_size:
                problems.append(
                    f"node {node} output {color!r}, expected a color in "
                    f"1..{palette_size}"
                )
        # Conflicts by set algebra over CSR rows, as MIS verification
        # does: a color class conflicts exactly when the indices next to
        # its members meet the class (a node without output reads as
        # color None, as ``outputs.get`` does below).  Only conflicting
        # nodes walk their neighbor sets, so messages keep the per-node
        # scan's order and a cold graph builds no frozenset per node.
        csr = graph.csr
        index_of = csr.index_of
        classes: Dict[Any, Set[int]] = {}
        for node, color in outputs.items():
            classes.setdefault(color, set()).add(index_of[node])
        if None in classes:
            classes[None].update(set(range(csr.n)).difference(*classes.values()))
        conflicted: Set[int] = set()
        for members in classes.values():
            conflicted |= members.intersection(
                chain.from_iterable(map(csr.row, members))
            )
        ids = csr.ids
        for node in sorted(ids[index] for index in conflicted if ids[index] in outputs):
            color = outputs[node]
            for other in graph.neighbors(node):
                if other > node and outputs.get(other) == color:
                    problems.append(
                        f"adjacent nodes {node} and {other} share color {color}"
                    )
        return problems

    def extendability_violations(
        self, graph: DistGraph, outputs: Outputs
    ) -> List[str]:
        """For (Δ+1)-coloring every proper partial coloring is extendable.

        Each active node always retains more palette colors than active
        neighbors (Section 8.2), so the only way to break extendability is
        to break properness or the color range.
        """
        return self.verify_partial(graph, outputs)

    # ------------------------------------------------------------------
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        """Greedy coloring: each node takes the smallest free color."""
        order = list(order) if order is not None else list(graph.nodes)
        colors: Outputs = {}
        for node in order:
            used: Set[int] = {
                colors[other] for other in graph.neighbors(node) if other in colors
            }
            color = 1
            while color in used:
                color += 1
            colors[node] = color
        return colors

    def remaining_palette(
        self, graph: DistGraph, outputs: Outputs, node: int
    ) -> Set[int]:
        """Colors still available to an undecided node under ``outputs``."""
        used = {
            outputs[other] for other in graph.neighbors(node) if other in outputs
        }
        return set(range(1, self.num_colors(graph) + 1)) - used


#: Singleton instance used throughout the repository.
VERTEX_COLORING = VertexColoringProblem()
