"""Parity of the bulk graph, verification and η₁ paths with the per-node code
they replaced.

Graph construction ends in one trusted constructor
(:meth:`CSRTopology.from_rows`); the networkx generators, the Prüfer and
preorder trees, ``subgraph()`` and ``apply_batch`` feed it rows directly
instead of re-validating a dict of sets.  MIS verification is set
algebra over the 1-nodes' CSR rows (matching and coloring verification
likewise, walking neighbor sets only for violators), and η₁ counts error
components with
a masked traversal of the parent CSR instead of building a subgraph.  Each test here keeps the previous per-node
implementation as a reference and asserts the new path is identical to
it: the same CSR bytes, the same violation messages in the same order,
the same frozensets in the same order.
"""

import heapq
import random
from array import array
from typing import Dict, List, Set

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import EpochBatch, SyntheticChurnStream, apply_batch
from repro.errors import (
    black_white_components,
    error_components,
    eta1,
    mis_base_partial,
)
from repro.graphs import (
    CSRTopology,
    DistGraph,
    barabasi_albert,
    erdos_renyi,
    grid2d,
    preorder_kary_tree,
    random_regular,
    random_tree,
)
from repro.predictions import noisy_predictions
from repro.problems import PROBLEMS
from repro.problems.matching import MATCHING, UNMATCHED
from repro.problems.mis import MIS
from repro.problems.vertex_coloring import VERTEX_COLORING


# ----------------------------------------------------------------------
# References: the per-node implementations before the bulk paths
# ----------------------------------------------------------------------
def reference_csr(adjacency):
    """The per-row ``CSRTopology.from_adjacency`` loop."""
    ids = tuple(sorted(adjacency))
    index_of = {node: index for index, node in enumerate(ids)}
    indptr = array("q", bytes(8 * (len(ids) + 1)))
    indices = array("q")
    position = 0
    for index, node in enumerate(ids):
        row = sorted(index_of[other] for other in adjacency[node])
        indices.extend(row)
        position += len(row)
        indptr[index + 1] = position
    return ids, indptr, indices


def reference_validated_sets(adjacency):
    """The edge-by-edge validation loop of ``DistGraph.__init__``."""
    neighbor_sets = {int(v): set() for v in adjacency}
    for node, neighbors in adjacency.items():
        node = int(node)
        for other in neighbors:
            other = int(other)
            if other == node:
                raise ValueError(f"self-loop at node {node}")
            if other not in neighbor_sets:
                raise ValueError(
                    f"edge ({node}, {other}) references unknown node {other}"
                )
            neighbor_sets[node].add(other)
            neighbor_sets[other].add(node)
    return neighbor_sets


def nx_adjacency(nx_graph):
    return {
        int(node) + 1: [int(other) + 1 for other in nx_graph.neighbors(node)]
        for node in nx_graph.nodes
    }


def reference_preorder_adjacency(arity, height):
    sizes = [1] * (height + 1)
    for depth in range(height - 1, -1, -1):
        sizes[depth] = 1 + arity * sizes[depth + 1]
    adjacency: Dict[int, List[int]] = {1: []}
    stack = [(1, 0)]
    while stack:
        node, depth = stack.pop()
        if depth == height:
            continue
        child = node + 1
        step = sizes[depth + 1]
        for _ in range(arity):
            adjacency[child] = [node]
            stack.append((child, depth + 1))
            child += step
    return adjacency


def reference_tree_adjacency(n, seed):
    rng = random.Random(f"{seed}:tree")
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for value in sequence:
        degree[value] += 1
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for value in sequence:
        leaf = heapq.heappop(leaves)
        adjacency[leaf + 1].append(value + 1)
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, value)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adjacency[u + 1].append(v + 1)
    return adjacency


def reference_subgraph(graph, nodes):
    keep = set(nodes)
    adjacency = {
        node: [other for other in graph.neighbors(node) if other in keep]
        for node in keep
    }
    return DistGraph(adjacency, d=graph.d)


def reference_apply_batch(graph, batch):
    removed = set(batch.remove_nodes)
    adjacency: Dict[int, Set[int]] = {
        node: {other for other in graph.neighbors(node) if other not in removed}
        for node in graph.nodes
        if node not in removed
    }
    for u, v in batch.delete_edges:
        if u in adjacency and v in adjacency:
            adjacency[u].discard(v)
            adjacency[v].discard(u)
    for node in batch.add_nodes:
        adjacency.setdefault(node, set())
    for u, v in batch.insert_edges:
        if u in adjacency and v in adjacency and u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    top = max(adjacency, default=0)
    attrs = {
        node: dict(graph.node_attrs(node))
        for node in adjacency
        if node in graph and graph.node_attrs(node)
    }
    return DistGraph(
        {node: sorted(others) for node, others in adjacency.items()},
        d=max(graph.d, top),
        attrs=attrs,
        name=graph.name,
    )


def reference_verify_partial(graph, outputs):
    problems = []
    for node, value in outputs.items():
        if value not in (0, 1):
            problems.append(f"node {node} output {value!r}, expected 0 or 1")
    chosen = {node for node, value in outputs.items() if value == 1}
    csr = graph.csr
    for node in sorted(chosen):
        for other in csr.neighbor_ids(node):
            if other > node and other in chosen:
                problems.append(f"adjacent nodes {node} and {other} both output 1")
    for node, value in outputs.items():
        if value == 0 and not any(
            other in chosen for other in csr.neighbor_ids(node)
        ):
            problems.append(f"node {node} output 0 without a decided 1-neighbor")
    return problems


def reference_matching_consistency(graph, outputs):
    """The per-node matching scan (neighbor frozensets, in their order)."""
    problems = []
    for node, value in sorted(outputs.items()):
        if value == UNMATCHED:
            continue
        if value not in graph.neighbors(node):
            problems.append(f"node {node} matched to non-neighbor {value!r}")
            continue
        partner_value = outputs.get(value)
        if partner_value != node:
            problems.append(
                f"match {node}->{value} not reciprocated "
                f"(partner output {partner_value!r})"
            )
    for node, value in sorted(outputs.items()):
        if value != UNMATCHED:
            continue
        for other in graph.neighbors(node):
            if other in outputs and outputs[other] == UNMATCHED and other > node:
                problems.append(f"adjacent unmatched nodes {node} and {other}")
    return problems


def reference_coloring_partial(graph, outputs):
    """The per-node coloring scan (neighbor frozensets, in their order)."""
    problems = []
    palette_size = graph.delta + 1
    for node, color in sorted(outputs.items()):
        if not isinstance(color, int) or not 1 <= color <= palette_size:
            problems.append(
                f"node {node} output {color!r}, expected a color in "
                f"1..{palette_size}"
            )
    for node, color in sorted(outputs.items()):
        for other in graph.neighbors(node):
            if other > node and outputs.get(other) == color:
                problems.append(
                    f"adjacent nodes {node} and {other} share color {color}"
                )
    return problems


def reference_mis_base_partial(graph, predictions):
    independent = {
        node
        for node in graph.nodes
        if predictions.get(node) == 1
        and all(predictions.get(other) == 0 for other in graph.neighbors(node))
    }
    outputs = {node: 1 for node in independent}
    for node in independent:
        for other in graph.neighbors(node):
            outputs[other] = 0
    return outputs


def assert_same_csr(csr, reference):
    ids, indptr, indices = reference
    assert csr.ids == ids
    assert csr.indptr.tobytes() == indptr.tobytes()
    assert csr.indices.tobytes() == indices.tobytes()


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
NX_CASES = [
    ("erdos_renyi", erdos_renyi, nx.gnp_random_graph, (40, 0.1)),
    ("barabasi_albert", barabasi_albert, nx.barabasi_albert_graph, (40, 2)),
]


class TestTrustedConstruction:
    @pytest.mark.parametrize("name,ours,theirs,args", NX_CASES, ids=[c[0] for c in NX_CASES])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_networkx_generators(self, name, ours, theirs, args, seed):
        graph = ours(*args, seed=seed)
        assert_same_csr(graph.csr, reference_csr(nx_adjacency(theirs(*args, seed=seed))))

    def test_networkx_rows_are_checked_cheaply(self):
        from repro.graphs.random_graphs import _from_nx_zero_based

        relabeled = nx.relabel_nodes(nx.path_graph(4), {3: 7})
        with pytest.raises(ValueError, match="labels must be exactly 0..n-1"):
            _from_nx_zero_based(relabeled, "bad")
        looped = nx.path_graph(4)
        looped.add_edge(2, 2)
        with pytest.raises(ValueError, match="self-loop"):
            _from_nx_zero_based(looped, "bad")

    @pytest.mark.parametrize("n,degree", [(20, 3), (50, 4), (10, 0)])
    def test_random_regular(self, n, degree):
        graph = random_regular(n, degree, seed=3)
        expected = nx.random_regular_graph(degree, n, seed=3)
        assert_same_csr(graph.csr, reference_csr(nx_adjacency(expected)))

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 301])
    def test_random_tree(self, n):
        graph = random_tree(n, seed=n)
        assert_same_csr(
            graph.csr,
            reference_csr(reference_validated_sets(reference_tree_adjacency(n, n)))
            if n > 1
            else reference_csr({1: []}),
        )
        assert graph.num_edges == n - 1

    @pytest.mark.parametrize("arity,height", [(1, 0), (1, 4), (2, 3), (3, 4), (10, 2)])
    def test_preorder_kary_tree(self, arity, height):
        graph = preorder_kary_tree(arity, height)
        adjacency = reference_validated_sets(
            reference_preorder_adjacency(arity, height)
        )
        assert_same_csr(graph.csr, reference_csr(adjacency))

    @given(st.integers(min_value=0, max_value=10**6), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_subgraph(self, seed, keep_share):
        graph = erdos_renyi(30, 0.15, seed=seed)
        rng = random.Random(seed)
        nodes = [node for node in graph.nodes if rng.random() < keep_share]
        ours = graph.subgraph(nodes)
        theirs = reference_subgraph(graph, nodes)
        assert_same_csr(ours.csr, reference_csr(validated_adjacency(theirs)))
        assert (ours.d, ours.n, ours.delta) == (theirs.d, theirs.n, theirs.delta)
        # A subgraph of a subgraph is still identical.
        half = nodes[::2]
        assert_same_csr(
            ours.subgraph(half).csr,
            reference_csr(validated_adjacency(reference_subgraph(theirs, half))),
        )

    def test_subgraph_keeps_attrs(self):
        graph = grid2d(3, 3)
        sub = graph.subgraph([1, 2, 5])
        assert sub.node_attrs(5) == {"pos": (1, 1)}
        assert sub.edges() == [(1, 2), (2, 5)]

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_apply_batch(self, seed):
        base = erdos_renyi(25, 0.15, seed=seed)
        stream = SyntheticChurnStream(
            base, 4, add=3, remove=3, add_nodes=2, remove_nodes=2,
            seed=seed,
        )
        graph = base
        reference = base
        for batch in stream.batches():
            graph = apply_batch(graph, batch)
            reference = reference_apply_batch(reference, batch)
            assert_same_csr(graph.csr, reference_csr(validated_adjacency(reference)))
            assert (graph.d, graph.name) == (reference.d, reference.name)

    def test_apply_batch_tolerates_sloppy_events(self):
        graph = grid2d(2, 3)
        batch = EpochBatch(
            insert_edges=((1, 1), (2, 99), (1, 6)),
            delete_edges=((1, 3), (4, 5)),
            add_nodes=(7, 2),
            remove_nodes=(3, 42),
        )
        ours = apply_batch(graph, batch)
        theirs = reference_apply_batch(graph, batch)
        assert_same_csr(ours.csr, reference_csr(validated_adjacency(theirs)))
        assert ours.d == theirs.d == 7
        assert ours.node_attrs(1) == theirs.node_attrs(1) == {"pos": (0, 0)}

    @given(
        st.dictionaries(
            st.integers(1, 12),
            st.lists(
                st.one_of(
                    st.integers(0, 14), st.sampled_from(["x", None, "3", 2.5])
                ),
                max_size=5,
            ),
            max_size=10,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_validated_constructor_keeps_its_checks(self, adjacency):
        """Valid input builds the reference CSR; invalid input raises the
        error the edge-by-edge loop raised first."""
        try:
            expected = reference_validated_sets(adjacency)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                DistGraph(adjacency)
            assert str(raised.value) == str(exc)
            return
        assert_same_csr(DistGraph(adjacency).csr, reference_csr(expected))

    def test_from_rows_builds_from_any_sized_rows(self):
        rows = [{2: None, 1: None}, [0], array("q", [0])]
        csr = CSRTopology.from_rows((5, 6, 7), rows)
        assert_same_csr(csr, reference_csr({5: [6, 7], 6: [5], 7: [5]}))
        assert csr.index_of == {5: 0, 6: 1, 7: 2}


def validated_adjacency(graph):
    """A graph's adjacency as id sets, read through its public accessor."""
    return {node: set(graph.neighbors(node)) for node in graph.nodes}


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def corrupt(outputs, rng):
    """Flip some outputs, drop some, and plant a few invalid values."""
    damaged = {}
    for node, value in outputs.items():
        roll = rng.random()
        if roll < 0.15:
            damaged[node] = 1 - value
        elif roll < 0.2:
            continue
        elif roll < 0.23:
            damaged[node] = rng.choice([2, -1, None, "x", 1.0, True])
        else:
            damaged[node] = value
    return damaged


class TestMISVerification:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_violations_match_the_per_node_scan(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi(rng.randint(1, 40), rng.random() * 0.3, seed=seed)
        order = list(graph.nodes)
        rng.shuffle(order)
        outputs = corrupt(MIS.solve_sequential(graph, order), rng)
        keys = list(outputs)
        rng.shuffle(keys)
        outputs = {node: outputs[node] for node in keys}
        assert MIS.verify_partial(graph, outputs) == reference_verify_partial(
            graph, outputs
        )

    def test_every_kind_of_violation_in_order(self):
        graph = grid2d(2, 3)  # 1-2-3 / 4-5-6
        outputs = {6: 0, 1: 1, 2: 1, 3: 0, 5: 7, 4: 0}
        expected = reference_verify_partial(graph, outputs)
        assert MIS.verify_partial(graph, outputs) == expected
        assert expected == [
            "node 5 output 7, expected 0 or 1",
            "adjacent nodes 1 and 2 both output 1",
            "node 6 output 0 without a decided 1-neighbor",
        ]


def damage_matching(outputs, nodes, rng):
    """Unmatch, rewire, drop and corrupt some partners."""
    damaged = {}
    for node, value in outputs.items():
        roll = rng.random()
        if roll < 0.1:
            damaged[node] = UNMATCHED
        elif roll < 0.2:
            damaged[node] = rng.choice(nodes)
        elif roll < 0.25:
            continue
        elif roll < 0.28:
            damaged[node] = rng.choice([None, "x", -1, 1.0, True])
        else:
            damaged[node] = value
    return damaged


def damage_coloring(outputs, palette, rng):
    """Recolor, drop and corrupt some colors."""
    damaged = {}
    for node, value in outputs.items():
        roll = rng.random()
        if roll < 0.2:
            damaged[node] = rng.randint(1, palette)
        elif roll < 0.25:
            continue
        elif roll < 0.28:
            damaged[node] = rng.choice([0, palette + 1, None, "x", 1.0, True])
        else:
            damaged[node] = value
    return damaged


def shuffled(outputs, rng):
    keys = list(outputs)
    rng.shuffle(keys)
    return {node: outputs[node] for node in keys}


class TestMatchingAndColoringVerification:
    """Matching and coloring verification run on CSR rows; the violation
    lists equal the per-node frozenset scans they replaced, order
    included (frozensets do not iterate in ascending order)."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_matching_violations_match_the_per_node_scan(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi(rng.randint(1, 40), rng.random() * 0.3, seed=seed)
        outputs = MATCHING.solve_sequential(graph)
        outputs = shuffled(damage_matching(outputs, list(graph.nodes), rng), rng)
        assert MATCHING.verify_partial(
            graph, outputs
        ) == reference_matching_consistency(graph, outputs)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_coloring_violations_match_the_per_node_scan(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi(rng.randint(1, 40), rng.random() * 0.3, seed=seed)
        outputs = VERTEX_COLORING.solve_sequential(graph)
        outputs = damage_coloring(outputs, graph.delta + 1, rng)
        outputs = shuffled(outputs, rng)
        assert VERTEX_COLORING.verify_partial(
            graph, outputs
        ) == reference_coloring_partial(graph, outputs)

    def test_order_follows_the_neighbor_sets_not_the_ids(self):
        # Node 2's neighbors {3, 10} iterate as 10, 3 in a frozenset.
        graph = DistGraph({2: {3, 10}, 3: {2}, 10: {2}})
        assert list(graph.neighbors(2)) == [10, 3]
        matching = {2: UNMATCHED, 3: UNMATCHED, 10: UNMATCHED}
        expected = reference_matching_consistency(graph, matching)
        assert MATCHING.verify_partial(graph, matching) == expected
        assert expected == [
            "adjacent unmatched nodes 2 and 10",
            "adjacent unmatched nodes 2 and 3",
        ]
        colors = {10: 1, 3: 1, 2: 1}
        expected = reference_coloring_partial(graph, colors)
        assert VERTEX_COLORING.verify_partial(graph, colors) == expected
        assert expected == [
            "adjacent nodes 2 and 10 share color 1",
            "adjacent nodes 2 and 3 share color 1",
        ]

    def test_a_node_without_output_reads_as_color_none(self):
        graph = grid2d(2, 3)  # 1-2-3 / 4-5-6
        colors = {1: None, 2: 1, 3: 2, 4: None, 6: 3}  # 5 has no output
        expected = reference_coloring_partial(graph, colors)
        assert VERTEX_COLORING.verify_partial(graph, colors) == expected
        assert expected == [
            "node 1 output None, expected a color in 1..4",
            "node 4 output None, expected a color in 1..4",
            "adjacent nodes 1 and 4 share color None",
            "adjacent nodes 4 and 5 share color None",
        ]

    def test_every_kind_of_matching_violation_in_order(self):
        graph = grid2d(2, 3)  # 1-2-3 / 4-5-6
        outputs = {6: UNMATCHED, 1: 2, 2: 5, 3: UNMATCHED, 5: 2, 4: 6}
        expected = reference_matching_consistency(graph, outputs)
        assert MATCHING.verify_partial(graph, outputs) == expected
        assert expected == [
            "match 1->2 not reciprocated (partner output 5)",
            "node 4 matched to non-neighbor 6",
            "adjacent unmatched nodes 3 and 6",
        ]


# ----------------------------------------------------------------------
# Error components and η₁
# ----------------------------------------------------------------------
def reference_components(graph, nodes):
    return graph.subgraph(nodes).components()


class TestErrorComponents:
    @given(st.integers(min_value=0, max_value=10**6), st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_mis_base_partial_and_components(self, seed, rate):
        rng = random.Random(seed)
        graph = erdos_renyi(rng.randint(1, 50), rng.random() * 0.2, seed=seed)
        predictions = noisy_predictions(MIS, graph, rate, seed=seed)
        # A prediction for a node outside the graph changes nothing.
        predictions[graph.d + 5] = 1
        base = mis_base_partial(graph, predictions)
        expected = reference_mis_base_partial(graph, predictions)
        assert list(base.items()) == list(expected.items())

        active = [node for node in graph.nodes if node not in expected]
        components = error_components("mis", graph, predictions)
        assert components == reference_components(graph, active)
        assert eta1(graph, predictions, "mis") == max(
            (len(component) for component in components), default=0
        )
        black, white = black_white_components(graph, predictions)
        assert black == reference_components(
            graph, [node for node in active if predictions.get(node) == 1]
        )
        assert white == reference_components(
            graph, [node for node in active if predictions.get(node) != 1]
        )

    @pytest.mark.parametrize("problem", ["matching", "vertex-coloring"])
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_other_node_problems(self, problem, seed):
        graph = erdos_renyi(30, 0.12, seed=seed)
        predictions = noisy_predictions(PROBLEMS[problem], graph, 0.3, seed=seed)
        from repro.errors.components import _BASE_PARTIALS

        outputs = _BASE_PARTIALS[problem](graph, predictions)
        active = [node for node in graph.nodes if node not in outputs]
        assert error_components(problem, graph, predictions) == reference_components(
            graph, active
        )

    @given(st.integers(min_value=0, max_value=10**6), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_induced_components_equal_subgraph_components(self, seed, share):
        rng = random.Random(seed)
        graph = erdos_renyi(40, 0.08, seed=seed)
        nodes = [node for node in graph.nodes if rng.random() < share]
        rng.shuffle(nodes)
        assert graph.induced_components(nodes) == reference_components(graph, nodes)
        index_of = graph.csr.index_of
        parts = graph.csr.induced_components(index_of[node] for node in nodes)
        assert parts == [sorted(part) for part in parts]
        assert graph.induced_components(iter(nodes)) == reference_components(
            graph, nodes
        )
