"""E26 — Quiescence-aware scheduling speedups (engineering, not a paper claim).

The greedy algorithms of Sections 6 and 8 have a moving *frontier*: on a
sorted line only the two or three nodes at the large end do anything in
any given round, while the eager schedule still pays a full O(n) sweep —
Θ(n²) node-rounds for an n-round run.  The quiescent schedule
(``ExecutionPolicy(schedule="quiescent")``) executes only the wake-set,
collapsing that to O(n) node-rounds total.

Every workload here runs eager-vs-quiescent, asserts **observational
identity** (same outputs, round count, message count — the quiescent
schedule is an optimisation, not a semantic change) and asserts the
wall-clock speedup floor.  The measured before/after table lives in
EXPERIMENTS.md (E26).

Set ``REPRO_E26_N`` to scale the workloads (default 10000; CI uses a
smaller value to keep the job fast — the speedup grows with n, so the
floor holds a fortiori at full size).
"""

import os
import time

from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.core import ExecutionPolicy, run
from repro.graphs import line, wheel_fk
from repro.graphs.identifiers import sorted_path_ids
from repro.problems import MATCHING, MIS

#: Frontier size knob: the line workloads use N nodes, the wheel ~N.
N = int(os.environ.get("REPRO_E26_N", "10000"))

#: Speedup floor asserted at every size; at the default n=10^4 the
#: measured speedups are an order of magnitude above it.
MIN_SPEEDUP = 5.0


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _compare(algorithm, graph, **kwargs):
    """Run eager then quiescent; return (eager_s, quiescent_s, result)."""
    eager, eager_s = _timed(lambda: run(algorithm, graph, fast=True, **kwargs))
    quiescent, quiescent_s = _timed(
        lambda: run(algorithm, graph, fast=True,
                    policy=ExecutionPolicy(schedule="quiescent"), **kwargs)
    )
    assert quiescent.outputs == eager.outputs
    assert quiescent.rounds == eager.rounds
    assert quiescent.rounds_executed == eager.rounds_executed
    assert quiescent.message_count == eager.message_count
    return eager_s, quiescent_s, eager


def _report(label, graph, result, eager_s, quiescent_s):
    speedup = eager_s / quiescent_s if quiescent_s else float("inf")
    print(
        f"\nE26 {label}: n={graph.n} rounds={result.rounds} "
        f"eager={eager_s:.2f}s quiescent={quiescent_s:.2f}s "
        f"speedup={speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"{label}: quiescent speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x floor (eager {eager_s:.2f}s, "
        f"quiescent {quiescent_s:.2f}s)"
    )


def test_e26_greedy_mis_sorted_line(once):
    """The flagship frontier workload: Θ(n²) → O(n) node-rounds."""
    graph = sorted_path_ids(line(N))

    def execute():
        return _compare(GreedyMISAlgorithm(), graph)

    eager_s, quiescent_s, result = once(execute)
    assert MIS.is_solution(graph, result.outputs)
    assert result.rounds == graph.n
    _report("greedy-mis/sorted-line", graph, result, eager_s, quiescent_s)


def test_e26_greedy_mis_wheel(once):
    """Figure 1's wheel F_k: the frontier walks the subdivided spokes."""
    graph = wheel_fk(max(N // 2, 4))

    def execute():
        return _compare(GreedyMISAlgorithm(), graph)

    eager_s, quiescent_s, result = once(execute)
    assert MIS.is_solution(graph, result.outputs)
    _report("greedy-mis/wheel", graph, result, eager_s, quiescent_s)


def test_e26_greedy_matching_sorted_line(once):
    """Matching's 3-round groups: the frontier pairs off the large end."""
    graph = sorted_path_ids(line(max(N // 3, 4)))

    def execute():
        return _compare(GreedyMatchingAlgorithm(), graph)

    eager_s, quiescent_s, result = once(execute)
    assert MATCHING.is_solution(graph, result.outputs)
    _report("greedy-matching/sorted-line", graph, result, eager_s, quiescent_s)


def test_e26_scheduled_node_rounds(once):
    """The profile's scheduled column quantifies the saved work: the
    quiescent schedule runs O(rounds) node-rounds where the eager one
    runs Θ(n · rounds)."""
    graph = sorted_path_ids(line(min(N, 2000)))

    def execute():
        return run(GreedyMISAlgorithm(), graph, profile=True,
                   policy=ExecutionPolicy(schedule="quiescent"))

    result = once(execute)
    summary = result.profile.summary()
    print(
        f"\nE26 scheduled-vs-active: n={graph.n} "
        f"node_rounds={summary['node_rounds']} "
        f"scheduled={summary['scheduled_rounds']} "
        f"({summary['scheduled_share']:.3%})"
    )
    # Θ(n²) live node-rounds, but only ~2.5 scheduled per round.
    assert summary["scheduled_rounds"] < 4 * result.rounds
    assert summary["node_rounds"] > graph.n * result.rounds / 4
