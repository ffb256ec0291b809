"""Whole-frontier vectorized kernels for ``schedule="vectorized"``.

The interpreted engine runs one Python ``compose``/``process`` call per
node per round.  For the paper's greedy families that is pure overhead:
each round is a data-parallel function of the active mask and the CSR
adjacency, so it can run as a handful of NumPy array operations over the
whole frontier at once — active-mask bitsets, ``reduceat`` neighbor
aggregation over the ``indptr``/``indices`` buffers, and batched
message/bit accounting that reproduces the interpreted engine's CONGEST
counters bit-for-bit.

One kernel per algorithm family lives in its own module:

* :mod:`repro.kernels.mis` — Greedy MIS (Algorithm 1).
* :mod:`repro.kernels.matching` — proposal-based Maximal Matching.
* :mod:`repro.kernels.coloring` — palette greedy (Δ+1)-coloring.

The registry is keyed by the template (algorithm) name; resolution
matches the *program class* a run would execute, so a kernel only ever
replaces the exact per-node program it was verified bit-identical
against (tests/test_vectorized.py fuzzes that equivalence).  Fault
plans, event sinks, traces and edge-cut shards are refused by the
capability table (:mod:`repro.simulator.capability`) before any engine
exists; unregistered programs and per-node program mappings fail the
engine's program-family probe (:func:`resolve_kernel`).  Either raises
:class:`UnsupportedScheduleError`, or falls back to the interpreted
quiescent schedule when the run asks for ``fallback="interpret"``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = [
    "KERNELS",
    "UnsupportedScheduleError",
    "available_kernels",
    "kernel_for_program",
    "resolve_kernel",
]


class UnsupportedScheduleError(RuntimeError):
    """``schedule="vectorized"`` cannot execute this run.

    Raised by the capability table when the run uses features only the
    interpreted engine implements (fault injection, event sinks, traces,
    edge-cut shards), and by the engine's program-family probe when no
    compiled kernel matches the run's programs.  Pass
    ``fallback="interpret"`` to downgrade the error to a warning and run
    the interpreted quiescent schedule instead.
    """


_REGISTRY: Optional[Dict[str, type]] = None


def _registry() -> Dict[str, type]:
    """Template name -> kernel class, loaded lazily (defers the numpy
    import to the first vectorized run)."""
    global _REGISTRY
    if _REGISTRY is None:
        from repro.kernels.coloring import GreedyColoringKernel
        from repro.kernels.matching import GreedyMatchingKernel
        from repro.kernels.mis import GreedyMISKernel

        _REGISTRY = {
            kernel.name: kernel
            for kernel in (
                GreedyMISKernel,
                GreedyMatchingKernel,
                GreedyColoringKernel,
            )
        }
    return _REGISTRY


def KERNELS() -> Dict[str, type]:
    """The kernel registry (template name -> kernel class)."""
    return dict(_registry())


def available_kernels() -> Tuple[str, ...]:
    """Names of the registered kernels."""
    return tuple(sorted(_registry()))


def kernel_for_program(program: Any) -> Optional[type]:
    """The kernel class compiled for ``type(program)``, or ``None``.

    Matches the exact class (not subclasses): a subclass may override
    ``compose``/``process`` and silently diverge from the verified
    array semantics.
    """
    for kernel in _registry().values():
        if kernel.program_class is type(program):
            return kernel
    return None


def resolve_kernel(rt: Any, programs: Any) -> Any:
    """The program-family probe: return a bound-ready kernel or raise.

    ``rt`` is the engine mid-construction; ``programs`` is the run's
    program source.  The run features the kernels cannot reproduce
    (faults, sinks, traces, edge-cut shards) are refused earlier by the
    capability table (:mod:`repro.simulator.capability`); this probe
    only asks whether a kernel exists for the programs themselves and
    raises :class:`UnsupportedScheduleError` when none does.
    """
    if not callable(programs):
        raise UnsupportedScheduleError(
            "per-node program mappings may mix program types; "
            "schedule='vectorized' needs a program factory (an algorithm)"
        )
    nodes = rt.graph.nodes
    if not nodes:
        from repro.kernels.base import EmptyGraphKernel

        return EmptyGraphKernel()
    probe = programs(min(nodes))
    kernel_class = kernel_for_program(probe)
    if kernel_class is None:
        names = ", ".join(sorted(_registry()))
        raise UnsupportedScheduleError(
            f"no vectorized kernel is registered for program "
            f"{type(probe).__name__}; compiled kernels exist for: {names}"
        )
    return kernel_class()
