"""Declarative sweep plans: specs, cells and the :class:`Sweep` grid.

A sweep cell must be *describable* rather than *live*: to fan cells out
over worker processes, and to cache the artifacts they share, every input
is named by a spec — a factory plus arguments — instead of a prebuilt
object.  A spec is frozen, picklable, and carries a **content key** that
encodes the factory's qualified name and every argument, so two cells
that need the same graph hit the same cache entry and any change to a
spec automatically invalidates it.

Factories are resolved in three interchangeable ways:

* a callable (must be importable from module top level, the usual pickle
  rule);
* a bare name looked up in the spec type's default namespace
  (``repro.graphs`` for graphs, ``repro.predictions`` for predictions,
  ``repro.bench.algorithms`` for algorithms, ``repro.faults`` for fault
  plans);
* a dotted path ``"package.module:attr"``.

Prebuilt objects are still accepted via ``Spec.literal(...)`` — keyed by
content hash — so interactive callers (e.g. the CLI, which parses a
graph out of a string spec) don't need a named factory.
"""

from __future__ import annotations

import hashlib
import importlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.runner import ExecutionPolicy, RunConfig
from repro.graphs.csr import plain_reduce

#: Sentinel target marking a literal (prebuilt) spec.
_LITERAL = "<literal>"


def _stable_repr(value: Any) -> str:
    """Deterministic repr for key-building (dicts sorted, sets sorted)."""
    if isinstance(value, dict):
        items = ", ".join(
            f"{_stable_repr(k)}: {_stable_repr(v)}" for k, v in sorted(value.items(), key=repr)
        )
        return "{" + items + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_stable_repr(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_stable_repr(v) for v in value)
        return ("[%s]" if isinstance(value, list) else "(%s)") % inner
    return repr(value)


def _literal_key(value: Any) -> str:
    """Content key for a prebuilt artifact (hash of its pickle).

    Two invariants keep literal keys stable identity, not storage
    accident:

    * ``protocol=4`` is **pinned** — a content key must hash to the same
      digest on every interpreter, while the disk cache's byte stream
      (``pickle.HIGHEST_PROTOCOL`` in
      :meth:`repro.exec.cache.ArtifactCache._store_to_disk`) is free to
      vary per Python version.  The two choices may legitimately differ;
      neither is allowed to leak into the other.
    * :func:`~repro.graphs.csr.plain_reduce` suspends any active
      :class:`~repro.shard.store.SharedCSRStore` reduce hook — the key
      of a graph must hash its flat CSR buffers, never a transient
      shared-memory segment name, so the same graph keys identically
      with and without a store.
    """
    try:
        with plain_reduce():
            payload = pickle.dumps(value, protocol=4)
    except Exception:  # unpicklable literals can't be cached or shipped
        return f"unpicklable:{id(value)}"
    return hashlib.sha256(payload).hexdigest()[:32]


@dataclass(frozen=True)
class Spec:
    """A factory call, frozen: ``target(*args, **kwargs)``.

    Attributes:
        target: Callable, bare name, dotted ``"module:attr"`` path, or
            the literal sentinel (use :meth:`literal`).
        args: Positional arguments (must have stable ``repr``\\ s).
        kwargs: Keyword arguments as a sorted tuple of pairs.
        value: The prebuilt object for literal specs (excluded from
            equality; the key carries the content identity).
    """

    target: Union[str, Callable[..., Any]]
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    value: Any = field(default=None, compare=False, repr=False)

    #: Default namespace for bare-name targets; subclasses override.
    namespace = ""

    @classmethod
    def of(cls, target: Union[str, Callable[..., Any]], *args: Any, **kwargs: Any) -> "Spec":
        """Spec for ``target(*args, **kwargs)``."""
        return cls(target=target, args=args, kwargs=tuple(sorted(kwargs.items())))

    @classmethod
    def literal(cls, value: Any) -> "Spec":
        """Spec wrapping an already-built object."""
        return cls(target=_LITERAL, args=(_literal_key(value),), value=value)

    # ------------------------------------------------------------------
    @property
    def is_literal(self) -> bool:
        return self.target == _LITERAL

    def resolve(self) -> Callable[..., Any]:
        """The factory callable this spec names."""
        if self.is_literal:
            raise TypeError("literal specs have no factory")
        if callable(self.target):
            return self.target
        if ":" in self.target:
            module_name, attr = self.target.split(":", 1)
        else:
            module_name, attr = self.namespace, self.target
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attr)
        except AttributeError:
            raise LookupError(
                f"no factory {attr!r} in {module_name} (from spec {self.target!r})"
            ) from None

    def build(self, *prefix: Any) -> Any:
        """Build the artifact, prepending ``prefix`` positional args.

        Prediction and fault specs receive the built graph as a prefix
        argument; graph and algorithm specs are called as written.
        """
        if self.is_literal:
            return self.value
        factory = self.resolve()
        return factory(*prefix, *self.args, **dict(self.kwargs))

    @property
    def key(self) -> str:
        """Content key: qualified factory name + every argument."""
        if self.is_literal:
            return f"{type(self).__name__}:literal:{self.args[0]}"
        if callable(self.target):
            name = f"{self.target.__module__}:{self.target.__qualname__}"
        elif ":" in self.target:
            name = self.target
        else:
            name = f"{self.namespace}:{self.target}"
        args = _stable_repr(self.args)
        kwargs = _stable_repr(self.kwargs)
        return f"{type(self).__name__}:{name}:{args}:{kwargs}"


class GraphSpec(Spec):
    """Spec building a :class:`~repro.graphs.graph.DistGraph`."""

    namespace = "repro.graphs"


class PredictionSpec(Spec):
    """Spec building a prediction mapping; the factory receives the
    built graph as its first argument."""

    namespace = "repro.predictions"


class AlgorithmSpec(Spec):
    """Spec building a :class:`~repro.core.algorithm.DistributedAlgorithm`.

    Algorithms are rebuilt per cell (programs hold per-run state), so
    this spec is never cached — it exists for picklability and labels.
    """

    namespace = "repro.bench.algorithms"


class FaultSpec(Spec):
    """Spec building a :class:`~repro.faults.plan.FaultPlan`; the factory
    receives the built graph as its first argument (plans typically draw
    crash victims from the node set)."""

    namespace = "repro.faults"


def _coerce(spec_type: type, value: Any, build_hint: str) -> Spec:
    """Accept a spec, a factory callable/name, or a prebuilt object."""
    if isinstance(value, Spec):
        return value
    if callable(value) or isinstance(value, str):
        return spec_type.of(value)
    if value is None:
        raise TypeError(f"missing {build_hint}")
    return spec_type.literal(value)


@dataclass(frozen=True)
class Cell:
    """One point of a sweep grid.

    Attributes:
        label: Human-readable row label (unique within a sweep).
        graph: :class:`GraphSpec` for the instance.
        algorithm: :class:`AlgorithmSpec` for the algorithm under test.
        predictions: Optional :class:`PredictionSpec`.
        faults: Optional :class:`FaultSpec` or literal
            :class:`~repro.faults.plan.FaultPlan`.
        problem: Optional problem name (``"mis"``, ``"matching"``, ...);
            when set, the executed cell records solution validity and the
            η₁ prediction error.
        seed: The run seed; ``None`` derives a deterministic per-cell
            seed from the sweep's ``base_seed`` and the cell's position.
        config: :class:`~repro.core.runner.RunConfig` for everything else
            (model, round budget, graceful mode, fast mode).  The cell's
            ``seed``/``faults`` override the config's fields.
        metrics: Optional top-level callable
            ``(problem, graph, predictions, result) -> mapping`` whose
            output lands in the row's ``metrics`` column (e.g.
            :func:`repro.faults.harness.degradation_metrics`).
    """

    label: str
    graph: GraphSpec
    algorithm: AlgorithmSpec
    predictions: Optional[PredictionSpec] = None
    faults: Optional[Any] = None
    problem: Optional[str] = None
    seed: Optional[int] = None
    config: RunConfig = RunConfig()
    metrics: Optional[Callable[..., Mapping[str, Any]]] = None

    def inputs(self, cache: Any) -> Tuple[Any, Optional[Any]]:
        """The cell's ``(graph, predictions)``, built through ``cache``
        (an :class:`~repro.exec.cache.ArtifactCache`) by content key."""
        graph = cache.get_or_build(self.graph.key, self.graph.build)
        if self.predictions is None:
            return graph, None
        spec = self.predictions
        predictions = cache.get_or_build(
            f"{spec.key}@{self.graph.key}", lambda: spec.build(graph)
        )
        return graph, predictions


def derive_cell_seed(base_seed: int, index: int, label: str) -> int:
    """Deterministic per-cell seed, identical on every backend.

    Derived by hashing (base seed, cell index, cell label) so that
    reordering a grid or renaming a cell changes its stream, while
    re-running the same sweep — serial or process-parallel, any chunking
    — reproduces it bit-for-bit.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}:{label}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


class Sweep:
    """A grid of cells plus how to execute them.

    Build one cell at a time with :meth:`add`, or as a cross product with
    :meth:`add_grid`; execute with :meth:`run` (see
    :mod:`repro.exec.backends` for the serial and process-pool backends).

    Args:
        name: Optional sweep name (shows up in result tables).
        base_seed: Seed from which cells without an explicit ``seed``
            derive theirs (see :func:`derive_cell_seed`).
    """

    def __init__(self, name: str = "", base_seed: int = 0) -> None:
        self.name = name
        self.base_seed = base_seed
        self.cells: List[Cell] = []

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    # ------------------------------------------------------------------
    def add(
        self,
        label: str,
        graph: Any,
        algorithm: Any,
        *,
        predictions: Any = None,
        faults: Any = None,
        problem: Optional[str] = None,
        seed: Optional[int] = None,
        config: Optional[RunConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        metrics: Optional[Callable[..., Mapping[str, Any]]] = None,
    ) -> "Sweep":
        """Append one cell; graph/algorithm/predictions accept specs,
        factories, or prebuilt objects.  Returns ``self`` for chaining.

        ``policy`` overrides the config's :class:`ExecutionPolicy` for
        this cell — a shorthand for wrapping the policy in a fresh
        :class:`RunConfig` when everything else is default.
        """
        config = config or RunConfig()
        if policy is not None:
            config = config.with_overrides(policy=policy)
        cell = Cell(
            label=label,
            graph=_coerce(GraphSpec, graph, "graph spec"),
            algorithm=_coerce(AlgorithmSpec, algorithm, "algorithm spec"),
            predictions=(
                None
                if predictions is None
                else _coerce(PredictionSpec, predictions, "prediction spec")
            ),
            faults=faults,
            problem=problem,
            seed=seed,
            config=config,
            metrics=metrics,
        )
        self.cells.append(cell)
        return self

    def add_grid(
        self,
        graphs: Mapping[str, Any],
        algorithms: Mapping[str, Any],
        *,
        predictions: Optional[Mapping[str, Any]] = None,
        seeds: Sequence[Optional[int]] = (None,),
        problem: Optional[str] = None,
        config: Optional[RunConfig] = None,
        policy: Optional[ExecutionPolicy] = None,
        metrics: Optional[Callable[..., Mapping[str, Any]]] = None,
    ) -> "Sweep":
        """Cross product: graphs × predictions × algorithms × seeds.

        Every factor maps a label fragment to a spec (or factory, or
        prebuilt object); cell labels join the fragments with ``/``.
        """
        prediction_items: List[Tuple[str, Any]] = (
            list(predictions.items()) if predictions else [("", None)]
        )
        for graph_label, graph in graphs.items():
            for pred_label, pred in prediction_items:
                for algo_label, algorithm in algorithms.items():
                    for seed in seeds:
                        fragments = [graph_label, pred_label, algo_label]
                        if len(seeds) > 1 or seed is not None:
                            fragments.append(f"s={seed}")
                        label = "/".join(part for part in fragments if part)
                        self.add(
                            label,
                            graph,
                            algorithm,
                            predictions=pred,
                            problem=problem,
                            seed=seed,
                            config=config,
                            policy=policy,
                            metrics=metrics,
                        )
        return self

    # ------------------------------------------------------------------
    def run(
        self,
        backend: str = "process",
        *,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        cache: Optional[Any] = None,
        cache_dir: Optional[str] = None,
        cache_size: int = 256,
        profile: bool = False,
        events: bool = False,
        events_path: Optional[str] = None,
    ):
        """Execute every cell and return a
        :class:`~repro.exec.results.SweepResult` (rows in cell order).

        Args:
            backend: ``"process"`` fans chunks of cells out over a
                :class:`concurrent.futures.ProcessPoolExecutor`;
                ``"serial"`` runs in-process (debugging, tiny grids,
                platforms without ``fork``).  Both produce identical
                results for the same cells.
            jobs: Worker count for the process backend (default: CPUs).
            chunk_size: Cells per dispatched chunk (default: balanced
                across ~4 waves per worker).
            cache: An :class:`~repro.exec.cache.ArtifactCache` to reuse
                across sweeps (serial backend only — the process
                backend raises rather than silently ignoring it).
            cache_dir: Directory for the on-disk artifact layer (e.g.
                ``".repro_cache"``); shared by worker processes.
            cache_size: In-memory LRU capacity per process.
            profile: Run every cell with round profiling; each row
                carries its ``RoundProfile.summary()``.
            events: Capture every cell's structured events on its row.
            events_path: Also write all captured events (tagged with
                their cell label) as one JSONL file; implies ``events``.
        """
        from repro.exec.backends import execute

        return execute(
            self,
            backend=backend,
            jobs=jobs,
            chunk_size=chunk_size,
            cache=cache,
            cache_dir=cache_dir,
            cache_size=cache_size,
            profile=profile,
            events=events,
            events_path=events_path,
        )
