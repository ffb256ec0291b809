"""In-memory span recorder for the benchmark's traced run.

The traced run measures each layer of ``repro`` from outside: wrappers
installed by :meth:`Tracer.install` around public callables record one
span per call, and :meth:`Tracer.restore` puts every original back.
Nothing under ``src/`` is changed.

A span holds its name, start, end, the index of the span that was open
when it started (its parent) and the id of the op it belongs to.  Spans
stay in memory until the run ends; :meth:`Tracer.dump` writes them out.
A layer's self time is its span's duration minus the durations of its
child spans: calls are synchronous and single-threaded in the traced
run, so children never overlap each other.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Span name of a unit of traced work (its self time is unattributed).
OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: Optional[str]


class Tracer:
    """Records spans and owns the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Role of the next engine run inside a dynamic epoch
        #: (``"warm"`` or ``"scratch"``); ``None`` outside dynamic replays.
        self.run_role: Optional[str] = None
        #: Engine runs started since the current op began.
        self.op_runs = 0
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._op_span: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        # Pop through any span an exception left open inside this one.
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = end
            if top == index:
                return
        raise RuntimeError(f"span {self.spans[index].name!r} closed twice")

    def begin_op(self, op_id: str) -> None:
        """Open the span of one unit of traced work."""
        self.end_op()
        self._op = op_id
        self.op_runs = 0
        self._op_span = self.open(OP)

    def end_op(self) -> None:
        if self._op_span is not None:
            self.close(self._op_span)
        self._op = None
        self._op_span = None

    # -- wrappers -----------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`restore`."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        replacement = make(original)
        replacement.__wrapped__ = original
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, own))

    def install(
        self,
        owner: Any,
        attr: str,
        name: Union[str, Callable[..., str]],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` so that every call records a span.

        ``name`` is the span name, or a callable receiving the call's
        arguments and returning it (so one wrapper can name a vectorized
        engine run differently from an interpreted one).  ``on_result``
        sees the return value of calls made inside an op.
        """
        tracer = self

        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                label = name(*args, **kwargs) if callable(name) else name
                index = tracer.open(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
                if on_result is not None and tracer._op is not None:
                    on_result(result)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Put back every wrapped callable, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- ledger -------------------------------------------------------------
    def ledger(self) -> Dict[str, Any]:
        """Self time per layer summed over spans inside ops, plus the
        total op wall time and the part of it no layer span covers."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        self_time: Dict[str, float] = defaultdict(float)
        op_wall = 0.0
        ops = 0
        for index, span in enumerate(self.spans):
            if span.op is None:
                continue
            duration = span.end - span.start
            if span.name == OP:
                op_wall += duration
                ops += 1
            self_time[span.name] += duration - child[index]
        unattributed = self_time.pop(OP, 0.0)
        return {
            "self_s": dict(self_time),
            "op_wall_s": op_wall,
            "unattributed_s": unattributed,
            "op_spans": ops,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "op": span.op,
                    }
                    for span in self.spans
                ],
                handle,
            )
