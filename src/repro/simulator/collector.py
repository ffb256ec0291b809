"""Keep CPython's cyclic garbage collector off a run's object graph.

A run allocates a dozen or more GC-tracked objects per node (context,
record, program, generator frames, closures), all of which stay alive
until the run ends.  With the collector running, every allocation burst
triggers generation scans over that live graph, and the scans grow with
``n`` without ever finding garbage.  :func:`paused_collector` suspends
automatic collection while its one owner, ``repro.core.runner.run_engine``
(called by ``run()`` and every edge-cut shard driver), builds and drives
an engine; the owner then cuts
the engine's stage back-references (``SyncEngine._release``) so
reference counting frees the per-run graph at once, and the guard's exit
runs one young-generation pass over whatever the run left behind.

The guard is reference-counted, so overlapping thread drivers nest: the
first entry pauses the collector, the last exit resumes it.  It never
touches ``gc.get_threshold()``, and a caller that disabled the collector
itself keeps it disabled and gets no collection.  The module is
internal: it is not re-exported from :mod:`repro.simulator`.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
#: Guards currently entered, across all threads.
_depth = 0
#: Whether the outermost entry disabled the collector (and so the last
#: exit must re-enable it).
_paused = False


@contextmanager
def paused_collector() -> Iterator[None]:
    """Suspend automatic cyclic collection for the enclosed block."""
    global _depth, _paused
    pid = os.getpid()
    with _lock:
        if _depth == 0 and gc.isenabled():
            gc.disable()
            _paused = True
        _depth += 1
    try:
        yield
    finally:
        # A child forked inside the block starts with a fresh count (see
        # ``_reset_in_child``); its inherited guard frames must not
        # decrement it.
        if os.getpid() == pid:
            _leave()


def _leave() -> None:
    global _depth, _paused
    with _lock:
        _depth -= 1
        resume = _depth == 0 and _paused
        if resume:
            _paused = False
            gc.enable()
    if resume:
        gc.collect(0)


def _reset_in_child() -> None:
    """A forked child must not inherit a collector paused by its parent."""
    global _lock, _depth, _paused
    _lock = threading.Lock()
    if _paused:
        gc.enable()
    _depth = 0
    _paused = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)
