"""The capability table: which execution combinations run, and how.

A run is one point on six axes — schedule × shard mode (none,
``"components"``, ``"edgecut"``) × faults × trace/sinks × profile × shard
count — plus custom metrics for sweep cells.  Each point is *run*;
*refuse* — it raises before any engine or shard driver exists,
:class:`CapabilityError` (a ``ValueError``) outside the model or
:class:`~repro.kernels.UnsupportedScheduleError` where the compiled
kernels cannot reproduce the interpreted run; or *downgrade* — it runs an
exact weaker variant with one ``RuntimeWarning`` naming the axis:
``"vectorized"`` falls back to ``"quiescent"`` (under
``fallback="interpret"``), or a sharded request runs unsharded.  A
*strict* caller (``run_edgecut``, an engine over an edge-cut view)
demands its shard mode, so a shard downgrade refuses there instead.

It lives at the simulator layer so the engine reads it without an import
cycle; ``ExecutionPolicy``, ``run()``, the edge-cut driver, the sweep
dispatch, the CLI and :func:`repro.schedules` read it too.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from itertools import product
from typing import Any, Dict, Iterator, NamedTuple, Optional, Tuple

from repro.kernels import UnsupportedScheduleError


class CapabilityError(ValueError):
    """A combination the table refuses; ``axis`` names the deciding axis."""

    def __init__(self, message: str, axis: Optional[str] = None) -> None:
        super().__init__(message)
        self.axis = axis


#: The schedule axis, in :func:`repro.schedules` order and format
#: (``kernels`` here says whether the schedule runs compiled kernels).
SCHEDULES: Dict[str, Dict[str, bool]] = {
    "eager": {"quiescence": False, "async": False, "profile": True, "kernels": False},
    "quiescent": {"quiescence": True, "async": False, "profile": True, "kernels": False},
    "quiescent-debug": {
        "quiescence": True, "async": False, "profile": False, "kernels": False,
    },
    "async": {"quiescence": True, "async": True, "profile": False, "kernels": False},
    "vectorized": {"quiescence": False, "async": False, "profile": True, "kernels": True},
}
#: The shard axis: each mode with its minimum shard count.
SHARD_MODES: Dict[str, int] = {"components": 1, "edgecut": 2}
#: Features that keep a sharded request unsharded, in precedence order.
FEATURES: Dict[str, str] = {
    "faults": "fault plans",
    "trace": "traces and event sinks",
    "profile": "round profiles",
    "metrics": "custom metrics",
}
#: What the compiled kernels cannot reproduce, in precedence order.
KERNEL_GAPS: Dict[str, str] = {
    "shard": "edge-cut shards are interpreted-only: compiled kernels index "
    "dense whole-graph arrays and have no boundary exchange; use "
    "schedule='eager'/'quiescent' or fallback='interpret'",
    "faults": "fault injection (faults=) is interpreted-only; vectorized "
    "kernels have no per-message fault surface",
    "trace": "event sinks and traces observe per-node phases the vectorized "
    "kernels do not execute; drop sinks=/trace= or use an interpreted schedule",
}
_ASYNC_SHARD = (
    "shard={!r} cannot run under schedule='async': the asynchronous delay "
    "adversary draws from tick-global streams, so sharded and unsharded "
    "runs would diverge"
)


def check_policy(
    schedule: str,
    *,
    phi: int = 0,
    send_timeout: Optional[int] = None,
    deadline_s: Optional[float] = None,
    fallback: Optional[str] = None,
    shard: Optional[str] = None,
    on_round_limit: str = "raise",
) -> None:
    """Refuse knob values outside the table, whatever the run features."""
    if schedule not in SCHEDULES:
        known = ", ".join(repr(name) for name in SCHEDULES)
        raise CapabilityError(
            f"schedule must be one of {known}, got {schedule!r}", "schedule"
        )
    row = SCHEDULES[schedule]
    for broken, axis, message in (
        (phi < 0, "phi", f"phi must be non-negative, got {phi}"),
        ((phi or send_timeout is not None) and not row["async"], "phi",
         "phi= and send_timeout= belong to the asynchronous model; pass "
         f"schedule='async' (got schedule={schedule!r})"),
        (deadline_s is not None and deadline_s <= 0, "deadline_s",
         f"deadline_s must be positive, got {deadline_s}"),
        (fallback not in (None, "interpret"), "fallback",
         f"fallback must be None or 'interpret', got {fallback!r}"),
        (fallback is not None and not row["kernels"], "fallback",
         f"fallback= only applies to schedule='vectorized' (got schedule={schedule!r})"),
        (shard is not None and shard not in SHARD_MODES, "shard",
         f"shard must be None, 'components' or 'edgecut', got {shard!r}"),
        (shard is not None and row["async"], "shard", _ASYNC_SHARD.format(shard)),
        (on_round_limit not in ("raise", "partial"), "on_round_limit",
         f"on_round_limit must be 'raise' or 'partial', got {on_round_limit!r}"),
    ):
        if broken:
            raise CapabilityError(message, axis)


class Verdict(NamedTuple):
    """One cell of the table: what runs, or why not."""

    axes: Tuple[str, ...]  # the refusing axis, or the downgrading ones
    message: str  # the refusal's text, or the one warning's
    error: Optional[type]  # the refusal's exception type
    schedule: str  # what actually runs
    shard: Optional[str]
    fallback: Optional[str]

    @property
    def action(self) -> str:
        """``"run"``, ``"refuse"`` or ``"downgrade"``."""
        if self.error is not None:
            return "refuse"
        return "downgrade" if self.axes else "run"

    def enact(self, stacklevel: int = 3) -> "Verdict":
        """Raise a refusal, warn once for a downgrade, return ``self``."""
        if self.error is CapabilityError:
            raise CapabilityError(self.message, self.axes[0])
        if self.error is not None:
            raise self.error(self.message)
        if self.axes:
            warnings.warn(self.message, RuntimeWarning, stacklevel=stacklevel)
        return self

    def applied_to(self, policy: Any) -> Any:
        """``policy`` (an ``ExecutionPolicy``) set to what actually runs."""
        decided = {"schedule": self.schedule, "shard": self.shard,
                   "fallback": self.fallback}
        if all(getattr(policy, key) == value for key, value in decided.items()):
            return policy
        return replace(policy, **decided)


def fall_back(reason: str) -> str:
    """The vectorized → quiescent downgrade's warning text."""
    return (f"schedule='vectorized' cannot run this instance ({reason}); "
            "falling back to the interpreted 'quiescent' schedule")


def decide(
    schedule: str,
    *,
    shard: Optional[str] = None,
    shard_count: int = 2,
    faults: bool = False,
    trace: bool = False,
    profile: bool = False,
    metrics: bool = False,
    fallback: Optional[str] = None,
    strict: bool = False,
) -> Verdict:
    """Look up one cell (knobs already valid, see :func:`check_policy`).
    Nothing is raised or warned until the caller calls ``enact()``."""
    hits = {"faults": faults, "trace": trace, "profile": profile, "metrics": metrics}
    axes, notes = [], []

    def refused(error: type, axis: str, message: str) -> Verdict:
        return Verdict((axis,), message, error, schedule, shard, fallback)

    if shard is not None:
        if SCHEDULES[schedule]["async"]:
            return refused(CapabilityError, "shard", _ASYNC_SHARD.format(shard))
        axis = next((name for name in FEATURES if hits[name]), None)
        reason = (f"shard={shard!r} cannot run with {axis}: "
                  f"{FEATURES.get(axis)} need the whole graph in one engine")
        if shard_count < SHARD_MODES[shard]:
            axis = "shard_count"
            reason = (f"shard={shard!r} needs a shard count >= "
                      f"{SHARD_MODES[shard]}, got {shard_count}")
        if axis is not None and strict:
            return refused(CapabilityError, axis, reason)
        if axis is not None:
            axes.append(axis)
            notes.append(f"{reason}; running unsharded")
            shard = None
    if SCHEDULES[schedule]["kernels"]:
        gaps = {"shard": shard == "edgecut", "faults": faults, "trace": trace}
        gap = next((name for name in KERNEL_GAPS if gaps[name]), None)
        if gap is not None and fallback != "interpret":
            return refused(UnsupportedScheduleError, gap, KERNEL_GAPS[gap])
        if gap is not None:
            axes.append(gap)
            notes.append(fall_back(KERNEL_GAPS[gap]))
            schedule, fallback = "quiescent", None
    if profile and not SCHEDULES[schedule]["profile"]:
        return refused(CapabilityError, "profile", "profiling (profile=True) is "
                       f"not supported with schedule={schedule!r}")
    return Verdict(tuple(axes), "; ".join(notes), None, schedule, shard, fallback)


def cells() -> Iterator[Tuple[Tuple[Any, ...], Verdict]]:
    """Every cell: ``((schedule, fallback, shard, shard_count, faults,
    trace, profile, metrics), verdict)``; ``fallback`` and ``shard`` vary
    only where they are valid."""
    for schedule, row in SCHEDULES.items():
        fallbacks = (None, "interpret") if row["kernels"] else (None,)
        shards = (None,) if row["async"] else (None, *SHARD_MODES)
        flags = [(False, True)] * len(FEATURES)
        for fallback, shard, count, *hits in product(fallbacks, shards, (1, 2), *flags):
            yield (schedule, fallback, shard, count, *hits), decide(
                schedule, shard=shard, shard_count=count, fallback=fallback,
                **dict(zip(FEATURES, hits)),
            )


def schedule_capabilities() -> Dict[str, Dict[str, Any]]:
    """The schedule axis as :func:`repro.schedules` returns it, naming
    the compiled kernels (which loads the kernel registry, and NumPy)."""
    from repro.kernels import available_kernels

    return {
        name: {**row, "kernels": available_kernels() if row["kernels"] else ()}
        for name, row in SCHEDULES.items()
    }
