"""Per-op correctness gate.

Every op returns its verification verdict (the problem's ``is_solution``
on the op's output) and a *semantic tuple*: the numbers the simulator
computes, which no optimisation may change — rounds, rounds executed,
messages, solution size and η₁, plus recourse and scratch rounds for
``dynamic_churn`` and boundary messages/bytes for ``edgecut_tree``.

An op passes when it verified and its tuple's digest equals

* the digest recorded in ``digests.json`` for its workload, seed and op
  key, when the seed was recorded (``run.py --record-digests``), and
* the digest of every earlier op with the same key in this run (ops
  repeat their inputs: instances cycle, sweeps and replays restart), so
  seeds that were never recorded are still checked for determinism.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Op:
    """One completed (or failed) op."""

    key: str
    #: Wall seconds the op took.
    latency: float
    semantic: Optional[Tuple]
    verified: bool
    note: str = ""
    #: CPU seconds (user + system) the op cost, children included.
    cpu: float = 0.0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def digest(semantic: Tuple) -> str:
    payload = json.dumps(list(semantic), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_table(
    workload: str, seed: int, params: Dict, path: str = DIGESTS
) -> Optional[Dict[str, str]]:
    """The recorded digests for ``(workload, seed)``, or ``None``.

    Raises ``ValueError`` when the table was recorded for other workload
    parameters: its digests would flag every op as wrong.
    """
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    entry = document.get(workload)
    if entry is None:
        return None
    if entry["params"] != params:
        raise ValueError(
            f"{os.path.basename(path)} holds {workload} digests for "
            f"{entry['params']}, not {params}; re-record them"
        )
    return entry["seeds"].get(str(seed))


def check(ops: Iterable[Op], table: Optional[Dict[str, str]]) -> Verdict:
    verdict = Verdict()
    seen: Dict[str, str] = {}
    for op in ops:
        verdict.attempted += 1
        problem = op.note if not op.verified else ""
        if op.semantic is not None:
            found = digest(op.semantic)
            expected = table.get(op.key) if table is not None else None
            if expected is not None and found != expected:
                problem = f"digest {found} != recorded {expected}"
            elif seen.setdefault(op.key, found) != found:
                problem = f"digest {found} != earlier {seen[op.key]} in this run"
        elif not problem:
            problem = "no semantic tuple"
        if not op.verified and not problem:
            problem = "failed verification"
        if problem:
            verdict.failed += 1
            verdict.notes.append(f"op {op.key}: {problem} {op.semantic}")
    return verdict
