"""Self-tests of the benchmark at tiny scale.

Run with ``python3 perfbench/selftest.py`` (or ``python3 -m pytest
perfbench/selftest.py``) from the root of a checkout.  They check that

* every workload emits every metric named in ``BENCHMARK.json``, with
  its unit, traced and untraced;
* corrupting one op's output trips the correctness gate;
* traced and untraced ops compute identical semantic digests;
* the traced run removes every wrapper it installed;
* the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.simulator import SyncEngine  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def tiny(name, trace, **kwargs):
    return run.measure(name, 3, 0.3, trace, scale="tiny", setup_reps=1, **kwargs)


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        run.PER_LAYER
    )


def test_every_workload_emits_every_metric_with_its_unit():
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
        for name in workloads.WORKLOADS:
            result = tiny(name, trace)["result"]
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"], (name, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            emitted = {
                metric: entry["unit"] for metric, entry in result["metrics"].items()
            }
            assert emitted == expected, (name, trace)
            for entry in result["metrics"].values():
                assert isinstance(entry["value"], (int, float))


def _corrupt_nth_run(n, corrupt):
    """Patch ``SyncEngine.run`` so that its ``n``-th call's result is
    passed through ``corrupt``; returns the restore callable."""
    original = SyncEngine.run
    calls = [0]

    def patched(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls[0] += 1
        if calls[0] == n:
            corrupt(result)
        return result

    SyncEngine.run = patched
    return lambda: setattr(SyncEngine, "run", original)


def _flip_one_output(result):
    node = min(result.outputs)
    result.outputs[node] = 1 - result.outputs[node]


def _one_more_round(result):
    result.rounds += 1


def test_corrupted_output_trips_the_gate():
    workload = workloads.SolveLarge(3, "tiny")
    clean = workload.op(0)
    table = {clean.key: gate.digest(clean.semantic)}
    assert gate.check([clean], table).correct

    for corrupt in (_flip_one_output, _one_more_round):
        restore = _corrupt_nth_run(1, corrupt)
        try:
            corrupted = workload.op(0)
        finally:
            restore()
        verdict = gate.check([clean, corrupted], table)
        assert verdict.failed == 1 and not verdict.correct, corrupt.__name__
        # Without a recorded table the repeat of key 0 still catches it.
        assert gate.check([clean, corrupted], None).failed == 1


def test_corrupted_output_fails_a_whole_run():
    # set-up's warm-up op makes two engine runs; corrupt the first timed one.
    restore = _corrupt_nth_run(3, _flip_one_output)
    try:
        result = tiny("solve_large", False)["result"]
    finally:
        restore()
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_traced_and_untraced_digests_agree():
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(5, "tiny")
        workload.setup()
        untraced = {
            op.key: gate.digest(op.semantic) for op in workload.record()
        }
        tracer = Tracer()
        try:
            workloads.install_layer_wrappers(tracer)
            traced = workload.traced(tracer).ops
        finally:
            tracer.restore()
        compared = [op for op in traced if op.key in untraced]
        assert compared, name
        for op in compared:
            assert op.verified, (name, op)
            assert gate.digest(op.semantic) == untraced[op.key], (name, op.key)


def _wrapped_attributes():
    tracer = Tracer()
    workloads.install_layer_wrappers(tracer)
    targets = [(owner, attr) for owner, attr, _, _ in tracer._patches]
    tracer.restore()
    return targets


def test_wrappers_are_removed_after_the_traced_run():
    targets = _wrapped_attributes()
    assert len(targets) >= 10
    before = {(id(owner), attr): vars(owner).get(attr) for owner, attr in targets}
    for name in workloads.WORKLOADS:
        outcome = tiny(name, True)
        assert outcome["tracer"].installed == 0
        assert outcome["tracer"].spans, name
        for owner, attr in targets:
            assert vars(owner).get(attr) is before[(id(owner), attr)], (name, attr)
            assert not hasattr(getattr(owner, attr), "__wrapped__"), (name, attr)


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    tracer.begin_op("a")
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.end_op()
    ledger = tracer.ledger()
    spans = tracer.spans
    assert spans[inner].parent == outer and spans[outer].parent == 0
    total = sum(ledger["self_s"].values()) + ledger["unattributed_s"]
    assert abs(total - ledger["op_wall_s"]) < 1e-9


def test_refuses_to_run_without_the_package_source():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable] + BENCHMARK["command"][1:]
            + ["--workload", "solve_large", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def main() -> int:
    tests = [
        (name, value) for name, value in globals().items()
        if name.startswith("test_") and callable(value)
    ]
    failures = 0
    for name, test in tests:
        try:
            test()
        except Exception as exc:  # report every failing test, then exit 1
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}", flush=True)
        else:
            print(f"ok   {name}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
