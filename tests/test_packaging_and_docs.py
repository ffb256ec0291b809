"""Repository hygiene: packaging, exports, docstrings, documentation."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def support_table():
    """docs/API.md's support table, rendered from the capability table:
    one row per request (two shards unless the row says otherwise), one
    column per schedule, ``vectorized`` without and with
    ``fallback="interpret"``."""
    from repro.simulator.capability import FEATURES, SCHEDULES, SHARD_MODES, decide

    requests = [("plain", {})] + [
        (f"`{name}`", {name: True}) for name in ("faults", "trace", "profile")
    ]
    for mode, minimum in SHARD_MODES.items():
        requests.append((f"`shard={mode}`", {"shard": mode}))
        if minimum > 1:
            requests.append((f"`shard={mode}`, 1 shard", {"shard": mode, "shard_count": 1}))
        requests += [
            (f"`shard={mode}` + `{name}`", {"shard": mode, name: True})
            for name in FEATURES
        ]
    columns = [
        (name, fallback)
        for name, row in SCHEDULES.items()
        for fallback in ((None, "interpret") if row["kernels"] else (None,))
    ]

    def text(verdict, schedule, request):
        if verdict.action == "refuse":
            return f"refuse: `{verdict.error.__name__}`"
        runs = [verdict.schedule] if verdict.schedule != schedule else []
        if verdict.shard != request.get("shard"):
            runs.append("unsharded")
        return "downgrade: " + ", ".join(runs) if runs else "run"

    header = " | ".join(
        f"`{name}`" + ("" if fallback is None else " + `fallback`")
        for name, fallback in columns
    )
    lines = [f"| request | {header} |", "|---" * (len(columns) + 1) + "|"]
    for label, request in requests:
        cells = [
            text(decide(name, fallback=fallback, **request), name, request)
            for name, fallback in columns
        ]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def all_repro_modules():
    package_dir = pathlib.Path(repro.__file__).parent
    names = ["repro"]
    for module in pkgutil.walk_packages([str(package_dir)], prefix="repro."):
        names.append(module.name)
    return names


class TestPackaging:
    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_pyproject_takes_its_version_from_the_package(self):
        # Plain text, not tomllib: the oldest supported Python lacks it.
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text
        static = [
            line for line in text.splitlines() if line.startswith('version = "')
        ]
        assert static == [], static

    def test_cold_import_and_graph_layer_do_not_load_numpy(self):
        """``import repro`` and the graph, verification and error layers
        stay numpy-free: importing numpy costs every CLI call and every
        benchmark set-up about 0.1-0.2 s of CPU."""
        script = (
            "import sys\n"
            "import repro\n"
            "assert 'numpy' not in sys.modules, 'import repro loaded numpy'\n"
            "from repro import MIS, errors, graphs\n"
            "from repro.dynamic import SyntheticChurnStream, apply_batch\n"
            "from repro.predictions import noisy_predictions\n"
            "g = graphs.random_regular(60, 4, seed=1)\n"
            "graphs.connected_erdos_renyi(60, 0.05, seed=1)\n"
            "graphs.preorder_kary_tree(3, 3).subgraph(range(1, 20))\n"
            "graphs.random_tree(40, seed=1)\n"
            "p = noisy_predictions(MIS, g, 0.2, seed=1)\n"
            "MIS.is_solution(g, MIS.solve_sequential(g))\n"
            "errors.eta1(g, p, 'mis')\n"
            "stream = SyntheticChurnStream(g, 2, add=3, remove=3, seed=1)\n"
            "for batch in stream.batches():\n"
            "    g = apply_batch(g, batch)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        for module_name in (
            "repro.graphs",
            "repro.problems",
            "repro.errors",
            "repro.predictions",
            "repro.core",
            "repro.exec",
            "repro.faults",
            "repro.obs",
            "repro.simulator",
            "repro.algorithms.mis",
            "repro.algorithms.matching",
            "repro.algorithms.coloring",
            "repro.algorithms.edge_coloring",
            "repro.bench",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), (module_name, name)

    @pytest.mark.parametrize("module_name", all_repro_modules())
    def test_every_module_imports_and_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_public_classes_have_docstrings(self):
        import inspect

        undocumented = []
        for module_name in all_repro_modules():
            module = importlib.import_module(module_name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module_name:
                    if not obj.__doc__:
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented


class TestDocumentation:
    def test_required_documents_exist(self):
        for filename in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO_ROOT / filename
            assert path.is_file(), filename
            assert len(path.read_text()) > 1000, filename

    def test_api_support_table_is_the_capability_table(self):
        table = support_table()
        api = (REPO_ROOT / "docs" / "API.md").read_text()
        assert table in api, "docs/API.md's support table is stale:\n" + table

    def test_design_lists_every_experiment_bench(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_e*.py")):
            assert bench.name in design, bench.name

    def test_every_bench_has_an_experiments_entry(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_e*.py")):
            exp_id = bench.name.split("_")[1].upper().lstrip("E")
            assert f"E{int(exp_id)} " in experiments or f"E{int(exp_id)}/" in (
                experiments
            ) or f"E{int(exp_id)} —" in experiments, bench.name

    def test_examples_are_runnable_scripts(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 6
        for example in examples:
            content = example.read_text()
            assert 'if __name__ == "__main__":' in content, example.name
            assert "def main(" in content, example.name
            assert content.startswith("#!/usr/bin/env python3"), example.name
