"""Tests of the benchmark itself: import boundary, self-time arithmetic,
and refusal to run without the simulator.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

#: Modules that later simulator changes delete or rewrite: the lookahead
#: kernel, the worker pool, the old profiler and bench.
FORBIDDEN_MODULES = (
    "repro.obs.profiler",
    "repro.obs.bench",
    "repro.obs.instr",
    "repro.exp.parallel",
    "repro.exp.cli",
    "repro.sim.parallel",
    "repro.sim.cluster",
)
#: Names and strings of the same machinery.
FORBIDDEN_NAMES = ("PROFILER", "REPRO_WORKERS", "configure_dispatch", "ParallelEngine")
#: ExperimentConfig fields the benchmark must not set.
FORBIDDEN_CONFIG_KEYS = ("kernel",)


def _sources():
    return [p for p in BENCH.glob("*.py")]


def test_import_boundary():
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            for module in modules:
                assert not module.startswith(FORBIDDEN_MODULES), f"{path.name} imports {module}"
            if isinstance(node, ast.Name):
                assert node.id not in FORBIDDEN_NAMES, f"{path.name} uses {node.id}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in FORBIDDEN_NAMES, f"{path.name} uses .{node.attr}"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in FORBIDDEN_NAMES + FORBIDDEN_MODULES:
                    assert name not in node.value, f"{path.name} mentions {name}"
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    assert keyword.arg not in FORBIDDEN_CONFIG_KEYS, (
                        f"{path.name} passes {keyword.arg}="
                    )


def _busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_self_time_adds_up_to_the_outer_span():
    from layers import LayerTracer

    tracer = LayerTracer()
    inner = tracer.wrap("net", lambda: _busy(0.02))
    middle = tracer.wrap("l2cap", lambda: (_busy(0.01), inner(), inner()))

    def outer() -> None:
        _busy(0.01)
        middle()

    start = perf_counter()
    tracer.wrap("exp", outer)()
    total = perf_counter() - start
    self_s = tracer.self_s
    assert abs(sum(self_s.values()) - total) < 0.002
    assert 0.04 <= self_s["net"] < 0.05
    assert 0.01 <= self_s["l2cap"] < 0.02
    assert 0.01 <= self_s["exp"] < 0.02
    spans = tracer.spans()
    assert len(spans["start"]) == 4
    # parents: outer has none, middle's parent is outer, both inners' is middle
    assert list(spans["parent"]) == [-1, 0, 1, 1]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-moderate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
