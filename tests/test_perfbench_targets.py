"""The benchmark's target functions exist: every name a workload lists in
``perfbench/workloads.py`` ``TARGETS`` is a function that the tracer of
``perfbench/tracer.py`` wraps, so deleting or renaming a benchmarked
function fails here, not only in a traced benchmark run."""

import ast
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    """``TARGETS`` read off the source of workloads.py, without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("workloads.py defines no TARGETS")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_targets_are_traced_functions():
    tracer = _tracer()
    traced = {key for layer in tracer.LAYERS for key, *_ in tracer.public_callables(layer)}
    targets = _targets()
    assert targets and all(targets.values())
    missing = sorted({name for names in targets.values() for name in names} - traced)
    assert not missing, f"benchmark targets the tracer cannot find: {missing}"
