"""The benchmark's target functions exist and are called: every name a
workload lists in ``perfbench/workloads.py`` ``TARGETS`` is a function that
the tracer of ``perfbench/tracer.py`` wraps, and a short replay of the
workloads' ops calls each of them, so deleting, renaming or dropping the
last caller of a benchmarked function fails here, not only in a traced
benchmark run."""

import ast
import importlib.util
from pathlib import Path

from endokat import audits, instances, linearize

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


def test_benchmark_targets_are_called():
    """Replay under the tracer: three field-extract ops and two audit
    instances per suite at seed 1, with the oracle on where audit-oracle
    uses it.  Every target must be called at least once."""
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        for p, k, m, twist in ((2, 2, 2, 1), (2, 2, 2, 2), (2, 4, 2, 3)):
            inst = instances.matrix_bimodule(p, k, m, twist)
            linearize.extract_field(inst["p"], inst["n"], inst["gamma_generators"], inst["delta_generators"])
        for suite in audits.SUITES:
            for desc in audits.make_descriptors(suite, 2, 1):
                audits.run_instance(suite, desc, use_oracle=suite in ("prering", "equivalence", "sharp"))
    finally:
        tracer.restore()
    uncalled = sorted({name for names in _targets().values() for name in names if not tracer.calls[name]})
    assert not uncalled, f"benchmark targets the replay never calls: {uncalled}"
