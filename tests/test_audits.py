"""Every audit suite runs clean on seeded masses, and pair files work."""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from endokat import audits, config, jsonio
from endokat.endogeny import Endogeny, NegligibilityBound
from endokat.errors import EndokatError, InvalidInput
from endokat.groups import Homomorphism, canonicalize_group, subgroup_from_generators


@pytest.mark.parametrize("suite", audits.SUITES)
def test_suite_runs_clean(suite):
    descs = audits.make_descriptors(suite, 12, 1234)
    rep = audits.run_suite(suite, descs, workers=1)
    assert rep["instances_run"] == 12
    assert rep["violations"] == []
    assert rep["checks"] > 0


def test_suite_with_oracle():
    descs = audits.make_descriptors("prering", 6, 77)
    rep = audits.run_suite("prering", descs, use_oracle=True, workers=1)
    assert rep["violations"] == []


def test_sharp_pair_file_records_verdict():
    """A non-commuting fixture pair is recorded, not failed."""
    g = canonicalize_group([2, 2])
    f = subgroup_from_generators(g, [(1, 0)])
    nb = NegligibilityBound(g, f)
    zf = Endogeny.blur(f, nb)
    swap = Endogeny.from_morphism(Homomorphism(g, g, [[0, 1], [1, 0]]), nb)
    desc = {"pair": [jsonio.endogeny_to_json(zf), jsonio.endogeny_to_json(swap)]}
    rep = audits.run_suite("sharp", [desc], workers=1)
    assert rep["violations"] == []
    assert rep["notes"] == [{"sharp_commutes": False}]
    # and a commuting pair gets its closure laws checked
    one = Endogeny.identity(g, nb)
    desc2 = {"pair": [jsonio.endogeny_to_json(zf), jsonio.endogeny_to_json(one)]}
    rep2 = audits.run_suite("sharp", [desc2], workers=1)
    assert rep2["violations"] == []
    assert rep2["notes"] == [{"sharp_commutes": True}]
    assert rep2["checks"] == 3


def _report_or_error(descs, workers):
    try:
        rep = audits.run_suite("prering", descs, workers=workers)
    except EndokatError as exc:
        return type(exc)
    rep.pop("runtime_ms")
    return rep


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
@pytest.mark.parametrize(
    "count, seed, max_order, workers",
    [(8, 5, None, 3), (4, 7, 8, 2)],
    ids=["default-caps", "max-order-8"],
)
def test_parallel_merge_deterministic(monkeypatch, method, count, seed, max_order, workers):
    """A pool run gives the serial report, or the serial error, whatever the
    start method: workers apply the parent's caps, not their defaults."""
    ctx = multiprocessing.get_context(method)
    monkeypatch.setattr(audits, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=ctx))
    descs = audits.make_descriptors("prering", count, seed)
    if max_order is not None:
        monkeypatch.setattr(config, "MAX_ORDER", max_order)
    serial = _report_or_error(descs, 1)
    assert _report_or_error(descs, workers) == serial
    if max_order is not None:
        assert serial is InvalidInput  # an order-16 group is above the lowered cap
