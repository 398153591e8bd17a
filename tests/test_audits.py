"""Every audit suite runs clean on seeded masses, and pair files work."""

import functools
import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from endokat import audits, config, endogeny, groups, instances, jsonio
from endokat.dimension import SplitGroup
from endokat.endogeny import Endogeny, EndogenySet, NegligibilityBound
from endokat.groups import Homomorphism, Subgroup, canonicalize_group, subgroup_from_generators
from endokat.rng import SplitMix64

from references import blur


@pytest.mark.parametrize("suite", audits.SUITES)
def test_suite_runs_clean(suite):
    descs = audits.make_descriptors(suite, 12, 1234)
    rep = audits.run_suite(suite, descs, workers=1)
    assert rep["instances_run"] == 12
    assert rep["violations"] == []
    assert rep["errors"] == []
    assert rep["checks"] > 0


def test_suite_with_oracle():
    descs = audits.make_descriptors("prering", 6, 77)
    rep = audits.run_suite("prering", descs, use_oracle=True, workers=1)
    assert rep["violations"] == []
    assert rep["errors"] == []


ORACLE_REPORTS_SHA256 = "8ff7f1a4d170b8d1c6945283c6ad8ff2fe14d706ad7e788ef30d8f0b3c2a77a7"


def test_oracle_reports_snapshot():
    """run_instance with the oracle on is byte-stable over twelve
    descriptors of each oracle-checked suite at seeds 1 and 20261017."""
    h = hashlib.sha256()
    for seed in (1, 20261017):
        for suite in ("prering", "equivalence", "sharp"):
            for desc in audits.make_descriptors(suite, 12, seed):
                h.update(json.dumps(audits.run_instance(suite, desc, use_oracle=True), sort_keys=True).encode())
    assert h.hexdigest() == ORACLE_REPORTS_SHA256


RELATIONS_SHA256 = "fd449ab97b1d08b96fbb0b4e956b1aac87d44a7daea2fc0389211520aeced69b"


def _relation_data(e):
    return (e.source.moduli, e.target.moduli, e.kat().basis, e._values(), e.bound.n_max.basis)


def _suite_relations(suite, desc):
    """The relations one descriptor's audit computes on, with the split
    bases of the dimension suite: the generated relations, the two
    restrictions of the invariance suite, the dimension suite's extra
    random relations and the split of its first random subgroup."""
    if suite in ("prering", "equivalence"):
        return list(audits._endo_triple(desc)[2]), []
    if suite in ("sharp", "invariance"):
        fam = audits._sharp_family(desc)
        if fam is None:
            return [], []
        g, gamma, d1 = fam[0], fam[4], fam[5]
        rels = list(fam[4:])
        if suite == "invariance":
            # the subgroup _run_invariance restricts to
            rng = SplitMix64(desc["seed"] ^ 0x1111)
            b = endogeny.orbit_closure(instances.random_subgroup_of(Subgroup.full(g), rng) | gamma.kat(), [gamma])
            bb = endogeny.orbit_closure(b, [gamma, d1])
            if endogeny.weakly_invariant(bb, gamma) and endogeny.weakly_invariant(bb, d1):
                rels += [endogeny.restrict(gamma, bb), endogeny.restrict(d1, bb)]
        return rels, []
    sg, gset, dset, _ = audits._split_objects(desc)
    rels, subgroups = [*gset, *dset], []
    if suite == "dimension":
        # the draws of _run_dimension
        rng = SplitMix64(desc["seed"] ^ 0xD13)
        rels += [instances.random_endogeny(sg.ambient, sg.bound.n_max, rng.next_u64()) for _ in range(3)]
        subgroups = [h.basis for h in sg.split(instances.random_subgroup_of(Subgroup.full(sg.ambient), rng))]
    return rels, subgroups


def test_relations_snapshot(lattice_backend):
    """The relations the audits compute on are byte-stable: a sha256 over
    the canonical (moduli, K, V, bound) of every relation of twelve
    descriptors of each suite at seeds 1 and 20261017, of each restriction
    the invariance suite takes, and of each relation's JSON round trip,
    with the split bases of the dimension suite.  Any refactor that keeps
    the generator draws keeps this digest."""
    h = hashlib.sha256()
    for seed in (1, 20261017):
        for suite in audits.SUITES:
            for desc in audits.make_descriptors(suite, 12, seed):
                rels, subgroups = _suite_relations(suite, desc)
                for e in rels:
                    back = jsonio.endogeny_from_json(jsonio.endogeny_to_json(e), e.source)
                    h.update(repr((_relation_data(e), _relation_data(back))).encode())
                h.update(repr(subgroups).encode())
    assert h.hexdigest() == RELATIONS_SHA256


def test_sharp_pair_file_records_verdict():
    """A non-commuting fixture pair is recorded, not failed."""
    g = canonicalize_group([2, 2])
    f = subgroup_from_generators(g, [(1, 0)])
    nb = NegligibilityBound(g, f)
    zf = blur(f, nb)
    swap = Endogeny.from_morphism(Homomorphism(g, g, [[0, 1], [1, 0]]), nb)
    desc = {"pair": [jsonio.endogeny_to_json(zf), jsonio.endogeny_to_json(swap)]}
    rep = audits.run_suite("sharp", [desc], workers=1)
    assert rep["violations"] == [] and rep["errors"] == []
    assert rep["notes"] == [{"sharp_commutes": False}]
    # and a commuting pair gets its closure laws checked
    one = Endogeny.identity(g, nb)
    desc2 = {"pair": [jsonio.endogeny_to_json(zf), jsonio.endogeny_to_json(one)]}
    rep2 = audits.run_suite("sharp", [desc2], workers=1)
    assert rep2["violations"] == [] and rep2["errors"] == []
    assert rep2["notes"] == [{"sharp_commutes": True}]
    assert rep2["checks"] == 3


def test_sharp_pair_violation_names_its_instance(monkeypatch):
    """A law that fails on an explicit pair is reported with the pair's
    descriptor as its instance, as docs/formats.md promises."""
    g = canonicalize_group([2, 2])
    f = subgroup_from_generators(g, [(1, 0)])
    nb = NegligibilityBound(g, f)
    pair = [blur(f, nb), Endogeny.identity(g, nb)]
    desc = {"pair": [jsonio.endogeny_to_json(e) for e in pair]}
    # the pair commutes sharply; its negation is made not to
    verdicts = iter([True, False])
    monkeypatch.setattr(audits, "sharp_commutes", lambda e1, e2: next(verdicts))
    res = audits.run_instance("sharp", desc)
    assert [v["law"] for v in res["violations"]] == ["sharp_neg"]
    assert res["violations"][0]["instance"] == desc


def _report(descs, workers):
    rep = audits.run_suite("prering", descs, workers=workers)
    rep.pop("runtime_ms")
    return rep


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and runs the jobs in this process, so no process starts."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "workers, jobs, cpus, pool",
    [(10_000, 3, 4, 3), (10_000, 6, 4, 4), (2, 6, 4, 2), (None, 6, 4, 4), (None, 2, 8, 2),
     (10_000, 6, None, None), (3, 1, 4, None)],
)
def test_pool_bounded_by_jobs_and_cpus(monkeypatch, workers, jobs, cpus, pool):
    """run_suite starts at most min(workers, jobs, cpu_count) processes (no
    pool when that is 1), and the report is the serial one."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(audits, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(audits.os, "cpu_count", lambda: cpus)
    descs = audits.make_descriptors("prering", jobs, 11)
    assert _report(descs, workers) == _report(descs, 1)
    assert _RecordingPool.sizes == ([] if pool is None else [pool])


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
@pytest.mark.parametrize(
    "count, seed, max_order, workers",
    [(8, 5, None, 3), (4, 7, 8, 2)],
    ids=["default-caps", "max-order-8"],
)
def test_parallel_merge_deterministic(monkeypatch, method, count, seed, max_order, workers):
    """A pool run gives the serial report, errors included, whatever the
    start method: workers apply the parent's caps, not their defaults."""
    ctx = multiprocessing.get_context(method)
    monkeypatch.setattr(audits, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=ctx))
    descs = audits.make_descriptors("prering", count, seed)
    if max_order is not None:
        monkeypatch.setattr(config, "MAX_ORDER", max_order)
    serial = _report(descs, 1)
    assert _report(descs, workers) == serial
    if max_order is None:
        assert serial["errors"] == []
    else:
        # the groups of order 16, 16 and 39 are above the lowered cap; the
        # order-2 instance is still reported
        assert [(e["instance_index"], e["tag"]) for e in serial["errors"]] == [
            (0, "invalid-input"), (2, "invalid-input"), (3, "invalid-input")
        ]
        assert serial["checks"] == 12


def test_no_sum_or_composite_built_twice(monkeypatch):
    """Within one run_instance no endo_add or endo_compose call repeats an
    operand pair, on two descriptors of every suite at seed 1 (the oracle
    on where audit-oracle uses it).  Every operand is kept alive for the
    instance, so no id is reused."""
    calls = []

    def recorded(op):
        def call(x, y, **kw):
            calls.append((op.__name__, x, y))
            return op(x, y, **kw)

        return call

    for op in (endogeny.endo_add, endogeny.endo_compose):
        wrapper = recorded(op)
        for name, mod in list(sys.modules.items()):
            if name.startswith("endokat") and getattr(mod, op.__name__, None) is op:
                monkeypatch.setattr(mod, op.__name__, wrapper)
    for suite in audits.SUITES:
        for desc in audits.make_descriptors(suite, 2, 1):
            calls.clear()
            audits.run_instance(suite, desc, use_oracle=suite in ("prering", "equivalence", "sharp"))
            keys = [(name, id(x), id(y)) for name, x, y in calls]
            assert len(keys) == len(set(keys)), f"{suite}: a term is built twice"
            if suite == "prering":
                assert keys


def test_each_equivalent_verdict_once_per_op(monkeypatch):
    """Within one run_instance the laws ask for each equivalent verdict
    once per operand pair: equiv_blur's verdict serves
    preceq_sym_is_equiv, and the oracle branch reuses the verdict on
    (a, b).  preceq stays a call of its own."""
    calls = []
    verdict = audits.equivalent
    monkeypatch.setattr(audits, "equivalent", lambda x, y: calls.append((x, y)) or verdict(x, y))
    for suite in ("equivalence", "invariance"):
        for desc in audits.make_descriptors(suite, 4, 1):
            calls.clear()
            res = audits.run_instance(suite, desc, use_oracle=True)
            assert not res["violations"]
            keys = [(id(x), id(y)) for x, y in calls]
            assert len(keys) == len(set(keys)), f"{suite}: a verdict is computed twice"


def test_each_sharp_verdict_once_per_op(monkeypatch):
    """Within one run_instance each sharp_commutes verdict is computed once
    per operand pair, on four seed-1 descriptors of every suite with the
    oracle on: split_bimodule's cross check also serves induced_action.
    The recorded calls hold their operands, so no id is reused."""
    calls = []
    verdict = endogeny.sharp_commutes

    def recorded(x, y):
        calls.append((x, y))
        return verdict(x, y)

    for name, mod in list(sys.modules.items()):
        if name.startswith("endokat") and getattr(mod, "sharp_commutes", None) is verdict:
            monkeypatch.setattr(mod, "sharp_commutes", recorded)
    for suite in audits.SUITES:
        for desc in audits.make_descriptors(suite, 4, 1):
            calls.clear()
            res = audits.run_instance(suite, desc, use_oracle=True)
            assert not res["violations"]
            keys = [(id(x), id(y)) for x, y in calls]
            assert len(keys) == len(set(keys)), f"{suite}: a sharp verdict is computed twice"
            if suite == "katakernel":
                assert keys


def test_generators_and_value_ops_build_no_graph(monkeypatch):
    """random_endogeny, split_bimodule, _sharp_family, endo_add,
    endo_compose, equivalent, sharp_commutes, restrict and SplitGroup.split
    compute on (K, V) and canonical bases: on seed-1 descriptors of every
    suite none of them reads a graph, and split makes no kernel call."""
    reads = []
    graph = Endogeny.graph
    monkeypatch.setattr(Endogeny, "graph", property(lambda e: reads.append(e) or graph.fget(e)))
    splits, split = [], SplitGroup.split

    def refuse(mods, cols):
        raise AssertionError("split took a Hermite form")

    def split_without_kernel(sg, h):
        splits.append(h)
        with monkeypatch.context() as m:
            m.setattr(groups, "hnf_kernel", refuse)
            return split(sg, h)

    monkeypatch.setattr(SplitGroup, "split", split_without_kernel)
    built, restricted = [], 0
    for suite in audits.SUITES:
        for desc in audits.make_descriptors(suite, 3, 1):
            # the generated relations, the invariance suite's restrictions
            # and the dimension suite's split
            rels = _suite_relations(suite, desc)[0]
            restricted += suite == "invariance" and len(rels) == 5
            built += rels
            if suite in ("prering", "equivalence"):
                g, n_max, endos = audits._endo_triple(desc)
            elif suite in ("sharp", "invariance"):
                fam = audits._sharp_family(desc)
                endos = list(fam[4:]) if fam else []
            else:
                sg, gset, dset, _ = audits._split_objects(desc)
                endos = [*gset, *dset]
            for x in endos:
                for y in endos:
                    built += [endogeny.endo_add(x, y, unchecked=True), endogeny.endo_compose(x, y, unchecked=True)]
                    endogeny.equivalent(x, y)
                    endogeny.sharp_commutes(x, y)
            built += endos
    assert built and reads == []
    assert splits and restricted


def test_global_katakernel_closed_once_per_family(monkeypatch):
    """Within one katakernel run_instance each family's global katakernel
    fixpoint is computed once, though both the suite and induced_action ask
    for it."""
    closed = []
    closure = endogeny.orbit_closure
    monkeypatch.setattr(endogeny, "orbit_closure", lambda b, endos: closed.append(id(endos)) or closure(b, endos))
    for desc in audits.make_descriptors("katakernel", 3, 1):
        closed.clear()
        res = audits.run_instance("katakernel", desc)
        assert not res["violations"]
        assert len(closed) == len(set(closed)) == 2


def test_failed_law_counted_once_with_its_data(monkeypatch):
    """A failed law counts one check and records one violation with its
    counterexample data; a failed step records a violation and no check."""
    laws = audits.Laws({"seed": 1})
    laws.check("holds", True)
    laws.check("fails", False, {"x": 1})
    laws.record("step_failed", {"error": "e"})
    assert laws.checks == 2
    assert laws.violations == [
        {"law": "fails", "instance": {"seed": 1}, "counterexample": {"x": 1}},
        {"law": "step_failed", "instance": {"seed": 1}, "counterexample": {"error": "e"}},
    ]
    desc = audits.make_descriptors("dimension", 1, 1)[0]
    clean = audits.run_instance("dimension", desc)
    monkeypatch.setattr(SplitGroup, "dimension_lemma_check", lambda self, e: (1, 2, 3, False))
    res = audits.run_instance("dimension", desc)
    assert res["checks"] == clean["checks"]
    # every law but dim_subadditive and split_direct is a dimension_lemma
    failed = {"law": "dimension_lemma", "instance": desc, "counterexample": {"dims": [1, 2, 3]}}
    assert res["violations"] == [failed] * (clean["checks"] - 2)


def test_non_commuting_induced_maps_fail_the_katakernel_audit(monkeypatch):
    """``induced_commute`` is recorded once ``induced_action`` returns, so
    the audit must still report induced maps that fail to commute: a swap
    and a projection on V, planted past the cross-sharp check, make
    ``induced_action`` raise and the audit record ``induced_action_failed``."""
    sg = SplitGroup(2, 2, canonicalize_group([3]))
    triv = Subgroup.trivial(sg.ambient)
    swap = instances._morphism_endogeny(sg, ((0, 1), (1, 0)), triv, sg.bound)
    proj = instances._morphism_endogeny(sg, ((1, 0), (0, 0)), triv, sg.bound)
    gset = EndogenySet(sg.ambient, sg.bound, [swap])
    dset = EndogenySet(sg.ambient, sg.bound, [proj])
    monkeypatch.setattr(audits, "_split_objects", lambda desc: (sg, gset, dset, {}))
    monkeypatch.setattr(endogeny, "_check_cross_sharp", lambda gamma, delta: None)
    res = audits.run_instance("katakernel", {"seed": 0})
    assert res["violations"] == [
        {
            "law": "induced_action_failed",
            "instance": {"seed": 0},
            "counterexample": {"error": "induced endomorphisms fail to commute"},
        }
    ]
