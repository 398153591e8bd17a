"""The enumeration reference itself, and core/oracle agreement."""

import random

import pytest

from endokat import config, oracle
from endokat.endogeny import Endogeny, NegligibilityBound, endo_add, endo_compose
from endokat.errors import CapExceeded
from endokat.groups import (
    all_subgroups,
    canonicalize_group,
    quotient,
    subgroup_from_generators,
    subgroup_intersect,
    subgroup_sum,
)
from endokat.instances import random_endogeny
from endokat.rng import SplitMix64


def test_dense_group_basics():
    g = canonicalize_group([4])
    dg = oracle.DenseGroup(g)
    assert len(dg.elements) == 4
    assert dg.close([(2,)]) == frozenset({(0,), (2,)})
    assert [len(s) for s in dg.all_subgroup_sets()] == [1, 2, 4]
    triv = canonicalize_group([1])
    assert oracle.DenseGroup(triv).all_subgroup_sets() == [frozenset({()})]


def test_cap_is_hard(monkeypatch):
    monkeypatch.setattr(config, "ORACLE_CAP", 8)
    with pytest.raises(CapExceeded):
        oracle.DenseGroup(canonicalize_group([2, 4, 8]))


def test_order_independence_of_enumeration():
    g = canonicalize_group([2, 4])
    dg = oracle.DenseGroup(g)
    shuffled = oracle.DenseGroup(g)
    rnd = random.Random(5)
    rnd.shuffle(shuffled.elements)
    gens = [(1, 1), (0, 2)]
    assert dg.close(gens) == shuffled.close(gens)
    assert set(dg.all_subgroup_sets()) == set(shuffled.all_subgroup_sets())


def test_hom_counts():
    z2 = canonicalize_group([2])
    z4 = canonicalize_group([4])
    assert len(oracle.enumerate_homomorphisms(z2, z4)) == 2
    assert len(oracle.enumerate_homomorphisms(z4, z2)) == 2
    z2z4 = canonicalize_group([2, 4])
    assert len(oracle.enumerate_homomorphisms(z2z4, z2z4)) == 32


def test_subgroup_ops_agree_small():
    """Exhaustive agreement on the lattice of every group of order <= 24."""
    for mods in [(2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2),
                 (9,), (3, 3), (12,), (2, 6), (16,), (2, 8), (4, 4),
                 (2, 2, 4), (18,), (24,), (2, 12)]:
        g = canonicalize_group(list(mods))
        dg = oracle.DenseGroup(g)
        dense = set(dg.all_subgroup_sets())
        lattice = {frozenset(s.elements()) for s in all_subgroups(g)}
        assert dense == lattice
        subs = all_subgroups(g)
        rng = SplitMix64(g.order)
        for _ in range(6):
            h1 = subs[rng.below(len(subs))]
            h2 = subs[rng.below(len(subs))]
            s1, s2 = frozenset(h1.elements()), frozenset(h2.elements())
            assert frozenset(subgroup_sum(h1, h2).elements()) == dg.close(s1 | s2)
            assert frozenset(subgroup_intersect(h1, h2).elements()) == (s1 & s2)
            e = dg.elements[rng.below(len(dg.elements))]
            assert h1.contains(e) == (e in s1)
            assert h1.order == len(s1)


def test_endogeny_ops_agree():
    g = canonicalize_group([2, 4])
    n_max = subgroup_from_generators(g, [(0, 2)])
    nb = NegligibilityBound(g, n_max)
    for seed in range(12):
        e1 = random_endogeny(g, n_max, seed)
        e2 = random_endogeny(g, n_max, seed + 100)
        s1, s2 = oracle.graph_set(e1), oracle.graph_set(e2)
        assert oracle.endog_add(s1, s2, g, g) == oracle.graph_set(
            endo_add(e1, e2, unchecked=True)
        )
        assert oracle.endog_compose(s1, s2, g) == oracle.graph_set(
            endo_compose(e1, e2, unchecked=True)
        )
        assert oracle.endog_kat(s1, g) == frozenset(e1.kat().elements())
        assert oracle.endog_im(s1) == frozenset(e1.im().elements())
        assert oracle.endog_ker(s1, g, g) == frozenset(e1.ker().elements())
        for a in g.elements():
            assert oracle.endog_apply(s1, a) == frozenset(e1.apply(a).elements())


def test_quotient_factor_reconstruction():
    for mods, gens, expect in [
        ((4,), [(2,)], [2]),
        ((2, 4), [(1, 2)], [4]),
        ((2, 4), [(0, 1)], [2]),
        ((8,), [], [8]),
    ]:
        g = canonicalize_group(list(mods))
        f = subgroup_from_generators(g, gens)
        dg = oracle.DenseGroup(g)
        got = oracle.naive_quotient_factors(dg, oracle.subgroup_set(f))
        q, _ = quotient(g, f)
        assert got == list(q.moduli) == (expect if expect != [8] else [8])


def test_count_endogenies_matches_enumeration():
    g = canonicalize_group([4])
    n_max = subgroup_from_generators(g, [(2,)])
    pairs = list(oracle.enumerate_endogeny_pairs(g, n_max))
    assert len(pairs) == oracle.count_endogenies(g, n_max) == 6
    built = set()
    nb = NegligibilityBound(g, n_max)
    for pr, _ in pairs:
        built.add(Endogeny.from_pairs(g, g, pr, nb).graph.basis)
    assert len(built) == 6


def test_search_witness_budget():
    w, exhausted = oracle.search_witness(lambda x: x == 3, range(10), budget=2)
    assert w is None and not exhausted
    w, exhausted = oracle.search_witness(lambda x: x == 3, range(10), budget=100)
    assert w == 3 and exhausted
    w, exhausted = oracle.search_witness(lambda x: x == 99, range(10), budget=100)
    assert w is None and exhausted
