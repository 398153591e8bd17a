"""Degenerate shapes: trivial groups, rank-zero splits, boundary restricts."""

from endokat import oracle
from endokat.dimension import SplitGroup
from endokat.endogeny import (
    Endogeny,
    NegligibilityBound,
    endo_add,
    endo_compose,
    equivalent,
    restrict,
    sharp_commutes,
    weakly_invariant,
)
from endokat.groups import (
    Subgroup,
    canonicalize_group,
    subgroup_from_generators,
    subgroup_isomorphism,
)
from endokat.instances import random_endogeny
from endokat.linearize import extract_field

from oracle_enumeration import unpack


def test_trivial_group_relations():
    t = canonicalize_group([1])
    nb = NegligibilityBound.zero(t)
    e = Endogeny.from_pairs(t, t, [], nb)
    assert e.graph.order == e.source.order and e.kat().is_trivial
    assert e.apply(()).rep == ()
    assert equivalent(endo_add(e, e), endo_compose(e, e))
    assert sharp_commutes(e, e)


def test_restrict_boundaries(z2z4):
    f = subgroup_from_generators(z2z4, [(0, 2)])
    nb = NegligibilityBound(z2z4, f)
    one = Endogeny.identity(z2z4, nb)
    r0 = restrict(one, subgroup_from_generators(z2z4, []))
    assert r0.source.order == 1 and r0.graph.order == 1
    rfull = restrict(one, Subgroup.full(z2z4))
    assert rfull.source.moduli == (2, 4)
    assert rfull.graph == Endogeny.identity(rfull.source, rfull.bound).graph


def test_restrict_against_enumeration(z2z4):
    """The restricted graph equals the literal intersection with B x B
    pushed through the coordinate change."""
    n_max = subgroup_from_generators(z2z4, [(0, 2)])
    for seed in range(10):
        e = random_endogeny(z2z4, n_max, seed)
        b = e.apply_set(Subgroup.full(z2z4)) | e.kat()
        if not weakly_invariant(b, e):
            continue
        r = restrict(e, b)
        q, to_b, _ = subgroup_isomorphism(b)
        bset = oracle.subgroup_set(b)
        pk, pq = oracle.packing(z2z4), oracle.packing(q)
        dense = {}
        for a, s in oracle.graph_set(e).items():
            if a in bset:
                dense[pq.pack(to_b(unpack(pk, a)))] = frozenset(pq.pack(to_b(unpack(pk, v))) for v in s & bset)
        assert dense == oracle.graph_set(r)


def test_torsion_only_split_group():
    sg = SplitGroup(2, 0, canonicalize_group([9]))
    z = Endogeny.zero(sg.ambient, sg.bound)
    assert sg.dimension_lemma_check(z) == (0, 0, 0, True)
    h = subgroup_from_generators(sg.ambient, [(3,)])
    assert sg.connected_component(h).is_trivial
    assert sg.connectedness_lemma_check(z, h)


def test_scalar_extraction():
    rep = extract_field(3, 1, [((2,),)], [((1,),)])
    assert rep.order == 3 and rep.vs_dimension == 1
