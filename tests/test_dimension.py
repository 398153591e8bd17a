"""Split-group model: splitting, dimension, connectedness, minimality."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from endokat.dimension import SplitGroup, is_minimal_bimodule
from endokat.endogeny import Endogeny, EndogenySet
from endokat.errors import CapExceeded, InvalidInput
from endokat.groups import Subgroup, canonicalize_group, subgroup_from_generators
from endokat.instances import random_endogeny, split_bimodule
from endokat.rng import SplitMix64

from references import blur, scaled_p_part


@pytest.fixture
def sg223():
    return SplitGroup(2, 2, canonicalize_group([3]))


def test_split_group_validation():
    with pytest.raises(InvalidInput):
        SplitGroup(4, 2, canonicalize_group([3]))  # not prime
    with pytest.raises(CapExceeded, match="MAX_ORDER"):
        SplitGroup(2**61 - 1, 1, canonicalize_group([]))  # no trial division
    with pytest.raises(InvalidInput):
        SplitGroup(3, 1, canonicalize_group([3]))  # not coprime
    sg = SplitGroup(2, 0, canonicalize_group([9]))
    assert sg.ambient.moduli == (9,)


def test_split_examples(sg223):
    amb = sg223.ambient
    full = Subgroup.full(amb)
    vp, tp = sg223.split(full)
    assert vp == subgroup_from_generators(amb, [(1, 0, 0), (0, 1, 0)]) and tp == sg223.t_part()
    h = subgroup_from_generators(amb, [(1, 0, 1)])
    assert h.order == 6
    hp, ht = sg223.split(h)
    assert sorted(hp.elements()) == [(0, 0, 0), (1, 0, 0)]
    assert ht.order == 3
    assert (hp | ht) == h and (hp & ht).is_trivial
    triv = subgroup_from_generators(amb, [])
    assert sg223.split(triv) == (triv, triv)


def test_dim_and_finiteness(sg223):
    amb = sg223.ambient
    assert sg223.dim(Subgroup.full(amb)) == 2
    assert sg223.dim(sg223.t_part()) == 0
    # finite in the model: a trivial connected component
    assert sg223.connected_component(sg223.t_part()).is_trivial
    v1 = subgroup_from_generators(amb, [(1, 0, 0)])
    assert sg223.connected_component(v1) == v1
    # every subgroup is virtually connected with component index = torsion part
    h = subgroup_from_generators(amb, [(1, 0, 1), (0, 1, 0)])
    hp, ht = sg223.split(h)
    assert h.order == hp.order * ht.order


def test_dimension_lemma(sg223):
    one = Endogeny.identity(sg223.ambient, sg223.bound)
    assert sg223.dimension_lemma_check(one) == (0, 2, 2, True)
    zt = blur(sg223.t_part(), sg223.bound)
    assert sg223.dimension_lemma_check(zt) == (2, 0, 2, True)
    rng = SplitMix64(31)
    for _ in range(25):
        e = random_endogeny(sg223.ambient, sg223.bound.n_max, rng.next_u64())
        dk, di, da, ok = sg223.dimension_lemma_check(e)
        assert ok, (dk, di, da)


def test_connectedness_lemma(sg223):
    amb = sg223.ambient
    one = Endogeny.identity(amb, sg223.bound)
    rng = SplitMix64(77)
    subs = [
        subgroup_from_generators(
            amb, [tuple(rng.below(m) for m in amb.moduli) for _ in range(2)]
        )
        for _ in range(6)
    ]
    for b in subs:
        assert sg223.connectedness_lemma_check(one, b)
    zt = blur(sg223.t_part(), sg223.bound)
    for b in subs:
        assert sg223.connectedness_lemma_check(zt, b)
    for seed in range(20):
        e = random_endogeny(amb, sg223.bound.n_max, seed)
        for b in subs[:3]:
            assert sg223.connectedness_lemma_check(e, b)


def test_split_laws_across_sizes():
    rng = SplitMix64(123)
    for p, n, tor in [(2, 1, [3]), (2, 3, [5]), (3, 2, [2]), (3, 1, [8]), (2, 2, [9])]:
        sg = SplitGroup(p, n, canonicalize_group(tor))
        for _ in range(8):
            e = random_endogeny(sg.ambient, sg.bound.n_max, rng.next_u64())
            assert sg.dimension_lemma_check(e)[3]
            b = subgroup_from_generators(
                sg.ambient,
                [tuple(rng.below(m) for m in sg.ambient.moduli)],
            )
            assert sg.connectedness_lemma_check(e, b)


def test_split_invariants(sg223):
    """Idempotence/naturality of the splitting and the dimension bounds."""
    amb = sg223.ambient
    rng = SplitMix64(5150)
    triv = subgroup_from_generators(amb, [])
    v_part = subgroup_from_generators(amb, [(1, 0, 0), (0, 1, 0)])
    for _ in range(40):
        h = subgroup_from_generators(
            amb, [tuple(rng.below(m) for m in amb.moduli) for _ in range(2)]
        )
        hp, ht = sg223.split(h)
        assert sg223.split(hp) == (hp, triv)
        assert sg223.split(ht) == (triv, ht)
        # virtual connectedness in the model: component index = torsion part
        assert h.order == hp.order * ht.order
        h2 = subgroup_from_generators(
            amb, [tuple(rng.below(m) for m in amb.moduli)]
        )
        assert sg223.dim(h | h2) <= sg223.dim(h) + sg223.dim(h2)
        if (sg223.split(h | h2)[0]) == v_part:
            assert sg223.dim(h & h2) >= sg223.dim(h) + sg223.dim(h2) - sg223.n


def test_minimality(sg223):
    one = Endogeny.identity(sg223.ambient, sg223.bound)
    idset = EndogenySet(sg223.ambient, sg223.bound, [one])
    ok, w = is_minimal_bimodule(sg223, idset, idset)
    assert not ok and w is not None
    assert 0 < sg223.dim(w) < 2
    # an irreducible matrix pair is minimal
    sg, gset, dset, info = split_bimodule(2, 2, [3], 41)
    ok, w = is_minimal_bimodule(sg, gset, dset)
    assert ok and w is None
    # planted witness is found
    sg2, g2, d2, info2 = split_bimodule(2, 3, [5], 77, plant_witness=True)
    ok2, w2 = is_minimal_bimodule(sg2, g2, d2)
    assert not ok2 and w2 is not None
    planted = sg2.subgroup_from_v_subspace(
        [tuple(v) for v in info2["planted_subspace"]]
    )
    assert w2.leq(planted)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 3),
    st.lists(st.sampled_from([2, 3, 4, 7, 8, 9]), min_size=1, max_size=2),
    st.integers(0, 2**32),
)
def test_p_part_read_off_the_basis_is_the_scaled_hermite_form(lattice_backend, p, n, torsion, seed):
    """connected_component and dim, read off the V-block of the basis,
    equal the Hermite form of the generators scaled by |T| and its order,
    on random subgroups of split groups with one or two torsion factors."""
    torsion = [t for t in torsion if t % p] or [1]
    tor = canonicalize_group(torsion)
    sg = SplitGroup(p, n, tor)
    rng = SplitMix64(seed)
    amb = sg.ambient
    for _ in range(4):
        h = subgroup_from_generators(amb, [tuple(rng.below(m) for m in amb.moduli) for _ in range(rng.below(4))])
        ref = scaled_p_part(sg, h)
        assert sg.connected_component(h) == ref
        order, d = ref.order, 0
        while order > 1:
            order //= p
            d += 1
        assert sg.dim(h) == d
        hp, ht = sg.split(h)
        assert hp == ref and (hp | ht) == h
