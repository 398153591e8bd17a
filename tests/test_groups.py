"""Abelian-core: canonical forms, subgroup lattice, quotients, sums."""

import pytest
from hypothesis import example, given, settings, strategies as st

from endokat import oracle
from endokat._kernel import hnf_kernel
from endokat.errors import AmbientMismatch, InvalidInput
from endokat.groups import (
    AbelianGroup,
    FinAbGroup,
    Homomorphism,
    Subgroup,
    all_subgroups,
    canonicalize_group,
    direct_sum,
    quotient,
    subgroup_from_generators,
    subgroup_index,
    subgroup_intersect,
    subgroup_isomorphism,
    subgroup_leq,
    subgroup_order,
    subgroup_sum,
)
from endokat.rng import SplitMix64
from endokat.snf import smith_normal_form


def test_canonicalize_examples():
    assert canonicalize_group([1]).moduli == ()
    assert canonicalize_group([2, 2]).moduli == (2, 2)
    assert canonicalize_group([4, 6]).moduli == (2, 12)
    with pytest.raises(InvalidInput):
        canonicalize_group([0])
    with pytest.raises(InvalidInput):
        canonicalize_group([-3])


def test_canonicalize_matches_smith_form():
    # independent route: diagonalize diag(4, 6) over Z
    diag, _, _ = smith_normal_form([[4, 0], [0, 6]])
    assert [d for d in diag if d != 1] == [2, 12]
    # and the [4,6] ~ [2,12] isomorphism is visible on all 24 elements
    a = canonicalize_group([4, 6])
    orders = sorted(a.element_order(e) for e in a.elements())
    b = FinAbGroup([2, 12])
    assert orders == sorted(b.element_order(e) for e in b.elements())


def test_fin_ab_group_validation():
    with pytest.raises(InvalidInput):
        FinAbGroup([4, 2])  # not a divisibility chain
    with pytest.raises(InvalidInput):
        FinAbGroup([1, 2])
    assert FinAbGroup([]).order == 1
    assert FinAbGroup([2, 4]).exponent == 4


def test_subgroup_examples(z4, z2z4):
    h = subgroup_from_generators(z4, [(2,)])
    assert sorted(h.elements()) == [(0,), (2,)]
    assert subgroup_order(h) == 2
    h2 = subgroup_from_generators(z2z4, [(1, 2)])
    assert sorted(h2.elements()) == [(0, 0), (1, 2)]
    h3 = subgroup_from_generators(z2z4, [(0, 1)])
    assert subgroup_order(h3) == 4
    assert subgroup_from_generators(z2z4, []).is_trivial
    with pytest.raises(InvalidInput):
        subgroup_from_generators(z4, [(1, 0)])


def test_membership_and_index(z4, z2z4):
    h = subgroup_from_generators(z4, [(2,)])
    assert h.contains((2,)) and not h.contains((1,))
    triv = subgroup_from_generators(z2z4, [])
    assert subgroup_index(triv) == 8
    h11 = subgroup_from_generators(z2z4, [(1, 1)])
    assert subgroup_order(h11) == 4
    assert sorted(h11.elements()) == [(0, 0), (0, 2), (1, 1), (1, 3)]


def test_sum_intersect_examples(z2z2, z2z4):
    a = subgroup_from_generators(z2z2, [(1, 0)])
    b = subgroup_from_generators(z2z2, [(0, 1)])
    assert subgroup_sum(a, b).is_full
    assert subgroup_sum(a, a) == a
    z4 = canonicalize_group([4])
    h = subgroup_from_generators(z4, [(2,)])
    assert subgroup_sum(h, subgroup_from_generators(z4, [])) == h
    c = subgroup_from_generators(z2z2, [(1, 1)])
    assert subgroup_intersect(a, c).is_trivial
    assert subgroup_intersect(a, a) == a
    h1 = subgroup_from_generators(z2z4, [(1, 1)])
    h2 = subgroup_from_generators(z2z4, [(0, 1)])
    got = subgroup_intersect(h1, h2)
    assert sorted(got.elements()) == [(0, 0), (0, 2)]


def test_subgroup_leq(z2z4):
    small = subgroup_from_generators(z2z4, [(0, 2)])
    mid = subgroup_from_generators(z2z4, [(0, 1)])
    assert subgroup_leq(small, mid)
    assert not subgroup_leq(mid, small)
    assert subgroup_leq(mid, Subgroup.full(z2z4))
    other = subgroup_from_generators(z2z4, [(1, 0)])
    assert not subgroup_leq(other, mid) and not subgroup_leq(mid, other)


def test_ambient_mismatch(z4, z2z2):
    with pytest.raises(AmbientMismatch):
        subgroup_sum(
            subgroup_from_generators(z4, [(2,)]),
            subgroup_from_generators(z2z2, [(1, 0)]),
        )


def test_quotient_examples(z4, z2z4):
    q, proj = quotient(z4, subgroup_from_generators(z4, [(2,)]))
    assert q.moduli == (2,)
    q2, _ = quotient(z4, Subgroup.full(z4))
    assert q2.is_trivial
    q3, proj3 = quotient(z2z4, subgroup_from_generators(z2z4, [(1, 2)]))
    assert q3.moduli == (4,)
    # the projection is a surjective homomorphism with the right kernel
    assert proj3.is_surjective()
    assert proj3.kernel() == subgroup_from_generators(z2z4, [(1, 2)])
    # quotient structure agrees with the element-order reconstruction
    dg = oracle.DenseGroup(z2z4)
    fset = oracle.subgroup_set(subgroup_from_generators(z2z4, [(1, 2)]))
    assert oracle.naive_quotient_factors(dg, fset) == [4]


def test_direct_sum_examples():
    c, (ia, ib), (pa, pb) = direct_sum(canonicalize_group([2]), canonicalize_group([3]))
    assert c.moduli == (6,)
    assert pa.compose(ia) == Homomorphism.identity(canonicalize_group([2]))
    assert pb.compose(ib) == Homomorphism.identity(canonicalize_group([3]))
    c2, _, _ = direct_sum(canonicalize_group([2]), canonicalize_group([2]))
    assert c2.moduli == (2, 2)
    c3, _, _ = direct_sum(canonicalize_group([2, 4]), canonicalize_group([2]))
    assert c3.moduli == (2, 2, 4)


SMALL_GROUPS = st.sampled_from(
    [(2,), (3,), (4,), (2, 2), (2, 4), (8,), (2, 2, 4), (3, 9), (12,), (2, 6)]
)


@settings(max_examples=40, deadline=None)
@given(SMALL_GROUPS, st.integers(0, 2**32))
def test_lattice_laws(mods, seed):
    g = canonicalize_group(list(mods))
    rng = SplitMix64(seed)

    def rand_sub():
        gens = [tuple(rng.below(m) for m in g.moduli) for _ in range(rng.below(3) + 1)]
        return subgroup_from_generators(g, gens)

    a, b, c = rand_sub(), rand_sub(), rand_sub()
    assert (a | b) == (b | a)
    assert (a & b) == (b & a)
    assert ((a | b) | c) == (a | (b | c))
    assert ((a & b) & c) == (a & (b & c))
    assert (a | a) == a and (a & a) == a
    assert (a & (a | b)) == a
    assert (a | (a & b)) == a
    # Lagrange
    assert subgroup_order(a) * subgroup_index(a) == g.order


@settings(max_examples=30, deadline=None)
@given(SMALL_GROUPS, st.integers(0, 2**32))
def test_canonicity_under_redundancy(mods, seed):
    g = canonicalize_group(list(mods))
    rng = SplitMix64(seed)
    gens = [tuple(rng.below(m) for m in g.moduli) for _ in range(3)]
    h1 = subgroup_from_generators(g, gens)
    shuffled = [gens[2], gens[0], gens[1], g.add(gens[0], gens[1])]
    h2 = subgroup_from_generators(g, shuffled)
    assert h1.basis == h2.basis


@settings(max_examples=25, deadline=None)
@given(SMALL_GROUPS, st.integers(0, 2**32))
def test_quotient_projection_is_homomorphism(mods, seed):
    g = canonicalize_group(list(mods))
    rng = SplitMix64(seed)
    gens = [tuple(rng.below(m) for m in g.moduli) for _ in range(2)]
    f = subgroup_from_generators(g, gens)
    q, proj = quotient(g, f)
    assert q.order * f.order == g.order
    for x in g.generators():
        for y in g.generators():
            assert proj(g.add(x, y)) == q.add(proj(x), proj(y))
    assert proj.kernel() == f
    assert proj.is_surjective()


PUSH_MODULI = st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), min_size=0, max_size=3)


@st.composite
def pushforward_inputs(draw):
    lattice_mods = draw(PUSH_MODULI)
    carried = AbelianGroup(draw(PUSH_MODULI))
    width = len(lattice_mods) + carried.rank
    cols = draw(st.lists(st.lists(st.integers(-40, 40), min_size=width, max_size=width), max_size=6))
    return carried, lattice_mods, cols


@settings(max_examples=200, deadline=None)
@given(pushforward_inputs())
@example((AbelianGroup([4, 6]), [2, 3], []))
@example((AbelianGroup([2, 4]), [], [[1, 2], [3, 3]]))
@example((AbelianGroup([]), [4], [[2]]))
def test_pushforward_matches_carried_kernel(data):
    """One Hermite form answers what the kernel's carried block followed by
    a second canonicalisation answers."""
    carried, lattice_mods, cols = data
    _, kernels = hnf_kernel(lattice_mods, [list(c) for c in cols], carried.rank, carried.exponent)
    expected = Subgroup.from_generators(carried, kernels)
    assert Subgroup.pushforward(carried, lattice_mods, cols) == expected


def test_subgroup_isomorphism_roundtrip(z2z4):
    h = subgroup_from_generators(z2z4, [(1, 1), (0, 2)])
    q, to_q, from_q = subgroup_isomorphism(h)
    assert q.order == h.order
    seen = set()
    for e in h.elements():
        z = to_q(e)
        assert from_q(z) == e
        seen.add(z)
    assert len(seen) == h.order


def test_canonicity_mass():
    """200 generator sets per group over 20 random groups of order <= 4096:
    shuffling and adding redundant generators never changes the basis."""
    from endokat.instances import random_group

    rng = SplitMix64(0xCA11)
    for gi in range(20):
        g = random_group(rng.next_u64(), max_order=4096)
        for _ in range(200):
            gens = [
                tuple(rng.below(m) for m in g.moduli)
                for _ in range(1 + rng.below(3))
            ]
            h1 = subgroup_from_generators(g, gens)
            redundant = list(reversed(gens)) + [g.add(gens[0], gens[-1])]
            h2 = subgroup_from_generators(g, redundant)
            assert h1.basis == h2.basis


def test_all_subgroups_counts():
    # Z/4: three subgroups; Z/2 x Z/4: eight; Z/2^3: sixteen
    assert len(all_subgroups(canonicalize_group([4]))) == 3
    assert len(all_subgroups(canonicalize_group([2, 4]))) == 8
    assert len(all_subgroups(canonicalize_group([2, 2, 2]))) == 16
