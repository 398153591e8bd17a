"""Abelian-core: canonical forms, subgroup lattice, quotients, sums."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from endokat import config, groups, oracle
from endokat.dimension import SplitGroup
from endokat.endogeny import Endogeny, NegligibilityBound
from endokat.errors import AmbientMismatch, InvalidInput
from endokat.groups import (
    AbelianGroup,
    FinAbGroup,
    Subgroup,
    canonicalize_group,
    quotient,
    subgroup_from_generators,
    subgroup_intersect,
    subgroup_isomorphism,
    subgroup_sum,
)
from endokat.rng import SplitMix64
from endokat.snf import smith_normal_form

from oracle_enumeration import EnumeratedGroup, naive_quotient_factors, unpack
from references import all_subgroups, blur, everything, image, kernel


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
    orders = sorted(a.element_order(e) for e in Subgroup.full(a).elements())
    b = FinAbGroup([2, 12])
    assert orders == sorted(b.element_order(e) for e in Subgroup.full(b).elements())


def test_fin_ab_group_validation():
    with pytest.raises(InvalidInput):
        FinAbGroup([4, 2])  # not a divisibility chain
    with pytest.raises(InvalidInput):
        FinAbGroup([1, 2])
    assert FinAbGroup([]).order == 1
    assert FinAbGroup([2, 4]).exponent == 4


def test_order_cap_errors_name_their_limit(monkeypatch):
    """Each order-cap error names MAX_ORDER, its value and the order that
    hit it."""
    monkeypatch.setattr(config, "MAX_ORDER", 64)
    with pytest.raises(InvalidInput, match=r"^cyclic order 65 above MAX_ORDER = 64$"):
        AbelianGroup([65])
    with pytest.raises(InvalidInput, match=r"^group order 128 above MAX_ORDER = 64$"):
        FinAbGroup([2, 64])


def test_subgroup_examples(z4, z2z4):
    h = subgroup_from_generators(z4, [(2,)])
    assert sorted(h.elements()) == [(0,), (2,)]
    assert h.order == 2
    h2 = subgroup_from_generators(z2z4, [(1, 2)])
    assert sorted(h2.elements()) == [(0, 0), (1, 2)]
    h3 = subgroup_from_generators(z2z4, [(0, 1)])
    assert h3.order == 4
    assert subgroup_from_generators(z2z4, []).is_trivial
    with pytest.raises(InvalidInput):
        subgroup_from_generators(z4, [(1, 0)])


def test_membership_and_index(z4, z2z4):
    h = subgroup_from_generators(z4, [(2,)])
    assert h.contains((2,)) and not h.contains((1,))
    triv = subgroup_from_generators(z2z4, [])
    assert triv.index == 8
    h11 = subgroup_from_generators(z2z4, [(1, 1)])
    assert h11.order == 4
    assert sorted(h11.elements()) == [(0, 0), (0, 2), (1, 1), (1, 3)]


def test_membership_rejects_a_wrong_length(z2z4):
    h = subgroup_from_generators(z2z4, [(1, 1)])
    for vec in ((1,), (1, 1, 0)):
        with pytest.raises(InvalidInput, match="length"):
            h.contains(vec)
        with pytest.raises(InvalidInput, match="length"):
            h.coset_reduce(vec)


def test_membership_of_unreduced_vectors(z2z4):
    """contains and coset_reduce read a vector modulo the moduli: negative
    and unreduced entries give the answers of the reduced vector."""
    h = subgroup_from_generators(z2z4, [(1, 1)])
    for vec in [(-1, -1), (3, 5), (-2, 6), (1, -2), (7, 2**70 + 1), (0, -4)]:
        red = z2z4.reduce(vec)
        assert red != vec
        assert h.contains(vec) == h.contains(red)
        assert h.coset_reduce(vec) == h.coset_reduce(red)
    assert h.contains((-1, -1)) and h.contains((3, 5)) and not h.contains((1, -2))


def test_sum_intersect_examples(z2z2, z2z4):
    a = subgroup_from_generators(z2z2, [(1, 0)])
    b = subgroup_from_generators(z2z2, [(0, 1)])
    assert subgroup_sum(a, b) == Subgroup.full(z2z2)
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
    assert small.leq(mid)
    assert not mid.leq(small)
    assert mid.leq(Subgroup.full(z2z4))
    other = subgroup_from_generators(z2z4, [(1, 0)])
    assert not other.leq(mid) and not mid.leq(other)


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
    assert q2.order == 1
    q3, proj3 = quotient(z2z4, subgroup_from_generators(z2z4, [(1, 2)]))
    assert q3.moduli == (4,)
    # the projection is a surjective homomorphism with the right kernel
    assert image(proj3) == Subgroup.full(q3)
    assert kernel(proj3) == subgroup_from_generators(z2z4, [(1, 2)])
    # quotient structure agrees with the element-order reconstruction
    dg = EnumeratedGroup(z2z4)
    fset = oracle.subgroup_set(subgroup_from_generators(z2z4, [(1, 2)]))
    assert naive_quotient_factors(dg, fset) == [4]


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
    assert a.order * a.index == g.order


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
    assert kernel(proj) == f
    assert image(proj) == Subgroup.full(q)


# SMALL_GROUPS in canonical form, plus a coordinate product with a modulus-1
# coordinate, whose basis column is e_j = d_j e_j and zero in the group.
GROUPS = st.one_of(
    SMALL_GROUPS.map(lambda mods: canonicalize_group(list(mods))),
    st.just(AbelianGroup([2, 1, 4])),
)


@st.composite
def subgroups_of(draw, g):
    elem = st.tuples(*(st.integers(0, m - 1) for m in g.moduli))
    return subgroup_from_generators(g, draw(st.lists(elem, max_size=3)))


@st.composite
def subgroup_pairs(draw):
    g = draw(GROUPS)
    return draw(subgroups_of(g)), draw(subgroups_of(g))


def _reduced_columns(h):
    """gen_columns by definition: every basis column reduced into the group,
    zero columns dropped."""
    r = h.group.rank
    cols = [h.group.reduce(tuple(h.basis[i][j] for i in range(r))) for j in range(r)]
    return [c for c in cols if any(c)]


@settings(max_examples=60, deadline=None)
@given(subgroup_pairs())
def test_gen_columns_are_the_reduced_basis_columns(pair):
    a, b = pair
    for h in (a, a & b, a | b):
        expected = _reduced_columns(h)
        cols = h.gen_columns()
        assert cols == expected
        cols.append(h.group.zero)
        cols[:1] = []
        assert h.gen_columns() == expected


@settings(max_examples=20, deadline=None)
@given(GROUPS)
def test_trivial_and_full_are_canonical(g):
    assert Subgroup.trivial(g) == subgroup_from_generators(g, [])
    assert Subgroup.full(g) == subgroup_from_generators(g, g.generators())


@settings(max_examples=60, deadline=None)
@given(subgroup_pairs())
def test_sum_matches_span_of_both_generator_sets(pair):
    a, b = pair
    g = a.group
    triv = Subgroup.trivial(g)
    same = subgroup_from_generators(g, a.gen_columns())
    for x, y in ((a, b), (a, triv), (triv, a), (triv, triv), (a, a), (a, same)):
        assert subgroup_sum(x, y) == subgroup_from_generators(g, x.gen_columns() + y.gen_columns())


def test_known_answers_skip_the_kernel(monkeypatch):
    g = canonicalize_group([2, 4])
    h = subgroup_from_generators(g, [(1, 2)])
    same = subgroup_from_generators(g, [(1, 2)])
    sg = SplitGroup(2, 2, canonicalize_group([3]))
    hs = subgroup_from_generators(sg.ambient, [(1, 0, 1), (0, 1, 2)])

    def refuse(*args):
        raise AssertionError("unexpected hnf_kernel call")

    monkeypatch.setattr(groups, "hnf_kernel", refuse)
    triv, full = Subgroup.trivial(g), Subgroup.full(g)
    assert h.gen_columns() == [(1, 2)]
    assert subgroup_sum(h, triv) is h and subgroup_sum(triv, h) is h
    assert subgroup_sum(h, same) is h
    assert subgroup_sum(full, full) is full
    assert blur(h, everything(g)).kat() == h
    # the dimension is read off the basis: its V-block has two unit pivots
    assert sg.dim(hs) == 2


@st.composite
def pushforward_inputs(draw):
    """Leading and trailing moduli with a product the oracle can enumerate,
    and integer columns over both blocks."""
    mods = draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=6))
    while math.prod(mods) > config.ORACLE_CAP:
        mods.pop()
    cut = draw(st.integers(0, len(mods)))
    lattice_mods, carried = mods[:cut], AbelianGroup(mods[cut:])
    width = len(mods)
    cols = draw(st.lists(st.lists(st.integers(-40, 40), min_size=width, max_size=width), max_size=6))
    return carried, lattice_mods, cols


@settings(max_examples=200, deadline=None)
@given(pushforward_inputs())
@example((AbelianGroup([4, 6]), [2, 3], []))
@example((AbelianGroup([2, 4]), [], [[1, 2], [3, 3]]))
@example((AbelianGroup([]), [4], [[2]]))
def test_pushforward_matches_carried_kernel(data):
    """One Hermite form gives the trailing blocks of the elements of
    span(cols) whose leading block vanishes, found by enumeration."""
    carried, lattice_mods, cols = data
    r = len(lattice_mods)
    ambient = AbelianGroup(tuple(lattice_mods) + carried.moduli)
    dg = oracle.DenseGroup(ambient)
    span = (unpack(dg.packing, v) for v in dg.close(map(dg.packing.pack, cols)))
    expected = frozenset(v[r:] for v in span if not any(v[:r]))
    got = Subgroup.pushforward(carried, lattice_mods, cols)
    assert frozenset(got.elements()) == expected
    assert got == Subgroup.from_generators(carried, sorted(expected))


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


def test_subgroup_isomorphism_once_per_subgroup(z2z4, monkeypatch):
    """The isomorphism is solved once per subgroup and kept on it: a second
    call, as by a second restriction to the same subgroup, returns the same
    maps with no Smith form."""
    h = subgroup_from_generators(z2z4, [(1, 1), (0, 2)])
    calls = []
    monkeypatch.setattr(groups, "smith_normal_form", lambda m: calls.append(m) or smith_normal_form(m))
    first = subgroup_isomorphism(h)
    assert subgroup_isomorphism(h) is first
    assert len(calls) == 1


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
