"""The relation calculus: validation, operations, laws, invariance."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from endokat import audits, endogeny, groups, oracle
from endokat.endogeny import (
    Endogeny,
    EndogenySet,
    NegligibilityBound,
    bikat,
    endo_add,
    endo_compose,
    endo_neg,
    endogeny_validate,
    equivalent,
    fully_invariant,
    global_kat,
    induced_action,
    preceq,
    restrict,
    sharp_commutes,
    weakly_invariant,
)
from endokat.errors import (
    AmbientMismatch,
    CapExceeded,
    InvalidInput,
    KatakernelBound,
    NotGlobal,
    NotWeaklyInvariant,
)
from endokat.groups import (
    Homomorphism,
    Subgroup,
    canonicalize_group,
    product_group,
    subgroup_from_generators,
    subgroup_isomorphism,
)
from endokat.instances import fixture_nonliftable, random_endogeny, random_homomorphism
from endokat.rng import SplitMix64

from oracle_enumeration import EnumeratedGroup, enumerate_endogeny_pairs, enumerate_homomorphisms
from references import all_subgroups, blur, coset_elements, everything, graph_preimage, random_sharp_pair


def bound_of(group, gens):
    return NegligibilityBound(group, subgroup_from_generators(group, gens))


def test_validation(z4):
    nb0 = NegligibilityBound.zero(z4)
    e = endogeny_validate(z4, z4, [((1,), (1,))], nb0)
    assert e.kat().is_trivial
    f = subgroup_from_generators(z4, [(2,)])
    zf = blur(f, NegligibilityBound(z4, f))
    assert zf.kat() == f
    assert zf.graph.order == 8
    with pytest.raises(NotGlobal):
        endogeny_validate(z4, z4, [((2,), (1,))], nb0)
    with pytest.raises(KatakernelBound):
        blur(f, nb0)
    with pytest.raises(InvalidInput):
        Endogeny.from_pairs(z4, z4, [((1, 0), (1,))], nb0)  # source pair too long
    with pytest.raises(InvalidInput):
        Endogeny.from_pairs(z4, z4, [((1,), ())], nb0)  # target pair too short


def test_kat_ker_im(z4):
    one = Endogeny.identity(z4)
    assert one.kat().is_trivial and one.ker().is_trivial and one.im() == Subgroup.full(z4)
    f = subgroup_from_generators(z4, [(2,)])
    zf = blur(f, NegligibilityBound(z4, f))
    assert zf.kat() == f and zf.im() == f and zf.ker() == Subgroup.full(z4)
    # the nonliftable fixture's structure
    a, g = fixture_nonliftable(2)
    fa = subgroup_from_generators(a, [(0, 2)])
    assert g.kat() == fa and g.ker() == fa and g.im() == Subgroup.full(a)
    # ker = preimage of kat by construction
    assert g.ker() == g.preimage(g.kat())


def test_apply(z4):
    one = Endogeny.identity(z4)
    assert one.apply((3,)).rep == (3,)
    f = subgroup_from_generators(z4, [(2,)])
    zf = blur(f, NegligibilityBound(z4, f))
    for x in Subgroup.full(z4).elements():
        c = zf.apply(x)
        assert sorted(coset_elements(c)) == sorted(f.elements())
    a, g = fixture_nonliftable(2)
    c = g.apply((1, 0))
    assert c.rep == (0, 1) and c.subgroup.order == 2
    # result independent of representative choice: shift by a graph pair
    assert (0, 3) in g.apply((1, 0)) or (0, 1) in g.apply((1, 0))


def test_apply_set_preimage(z2z4):
    f = subgroup_from_generators(z2z4, [(0, 2)])
    nb = NegligibilityBound(z2z4, f)
    g = random_endogeny(z2z4, f, 9)
    # gamma[0] = kat, preimage of kat = ker
    assert g.apply_set(subgroup_from_generators(z2z4, [])) == g.kat()
    assert g.preimage(g.kat()) == g.ker()
    zf = blur(f, nb)
    s = subgroup_from_generators(z2z4, [(1, 0)])
    assert zf.apply_set(s) == f


def test_add_compose_laws(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    one = Endogeny.identity(z4, nb)
    zero = Endogeny.zero(z4, nb)
    zf = blur(f, nb)
    g = endo_add(one, zf)
    assert endo_add(g, zero) == g
    assert endo_compose(one, g) == g and endo_compose(g, one) == g
    # gamma - gamma = blur by its katakernel, literally A x kat
    d = endo_add(g, endo_neg(g), unchecked=True)
    assert d.graph == zf.graph
    assert oracle.graph_set(d) == {a: oracle.subgroup_set(f) for a in EnumeratedGroup(z4).elements}
    # katakernel identities
    assert endo_add(g, zf).kat() == (g.kat() | zf.kat())
    assert endo_compose(g, zf).kat() == g.apply_set(zf.kat())
    # z_F absorbs composition with a morphism
    m = Endogeny.from_morphism(Homomorphism(z4, z4, [[3]]), nb)
    assert endo_compose(zf, m) == zf


def test_bound_errors(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nbf = NegligibilityBound(z4, f)
    nb0 = NegligibilityBound.zero(z4)
    zf = blur(f, nbf)
    one0 = Endogeny.identity(z4, nb0)
    with pytest.raises(KatakernelBound):
        endo_add(
            Endogeny(z4, z4, zf.graph, nb0, _checked=True), one0
        )


def test_equivalence(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    one = Endogeny.identity(z4, nb)
    zero = Endogeny.zero(z4, nb)
    zf = blur(f, nb)
    assert equivalent(zf, zero)
    assert equivalent(one, one)
    assert not equivalent(one, zero)
    # the nonliftable fixture is equivalent to no endomorphism (both p)
    for p in (2, 3):
        a, g = fixture_nonliftable(p)
        homs = enumerate_homomorphisms(a, a)
        assert not any(
            equivalent(g, Endogeny.from_morphism(h, g.bound)) for h in homs
        )


def test_preceq(z4, z2z2):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    m = Endogeny.from_morphism(Homomorphism(z4, z4, [[1]]), nb)
    mf = endo_add(m, blur(f, nb))
    assert preceq(m, mf)
    # distinct morphisms are incomparable at bound zero
    nb0 = NegligibilityBound.zero(z2z2)
    m1 = Endogeny.from_morphism(Homomorphism(z2z2, z2z2, [[1, 0], [0, 1]]), nb0)
    m2 = Endogeny.from_morphism(Homomorphism(z2z2, z2z2, [[0, 1], [1, 0]]), nb0)
    assert not preceq(m1, m2) and not preceq(m2, m1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(4,), (2, 4), (2, 2), (8,), (3, 9)]), st.integers(0, 2**31))
def test_preceq_symmetrization_is_equivalence(mods, seed):
    g = canonicalize_group(list(mods))
    n_max = subgroup_from_generators(g, [g.generators()[0]])
    e1 = random_endogeny(g, n_max, seed)
    e2 = random_endogeny(g, n_max, seed + 1)
    assert (preceq(e1, e2) and preceq(e2, e1)) == equivalent(e1, e2)


def test_sharp_commutation(z2z2):
    f = subgroup_from_generators(z2z2, [(1, 0)])
    nb = NegligibilityBound(z2z2, f)
    zf = blur(f, nb)
    swap = Endogeny.from_morphism(Homomorphism(z2z2, z2z2, [[0, 1], [1, 0]]), nb)
    one = Endogeny.identity(z2z2, nb)
    assert sharp_commutes(zf, one)
    assert not sharp_commutes(zf, swap)
    # oracle agrees, and the offending image is F + swap[F] (the whole group)
    gs, ds = oracle.graph_set(zf), oracle.graph_set(swap)
    assert not oracle.endog_sharp(gs, ds, z2z2)
    sigma = endo_add(
        endo_compose(zf, swap, unchecked=True), endo_neg(endo_compose(swap, zf, unchecked=True)),
        unchecked=True,
    )
    swap_f = subgroup_from_generators(z2z2, [swap.apply(c).rep for c in f.gen_columns()])
    assert sigma.im() == (f | swap_f)
    assert sigma.im() == Subgroup.full(z2z2)
    m1 = Endogeny.from_morphism(Homomorphism(z2z2, z2z2, [[1, 0], [0, 0]]), nb)
    assert sharp_commutes(m1, m1) and sharp_commutes(m1, one)


def test_sharp_closure_laws(z2z4):
    n_max = subgroup_from_generators(z2z4, [(0, 2)])
    for seed in range(6):
        g, d = random_sharp_pair(z2z4, n_max, seed)
        assert sharp_commutes(g, d)
        assert d.apply_set(g.kat()).leq(g.kat() | d.kat())
        assert sharp_commutes(g, endo_neg(d))


def test_invariance(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    zf = blur(f, nb)
    assert fully_invariant(Subgroup.full(z4), zf)
    assert weakly_invariant(f, zf)
    one = Endogeny.identity(z4, nb)
    assert fully_invariant(f, one)


def test_weak_invariance_intersection_failure_witness():
    """Exhaustive search over small groups finds two weakly invariant
    subgroups whose intersection is not weakly invariant."""
    found = None
    for mods in [(2,), (3,), (4,), (2, 2), (2, 4), (8,), (2, 2, 2)]:
        g = canonicalize_group(list(mods))
        if g.order > 64:
            continue
        n_max = Subgroup.full(g)
        subs = all_subgroups(g)
        for pairs, fset in enumerate_endogeny_pairs(g, n_max):
            if len(fset) == 1:
                continue  # morphisms cannot witness: weak equals full there
            e = endogeny_validate(g, g, pairs, NegligibilityBound(g, n_max))
            for b1 in subs:
                if not weakly_invariant(b1, e):
                    continue
                for b2 in subs:
                    inter = b1 & b2
                    if inter in (b1, b2):
                        continue
                    if weakly_invariant(b2, e) and not weakly_invariant(inter, e):
                        found = (g, e, b1, b2)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    g, e, b1, b2 = found
    assert g.order <= 64


def test_restriction(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    one = Endogeny.identity(z4, nb)
    r = restrict(one, f)
    assert r.graph == Endogeny.identity(r.source, r.bound).graph
    zf = blur(f, nb)
    rz = restrict(zf, f)  # z_F restricted to B is the blur by F cap B
    assert rz.kat().order == 2
    assert rz.graph == blur(Subgroup.full(rz.source), rz.bound).graph
    # same shape on a proper weakly invariant subgroup of [2,4]
    amb24 = canonicalize_group([2, 4])
    f24 = subgroup_from_generators(amb24, [(0, 1)])
    b24 = subgroup_from_generators(amb24, [(1, 2)])
    z24 = blur(f24, NegligibilityBound(amb24, f24))
    assert weakly_invariant(b24, z24)
    r24 = restrict(z24, b24)
    _, to_b, _ = subgroup_isomorphism(b24)
    expected = Subgroup.from_generators(
        r24.source, [to_b(c) for c in (f24 & b24).gen_columns()]
    )
    assert r24.graph == blur(expected, r24.bound).graph
    # restriction to a non-invariant subgroup errors
    a, g = fixture_nonliftable(2)
    bad = subgroup_from_generators(a, [(1, 0)])
    if not weakly_invariant(bad, g):
        with pytest.raises(NotWeaklyInvariant):
            restrict(g, bad)
    # kat bound: kat(rho_B gamma) <= kat gamma cap B, via the iso maps
    amb = canonicalize_group([2, 4])
    n_max = subgroup_from_generators(amb, [(0, 2)])
    for seed in range(8):
        e = random_endogeny(amb, n_max, seed)
        b = e.apply_set(Subgroup.full(amb)) | e.kat()
        if not weakly_invariant(b, e):
            continue
        re = restrict(e, b)
        _, _, from_b = subgroup_isomorphism(b)
        katcap = e.kat() & b
        for col in re.kat().gen_columns():
            assert katcap.contains(from_b(col))


# Bound on the elements a test closure enumerates.
CLOSURE_CAP = 20_000


def prering_closure(gens: EndogenySet, cap=CLOSURE_CAP) -> EndogenySet:
    """Closure of the generators (plus 0, 1, -1) under sum, negation, and
    composition.  Raises :class:`CapExceeded` past ``cap`` elements and
    propagates :class:`KatakernelBound` if the closure escapes the bound."""
    amb, bound = gens.ambient, gens.bound
    seed = [
        Endogeny.zero(amb, bound),
        Endogeny.identity(amb, bound),
        endo_neg(Endogeny.identity(amb, bound)),
    ]
    seen = {}
    for e in list(seed) + list(gens.elements):
        seen.setdefault(e.graph.basis, e)
    frontier = list(seen.values())
    members = dict(seen)
    while frontier:
        fresh = []

        def push(e):
            if e.graph.basis not in members:
                if len(members) >= cap:
                    raise CapExceeded(f"prering closure exceeded {cap} elements")
                members[e.graph.basis] = e
                fresh.append(e)

        for e in frontier:
            push(endo_neg(e))
        current = list(members.values())
        for e in frontier:
            for f in current:
                push(endo_add(e, f))
                push(endo_compose(e, f))
                push(endo_compose(f, e))
        frontier = fresh
    return EndogenySet(amb, bound, members.values())


def test_prering_closure(z2z2, z4):
    nb = NegligibilityBound.zero(z2z2)
    one = Endogeny.identity(z2z2, nb)
    cl = prering_closure(EndogenySet(z2z2, nb, [one]))
    assert len(cl) == 2  # 1 + 1 = 0 on exponent-2 groups
    f = subgroup_from_generators(z4, [(2,)])
    nbf = NegligibilityBound(z4, f)
    zf = blur(f, nbf)
    cl2 = prering_closure(EndogenySet(z4, nbf, [zf]))
    keys = {e.graph.basis for e in cl2}
    assert zf.graph.basis in keys
    assert endo_add(Endogeny.identity(z4, nbf), zf).graph.basis in keys
    # empty generators: the image of the integers
    cl3 = prering_closure(EndogenySet(z4, nbf, []))
    assert len(cl3) == 4  # multiplications by 0..3
    with pytest.raises(CapExceeded):
        prering_closure(EndogenySet(z4, nbf, [zf]), cap=2)


def test_global_kat(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    m = Endogeny.from_morphism(Homomorphism(z4, z4, [[3]]), nb)
    assert global_kat(EndogenySet(z4, nb, [m])).is_trivial
    zf = blur(f, nb)
    assert global_kat(EndogenySet(z4, nb, [zf])) == f
    # fixpoint agrees with the sum of katakernels over the full closure
    # on a hundred random small instances
    cases = []
    for seed in range(50):
        cases.append((z4, f, seed))
    z24 = canonicalize_group([2, 4])
    f24 = subgroup_from_generators(z24, [(0, 2)])
    for seed in range(50):
        cases.append((z24, f24, seed))
    for g, n_max, seed in cases:
        nbg = NegligibilityBound(g, n_max)
        e = random_endogeny(g, n_max, seed)
        gens = EndogenySet(g, nbg, [e])
        k1 = global_kat(gens)
        closure = prering_closure(gens)
        k2 = subgroup_from_generators(g, [])
        for x in closure:
            k2 = k2 | x.kat()
        assert k1 == k2


def test_global_kat_closes_each_family_once(z2z2, monkeypatch):
    """The fixpoint is kept on the family: bikat after global_kat closes
    each family once.  A fixpoint beyond the bound raises KatakernelBound
    on every call, not only on the one that computed it."""
    closed = []
    closure = endogeny.orbit_closure
    monkeypatch.setattr(endogeny, "orbit_closure", lambda b, endos: closed.append(endos) or closure(b, endos))
    nb0 = NegligibilityBound.zero(z2z2)
    gset = EndogenySet(z2z2, nb0, [Endogeny.from_morphism(Homomorphism(z2z2, z2z2, [[0, 1], [1, 0]]), nb0)])
    dset = EndogenySet(z2z2, nb0, [Endogeny.identity(z2z2, nb0)])
    assert global_kat(gset).is_trivial and global_kat(dset).is_trivial
    assert bikat(gset, dset).is_trivial
    assert closed == [gset, dset]
    # a -> swap(a) + <(1, 0)>: its katakernel <(1, 0)> is within the bound,
    # but its image <(0, 1)> is not.
    nb = bound_of(z2z2, [(1, 0)])
    e = Endogeny.from_pairs(z2z2, z2z2, [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 0), (1, 0))], nb)
    assert e.kat() == nb.n_max
    escaping = EndogenySet(z2z2, nb, [e])
    for _ in range(2):
        with pytest.raises(KatakernelBound):
            global_kat(escaping)
    assert closed[2:] == [escaping]


def test_apply_set_images_each_subgroup_once(z2z4, monkeypatch):
    """Two equal subgroups, built as distinct objects, get their image under
    one endogeny from one kernel call; another endogeny computes its own."""
    n_max = subgroup_from_generators(z2z4, [(0, 2)])
    e1, e2 = random_endogeny(z2z4, n_max, 9), random_endogeny(z2z4, n_max, 10)
    s1 = subgroup_from_generators(z2z4, [(1, 1)])
    s2 = subgroup_from_generators(z2z4, [(1, 3)])
    assert s1 == s2 and s1 is not s2
    calls = []
    real = groups.hnf_kernel
    monkeypatch.setattr(groups, "hnf_kernel", lambda mods, cols: calls.append(mods) or real(mods, cols))
    img = e1.apply_set(s1)
    assert e1.apply_set(s2) is img and len(calls) == 1
    assert img == Subgroup._span(z2z4, [e1.apply(c).rep for c in s1.gen_columns()] + e1.kat().gen_columns())
    calls.clear()
    e2.apply_set(s2)
    e2.apply_set(s1)
    assert len(calls) == 1


def test_bikat_and_induced_action(z2z2):
    nb0 = NegligibilityBound.zero(z2z2)
    swap = Endogeny.from_morphism(Homomorphism(z2z2, z2z2, [[0, 1], [1, 0]]), nb0)
    one = Endogeny.identity(z2z2, nb0)
    gset = EndogenySet(z2z2, nb0, [swap])
    dset = EndogenySet(z2z2, nb0, [one])
    assert bikat(gset, dset).is_trivial
    q, proj, gh, dh = induced_action(gset, dset)
    assert q.moduli == (2, 2)
    assert gh[0].matrix == ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# The graph calculus in the product group: one Hermite form of the graphs per
# operation.  The library computes on (katakernel, value columns) instead;
# these are the references it must match basis for basis.


def _ref_add(g1, g2):
    """Graph of the pointwise sum: pairs (a, b1 + b2) with (a, b1) in g1
    and (a, b2) in g2."""
    src = g1.source
    r1 = src.rank
    cols = [col[:r1] + col for col in g1.graph.gen_columns()]
    cols += [src.neg(col[:r1]) + src.zero + col[r1:] for col in g2.graph.gen_columns()]
    return Subgroup.pushforward(g1.graph.group, src.moduli, cols)


def _ref_neg(g):
    src, tgt = g.source, g.target
    r1 = src.rank
    gens = []
    for j in range(r1 + tgt.rank):
        col = [g.graph.basis[i][j] for i in range(r1)]
        col += [-g.graph.basis[r1 + i][j] for i in range(tgt.rank)]
        gens.append(col)
    return Subgroup._span(product_group(src, tgt), gens)


def _ref_compose(g1, g2):
    """Graph of g1 after g2: pairs (a, c) with (a, b) in g2 and (b, c) in g1."""
    src, mid, tgt = g2.source, g2.target, g1.target
    ra, rb = src.rank, mid.rank
    cols = [col[ra:] + col[:ra] + tgt.zero for col in g2.graph.gen_columns()]
    cols += [mid.neg(col[:rb]) + src.zero + col[rb:] for col in g1.graph.gen_columns()]
    return Subgroup.pushforward(product_group(src, tgt), mid.moduli, cols)


def _ref_apply_set(g, s):
    cols = g.graph.gen_columns()
    cols += [s.group.neg(col) + g.target.zero for col in s.gen_columns()]
    return Subgroup.pushforward(g.target, g.source.moduli, cols)


def _ref_im(graph, src, tgt):
    return Subgroup._span(tgt, [col[src.rank:] for col in graph.gen_columns()])


def _like(e, graph):
    return Endogeny(e.source, e.target, graph, e.bound, _checked=True)


def _ref_sharp(g, d):
    """im(gd - dg) <= kat g + kat d, by composites and a difference of graphs."""
    gd = _like(g, _ref_compose(g, d))
    dg = _like(g, _ref_compose(d, g))
    sigma = _ref_add(gd, _like(g, _ref_neg(dg)))
    return _ref_im(sigma, g.source, g.target).leq(g.kat() | d.kat())


def _cross_right(src, tgt, f):
    """{0} x F inside src x tgt."""
    return Subgroup._span(product_group(src, tgt), [src.zero + col for col in f.gen_columns()])


def _ref_equivalent(g1, g2):
    cross = _cross_right(g1.source, g1.target, g1.kat() | g2.kat())
    return (g1.graph | cross) == (g2.graph | cross)


def _ref_preceq(g1, g2):
    cross = _cross_right(g1.source, g1.target, g1.kat() | g2.kat())
    return g1.graph.leq(g2.graph | cross)


SMALL_GROUPS = [(), (2,), (3,), (4,), (2, 2), (6,), (8,), (9,), (2, 4), (2, 2, 2), (2, 6),
                (4, 4), (3, 9), (2, 2, 4), (4, 8), (2, 4, 8), (8, 8)]


def _random_subgroup(g, rnd, most=2):
    gens = [tuple(rnd.randrange(m) for m in g.moduli) for _ in range(rnd.randrange(most + 1))]
    return subgroup_from_generators(g, gens)


def _random_relation(a, b, n_max, rnd, values=True):
    """A global relation a -> b whose katakernel lies in n_max: a random
    homomorphism plus random members of n_max as values, and random members
    of n_max over 0.  ``values=False`` gives a blur a x F."""
    hom = random_homomorphism(a, b, SplitMix64(rnd.getrandbits(63)))
    members = list(n_max.elements())
    pick = lambda: rnd.choice(members)
    pairs = [(e, b.add(hom(e), pick()) if values else b.zero) for e in a.generators()]
    pairs += [(a.zero, pick()) for _ in range(rnd.randrange(3))]
    return Endogeny.from_pairs(a, b, pairs, NegligibilityBound(b, n_max))


def _random_setup(ma, mb, mc, seed):
    rnd = random.Random(seed)
    a, b, c = (canonicalize_group(list(m)) for m in (ma, mb, mc))
    nb, nc = _random_subgroup(b, rnd, 3), _random_subgroup(c, rnd, 3)
    g1, g2 = (_random_relation(a, b, nb, rnd) for _ in range(2))
    g3 = endo_add(g1, _random_relation(a, b, nb, rnd, values=False))  # equivalent to g1
    h = _random_relation(b, c, nc, rnd)
    e, d = (_random_relation(b, b, nb, rnd) for _ in range(2))
    return rnd, a, b, (g1, g2, g3, h, e, d)


_three_groups = st.tuples(*[st.sampled_from(SMALL_GROUPS)] * 3)


@settings(max_examples=150, deadline=None)
@given(_three_groups, st.integers(0, 2**32))
def test_value_columns_match_graph_reference(mods, seed):
    """Sum, negation, composite, image, equivalence and the sharp test on
    (katakernel, value columns) give the graph calculus's bases and
    verdicts, source and target differing, bounds and blurs random."""
    rnd, a, b, (g1, g2, g3, h, e, d) = _random_setup(*mods, seed)
    s = _random_subgroup(a, rnd)
    tight = NegligibilityBound(b, _random_subgroup(b, rnd) & g1.bound.n_max)
    for x, y in ((g1, g2), (g1, g3), (g2, g3)):
        ref = _ref_add(x, y)
        assert endo_add(x, y, unchecked=True).graph.basis == ref.basis
        assert endo_add(x, y).graph == ref  # kat x + kat y stays inside the bound
        xt, yt = (Endogeny(a, b, z.graph, tight, _checked=True) for z in (x, y))
        if tight.is_negligible(_like(x, ref).kat()):
            assert endo_add(xt, yt).graph == ref
        else:
            with pytest.raises(KatakernelBound):
                endo_add(xt, yt)
        assert equivalent(x, y) == _ref_equivalent(x, y)
    ref = _ref_compose(h, g1)
    if h.bound.is_negligible(Endogeny(a, h.target, ref, h.bound, _checked=True).kat()):
        assert endo_compose(h, g1).graph == ref
    else:
        with pytest.raises(KatakernelBound):
            endo_compose(h, g1)
    assert equivalent(g1, g3)
    assert endo_neg(g1).graph.basis == _ref_neg(g1).basis
    assert endo_compose(h, g1, unchecked=True).graph.basis == ref.basis
    assert endo_compose(e, d, unchecked=True).graph.basis == _ref_compose(e, d).basis
    assert g1.apply_set(s).basis == _ref_apply_set(g1, s).basis
    assert g1.im() == _ref_im(g1.graph, a, b)
    z = _random_relation(b, b, e.bound.n_max, rnd, values=False)  # a blur: only d[F] can fail
    for x, y in ((e, d), (e, e), (e, endo_add(e, e, unchecked=True)), (d, endo_neg(d)), (z, d), (d, z)):
        assert sharp_commutes(x, y) == _ref_sharp(x, y)


@settings(max_examples=100, deadline=None)
@given(_three_groups, st.integers(0, 2**32))
def test_preceq_is_graph_containment_and_equivalence(mods, seed):
    """g1 <= g2 + {0} x (kat g1 + kat g2) exactly when the two are
    equivalent (the argument is in preceq's docstring)."""
    _, _, _, (g1, g2, g3, _, e, d) = _random_setup(*mods, seed)
    for x, y in ((g1, g2), (g2, g1), (g1, g3), (g3, g1), (e, d)):
        assert _ref_preceq(x, y) == equivalent(x, y) == preceq(x, y)


_oracle_groups = st.tuples(*[st.sampled_from([m for m in SMALL_GROUPS if len(m) < 3 and sum(m) <= 12])] * 3)


@settings(max_examples=40, deadline=None)
@given(_oracle_groups, st.integers(0, 2**32))
def test_value_columns_match_oracle(mods, seed):
    """The same operations against element enumeration of the graphs."""
    rnd, a, b, (g1, g2, g3, h, e, d) = _random_setup(*mods, seed)
    gs1, gs2, gsh = oracle.graph_set(g1), oracle.graph_set(g2), oracle.graph_set(h)
    assert oracle.graph_set(endo_add(g1, g2, unchecked=True)) == oracle.endog_add(gs1, gs2, b)
    assert oracle.graph_set(endo_neg(g1)) == oracle.endog_neg(gs1, b)
    assert oracle.graph_set(endo_compose(h, g1, unchecked=True)) == oracle.endog_compose(gsh, gs1)
    for x, y in ((g1, g2), (g1, g3)):
        assert equivalent(x, y) == oracle.endog_equivalent(oracle.graph_set(x), oracle.graph_set(y), b)
    assert sharp_commutes(e, d) == oracle.endog_sharp(oracle.graph_set(e), oracle.graph_set(d), b)
    s = _random_subgroup(a, rnd)
    members = oracle.subgroup_set(s)
    assert oracle.subgroup_set(g1.apply_set(s)) == frozenset().union(*(ys for x, ys in gs1.items() if x in members))


def test_value_column_ops_make_few_hermite_forms(monkeypatch):
    """Negation and the fixture constructors write the graph down; a sum,
    a composite and the sharp test take one Hermite form each, in the
    target's rank."""
    a, b, c = (canonicalize_group(m) for m in ([2, 4], [2, 2, 4], [3, 9]))
    bound = everything(b)
    e1, e2, e3 = b.generators()
    g1 = Endogeny.from_pairs(a, b, [((1, 0), e1), ((0, 1), (0, 1, 1)), (a.zero, (0, 0, 2))], bound)
    g2 = Endogeny.from_pairs(a, b, [((1, 0), e2), ((0, 1), (1, 0, 3)), (a.zero, (1, 1, 0))], bound)
    h = Endogeny.from_pairs(
        b, c, [(e1, (1, 0)), (e2, (0, 3)), (e3, (2, 1))], everything(c)
    )
    e = Endogeny.from_pairs(b, b, [(e1, e2), (e2, e1), (e3, e3), (b.zero, e1)], bound)
    d = Endogeny.from_pairs(b, b, [(e1, e1), (e2, e2), (e3, (0, 0, 3)), (b.zero, (0, 0, 2))], bound)
    assert not any(x.kat().is_trivial for x in (g1, g2, h, e, d))
    assert g1.kat() != g2.kat() and e.kat() != d.kat()
    hom = random_homomorphism(a, b, SplitMix64(3))
    ranks = []
    real = groups.hnf_kernel
    monkeypatch.setattr(groups, "hnf_kernel", lambda mods, cols: ranks.append(len(mods)) or real(mods, cols))
    for op in (
        lambda: endo_neg(g1),
        lambda: Endogeny.from_morphism(hom, bound),
        lambda: Endogeny.identity(b, bound),
        lambda: Endogeny.zero(b, bound),
        lambda: blur(g1.kat(), bound),
    ):
        op()
        assert ranks == []
    for op, rank in (
        (lambda: endo_add(g1, g2), b.rank),
        (lambda: endo_compose(h, g1), c.rank),
        (lambda: sharp_commutes(e, d), b.rank),
    ):
        ranks.clear()
        op()
        assert ranks == [rank]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.tuples(st.sampled_from(SMALL_GROUPS), st.sampled_from(SMALL_GROUPS)), st.integers(0, 2**32), st.booleans())
def test_from_values_is_from_pairs(lattice_backend, mods, seed, torsion):
    """from_values gives from_pairs' graph on the pairs (e_j, v_j) and
    (0, k), k in K, whenever the values are well defined, and rejects them
    otherwise, when from_pairs' fibre over 0 is larger than K.  With
    ``torsion`` each value is a multiple that the generator's order kills,
    shifted by a member of K, so both cases occur often."""
    rnd = random.Random(seed)
    a, b = (canonicalize_group(list(m)) for m in mods)
    kat = _random_subgroup(b, rnd)
    members = list(kat.elements())
    exp = b.exponent
    vals = []
    for d in a.moduli:
        v = [rnd.randrange(-2 * m, 2 * m) for m in b.moduli]
        if torsion:
            v = [exp // math.gcd(exp, d) * x + k for x, k in zip(v, rnd.choice(members))]
        vals.append(v)
    bound = everything(b)
    pairs = list(zip(a.generators(), vals)) + [(a.zero, k) for k in kat.gen_columns()]
    ref = Endogeny.from_pairs(a, b, pairs, bound)
    if all(kat.contains([d * x for x in v]) for d, v in zip(a.moduli, vals)):
        got = Endogeny.from_values(a, kat, vals, bound)
        assert got._graph is None  # built when first read
        assert got.graph == ref.graph and got.kat() == ref.kat() == kat
        assert got == ref and hash(got) == hash(ref)
    else:
        with pytest.raises(InvalidInput, match="not well defined"):
            Endogeny.from_values(a, kat, vals, bound)
        assert kat.leq(ref.kat()) and ref.kat() != kat


def test_from_values_rejects_what_from_pairs_would_not_give(z4):
    """from_values rejects values that are not well defined modulo K, a
    wrong number of values, a value of the wrong length, a K beyond the
    bound and a bound on another group."""
    z2 = canonicalize_group([2])
    triv, half = Subgroup.trivial(z4), subgroup_from_generators(z4, [(2,)])
    wide = everything(z4)
    # 2 * 1 = 2 is not in 0, but it is in <2>
    with pytest.raises(InvalidInput, match="not well defined"):
        Endogeny.from_values(z2, triv, [(1,)], wide)
    e = Endogeny.from_values(z2, half, [(1,)], wide)
    assert e.graph == Endogeny.from_pairs(z2, z4, [((1,), (1,)), ((0,), (2,))], wide).graph
    for vals in ([], [(1,), (0,)]):
        with pytest.raises(InvalidInput, match="values for a source of rank 1"):
            Endogeny.from_values(z2, half, vals, wide)
    with pytest.raises(InvalidInput, match="length"):
        Endogeny.from_values(z2, half, [(1, 0)], wide)
    with pytest.raises(KatakernelBound):
        Endogeny.from_values(z2, half, [(1,)], NegligibilityBound.zero(z4))
    with pytest.raises(AmbientMismatch):
        Endogeny.from_values(z2, half, [(1,)], everything(z2))


def _same_graph(x, y):
    """The equality of relations before (K, V) keyed it: the same groups,
    graph and bound."""
    return x.source == y.source and x.target == y.target and x.graph == y.graph and x.bound == y.bound


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_three_groups, st.integers(0, 2**32))
def test_equality_and_hash_are_graph_equality(lattice_backend, mods, seed):
    """== and hash on (K, V) agree with graph equality across relations
    built by from_pairs, by from_values (with each value shifted inside
    K) and by the (K, V) operations, under two bounds."""
    rnd, a, b, (g1, g2, g3, h, e, d) = _random_setup(*mods, seed)
    members = list(g1.kat().elements())
    shifted = [[x + y for x, y in zip(v, rnd.choice(members))] for v in g1._values()]
    other = NegligibilityBound(b, Subgroup.full(b))
    rels = [
        g1, g2, g3,
        Endogeny.from_values(a, g1.kat(), shifted, g1.bound),
        Endogeny.from_values(a, g1.kat(), shifted, other),
        Endogeny.from_pairs(a, b, [(x, y) for x, y in zip(a.generators(), shifted)]
                            + [(a.zero, k) for k in g1.kat().gen_columns()], g1.bound),
        endo_add(g1, Endogeny.from_values(a, g1.kat(), [b.zero] * a.rank, g1.bound)),
        endo_neg(endo_neg(g1)),
        endo_add(g1, g2, unchecked=True),
        endo_add(g2, g1, unchecked=True),
    ]
    assert rels[3] == g1 and rels[5] == g1 and rels[6] == g1
    for x in rels:
        for y in rels:
            assert (x == y) == _same_graph(x, y)
            if x == y:
                assert hash(x) == hash(y)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_three_groups, st.integers(0, 2**32))
def test_preimage_matches_graph_reference(lattice_backend, mods, seed):
    """The (K, V) preimage equals the graph-based one on random subgroups
    of the target, on the katakernel and on the trivial and full
    subgroups, for relations built from pairs and from values."""
    rnd, a, b, (g1, g2, g3, h, e, d) = _random_setup(*mods, seed)
    vals = Endogeny.from_values(a, g2.kat(), g2._values(), g2.bound)
    for x in (g1, g2, g3, vals, endo_add(g1, g2, unchecked=True), h):
        tgt = x.target
        subs = [_random_subgroup(tgt, rnd, 3) for _ in range(3)]
        subs += [x.kat(), Subgroup.trivial(tgt), Subgroup.full(tgt)]
        for s in subs:
            assert x.preimage(s) == graph_preimage(x, s)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_three_groups, st.integers(0, 2**32))
def test_audit_containment_is_graph_containment(lattice_backend, mods, seed):
    """The audits' left-distributivity containment on (K, V), K_x <= K_y
    and V_x = V_y mod K_y, is graph containment, on relations that are
    and are not contained in each other."""
    _, a, b, (g1, g2, g3, h, e, d) = _random_setup(*mods, seed)
    lhs = endo_compose(endo_add(e, d, unchecked=True), e, unchecked=True)
    rhs = endo_add(endo_compose(e, e, unchecked=True), endo_compose(d, e, unchecked=True), unchecked=True)
    pairs = [(g1, g3), (g3, g1), (g1, g2), (g2, g3), (g1, g1), (e, d), (lhs, rhs), (rhs, lhs)]
    assert audits._contained(g1, g3)
    for x, y in pairs:
        assert audits._contained(x, y) == x.graph.leq(y.graph)
