"""The relation calculus: validation, operations, laws, invariance."""

import pytest
from hypothesis import given, settings, strategies as st

from endokat import config, oracle
from endokat.endogeny import (
    Endogeny,
    EndogenySet,
    NegligibilityBound,
    bikat,
    endo_add,
    endo_compose,
    endo_neg,
    endo_sub_raw,
    endogeny_validate,
    equivalent,
    fully_invariant,
    global_kat,
    induced_action,
    preceq,
    prering_closure,
    restrict,
    sharp_commutes,
    weakly_invariant,
)
from endokat.errors import (
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
    subgroup_from_generators,
    subgroup_isomorphism,
)
from endokat.instances import fixture_nonliftable, random_endogeny, random_sharp_pair


def bound_of(group, gens):
    return NegligibilityBound(group, subgroup_from_generators(group, gens))


def test_validation(z4):
    nb0 = NegligibilityBound.zero(z4)
    e = endogeny_validate(z4, z4, [((1,), (1,))], nb0)
    assert e.kat().is_trivial and e.is_morphism()
    f = subgroup_from_generators(z4, [(2,)])
    zf = Endogeny.blur(f, NegligibilityBound(z4, f))
    assert zf.kat() == f
    assert zf.graph.order == 8
    with pytest.raises(NotGlobal):
        endogeny_validate(z4, z4, [((2,), (1,))], nb0)
    with pytest.raises(KatakernelBound):
        Endogeny.blur(f, nb0)
    with pytest.raises(InvalidInput):
        Endogeny.from_pairs(z4, z4, [((1, 0), (1,))], nb0)  # source pair too long
    with pytest.raises(InvalidInput):
        Endogeny.from_pairs(z4, z4, [((1,), ())], nb0)  # target pair too short


def test_kat_ker_im(z4):
    one = Endogeny.identity(z4)
    assert one.kat().is_trivial and one.ker().is_trivial and one.im().is_full
    f = subgroup_from_generators(z4, [(2,)])
    zf = Endogeny.blur(f, NegligibilityBound(z4, f))
    assert zf.kat() == f and zf.im() == f and zf.ker().is_full
    # the nonliftable fixture's structure
    a, g = fixture_nonliftable(2)
    fa = subgroup_from_generators(a, [(0, 2)])
    assert g.kat() == fa and g.ker() == fa and g.im().is_full
    # ker = preimage of kat by construction
    assert g.ker() == g.preimage(g.kat())


def test_apply(z4):
    one = Endogeny.identity(z4)
    assert one.apply((3,)).rep == (3,)
    f = subgroup_from_generators(z4, [(2,)])
    zf = Endogeny.blur(f, NegligibilityBound(z4, f))
    for x in z4.elements():
        c = zf.apply(x)
        assert sorted(c.elements()) == sorted(f.elements())
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
    zf = Endogeny.blur(f, nb)
    s = subgroup_from_generators(z2z4, [(1, 0)])
    assert zf.apply_set(s) == f


def test_add_compose_laws(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    one = Endogeny.identity(z4, nb)
    zero = Endogeny.zero(z4, nb)
    zf = Endogeny.blur(f, nb)
    g = endo_add(one, zf)
    assert endo_add(g, zero) == g
    assert endo_compose(one, g) == g and endo_compose(g, one) == g
    # gamma - gamma = blur by its katakernel, literally A x kat
    d = endo_sub_raw(g, g)
    assert d.graph == zf.graph
    assert oracle.graph_set(d) == frozenset(
        (a, b) for a in z4.elements() for b in f.elements()
    )
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
    zf = Endogeny.blur(f, nbf)
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
    zf = Endogeny.blur(f, nb)
    assert equivalent(zf, zero)
    assert equivalent(one, one)
    assert not equivalent(one, zero)
    # the nonliftable fixture is equivalent to no endomorphism (both p)
    for p in (2, 3):
        a, g = fixture_nonliftable(p)
        homs = oracle.enumerate_homomorphisms(a, a)
        assert not any(
            equivalent(g, Endogeny.from_morphism(h, g.bound)) for h in homs
        )


def test_preceq(z4, z2z2):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    m = Endogeny.from_morphism(Homomorphism(z4, z4, [[1]]), nb)
    mf = endo_add(m, Endogeny.blur(f, nb))
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
    zf = Endogeny.blur(f, nb)
    swap = Endogeny.from_morphism(Homomorphism(z2z2, z2z2, [[0, 1], [1, 0]]), nb)
    one = Endogeny.identity(z2z2, nb)
    assert sharp_commutes(zf, one)
    assert not sharp_commutes(zf, swap)
    # oracle agrees, and the offending image is F + swap[F] (the whole group)
    gs, ds = oracle.graph_set(zf), oracle.graph_set(swap)
    assert not oracle.endog_sharp(gs, ds, z2z2)
    sigma = endo_sub_raw(
        endo_compose(zf, swap, unchecked=True), endo_compose(swap, zf, unchecked=True)
    )
    swap_f = subgroup_from_generators(z2z2, [swap.apply(c).rep for c in f.gen_columns()])
    assert sigma.im() == (f | swap_f)
    assert sigma.im().is_full
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
    zf = Endogeny.blur(f, nb)
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
        from endokat.groups import all_subgroups

        subs = all_subgroups(g)
        for pairs, fset in oracle.enumerate_endogeny_pairs(g, n_max):
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
    zf = Endogeny.blur(f, nb)
    rz = restrict(zf, f)  # z_F restricted to B is the blur by F cap B
    assert rz.kat().order == 2
    assert rz.graph == Endogeny.blur(Subgroup.full(rz.source), rz.bound).graph
    # same shape on a proper weakly invariant subgroup of [2,4]
    amb24 = canonicalize_group([2, 4])
    f24 = subgroup_from_generators(amb24, [(0, 1)])
    b24 = subgroup_from_generators(amb24, [(1, 2)])
    z24 = Endogeny.blur(f24, NegligibilityBound(amb24, f24))
    assert weakly_invariant(b24, z24)
    r24 = restrict(z24, b24)
    _, to_b, _ = subgroup_isomorphism(b24)
    expected = Subgroup.from_generators(
        r24.source, [to_b(c) for c in (f24 & b24).gen_columns()]
    )
    assert r24.graph == Endogeny.blur(expected, r24.bound).graph
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


def test_prering_closure(z2z2, z4, monkeypatch):
    nb = NegligibilityBound.zero(z2z2)
    one = Endogeny.identity(z2z2, nb)
    cl = prering_closure(EndogenySet(z2z2, nb, [one]))
    assert len(cl) == 2  # 1 + 1 = 0 on exponent-2 groups
    f = subgroup_from_generators(z4, [(2,)])
    nbf = NegligibilityBound(z4, f)
    zf = Endogeny.blur(f, nbf)
    cl2 = prering_closure(EndogenySet(z4, nbf, [zf]))
    keys = {e.graph.basis for e in cl2}
    assert zf.graph.basis in keys
    assert endo_add(Endogeny.identity(z4, nbf), zf).graph.basis in keys
    # empty generators: the image of the integers
    cl3 = prering_closure(EndogenySet(z4, nbf, []))
    assert len(cl3) == 4  # multiplications by 0..3
    monkeypatch.setattr(config, "CLOSURE_CAP", 2)
    with pytest.raises(CapExceeded):
        prering_closure(EndogenySet(z4, nbf, [zf]))


def test_global_kat(z4):
    f = subgroup_from_generators(z4, [(2,)])
    nb = NegligibilityBound(z4, f)
    m = Endogeny.from_morphism(Homomorphism(z4, z4, [[3]]), nb)
    assert global_kat(EndogenySet(z4, nb, [m])).is_trivial
    zf = Endogeny.blur(f, nb)
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
