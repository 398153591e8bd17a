"""Fixtures and seeded generators: validity and reproducibility."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from endokat import fp, groups, jsonio
from endokat.dimension import SplitGroup
from endokat.endogeny import Endogeny, NegligibilityBound, sharp_commutes
from endokat.errors import InvalidInput, KatakernelBound
from endokat.rng import SplitMix64
from endokat.groups import AbelianGroup, Homomorphism, Subgroup, canonicalize_group, subgroup_from_generators
from endokat.instances import (
    _morphism_endogeny,
    _torsion_columns,
    fixture_nonliftable,
    matrix_bimodule,
    polynomial,
    random_endogeny,
    random_group,
    random_homomorphism,
    random_subgroup_of,
    split_bimodule,
)

from references import (
    blur,
    kernel,
    pair_morphism_endogeny,
    pair_random_endogeny,
    pair_random_subgroup_of,
    random_sharp_pair,
    repeated_add_polynomial,
)

# (p, n, torsion) of split groups for the generator checks
SPLIT_SHAPES = ((2, 2, [3]), (3, 2, [2, 4]), (2, 3, [9]), (5, 1, [3, 6]), (2, 2, []), (3, 3, [4]))


def test_fixture_zF(z4):
    """The blur z_F, built as (F, 0), has graph A x F."""
    f = subgroup_from_generators(z4, [(2,)])
    e = blur(f, NegligibilityBound(z4, f))
    assert e.graph.order == 8
    assert e.kat() == f
    trivial = subgroup_from_generators(z4, [])
    zero = blur(trivial, NegligibilityBound(z4, trivial))
    assert zero.kat().is_trivial
    assert not any(zero.apply((1,)).rep)
    # explicit bound narrower than the blur is rejected
    with pytest.raises(KatakernelBound):
        blur(f, NegligibilityBound.zero(z4))


def test_fixture_nonliftable():
    a, g = fixture_nonliftable(2)
    assert a.moduli == (2, 4)
    assert g.kat() == subgroup_from_generators(a, [(0, 2)])
    a3, g3 = fixture_nonliftable(3)
    assert a3.moduli == (3, 9)
    assert g3.kat().order == 3


def test_random_endogeny_reproducible(z2z4):
    n_max = subgroup_from_generators(z2z4, [(0, 2)])
    assert random_endogeny(z2z4, n_max, 5) == random_endogeny(z2z4, n_max, 5)
    # distribution sanity: over 1000 seeds both blur levels occur
    kats = {random_endogeny(z2z4, n_max, s).kat().order for s in range(1000)}
    assert kats == {1, 2}
    for s in range(20):
        e = random_endogeny(z2z4, n_max, s)
        assert e.kat().leq(n_max)


def test_random_sharp_pair(z2z4):
    n_max = subgroup_from_generators(z2z4, [(0, 2)])
    for s in range(10):
        g, d = random_sharp_pair(z2z4, n_max, s)
        assert sharp_commutes(g, d)
    # blur zero reduces to commuting morphisms
    zero_bound = subgroup_from_generators(z2z4, [])
    g, d = random_sharp_pair(z2z4, zero_bound, 3)
    assert g.kat().is_trivial and d.kat().is_trivial
    assert sharp_commutes(g, d)


def test_matrix_bimodule_instances():
    inst = matrix_bimodule(2, 1, 2, 0)
    assert inst["n"] == 2 and inst["ground_truth"] == {"field_order": 2, "vs_dimension": 2}
    inst2 = matrix_bimodule(2, 2, 1, 0)
    assert inst2["ground_truth"]["field_order"] == 4
    with pytest.raises(InvalidInput):
        matrix_bimodule(2, 0, 1, 0)
    with pytest.raises(InvalidInput, match="not prime"):
        matrix_bimodule(4, 1, 2, 0)
    # deterministic bytes
    a = jsonio.dumps(jsonio.matrix_instance_to_json(matrix_bimodule(3, 1, 2, 9)))
    b = jsonio.dumps(jsonio.matrix_instance_to_json(matrix_bimodule(3, 1, 2, 9)))
    assert a == b


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lex_min_irreducible_matches_the_full_sweep(p):
    """Starting the sweep at constant term 1 for k >= 2 skips only
    polynomials that x divides; at k = 1 the first irreducible is x."""
    for k in range(1, 5):
        full = next(
            f for low in product(range(p), repeat=k) if fp.poly_is_irreducible(p, f := low + (1,))
        )
        assert fp.lex_min_irreducible(p, k) == full
    assert fp.lex_min_irreducible(p, 1) == (0, 1)


def test_split_bimodule_instances():
    sg, gset, dset, info = split_bimodule(2, 2, [3], 5)
    for g in gset:
        for d in dset:
            assert sharp_commutes(g, d)
    doc1 = jsonio.dumps(jsonio.split_instance_to_json((sg, gset, dset, info)))
    sg2, gset2, dset2, info2 = split_bimodule(2, 2, [3], 5)
    doc2 = jsonio.dumps(jsonio.split_instance_to_json((sg2, gset2, dset2, info2)))
    assert doc1 == doc2
    with pytest.raises(InvalidInput, match="rank"):
        split_bimodule(2, 0, [3], 5)
    # torsion-free reduces to plain morphisms
    sgf, gf, df, _ = split_bimodule(2, 2, [], 8)
    assert all(e.kat().is_trivial for e in gf)


def test_json_roundtrips(z2z4):
    n_max = subgroup_from_generators(z2z4, [(0, 2)])
    e = random_endogeny(z2z4, n_max, 12)
    doc = jsonio.endogeny_to_json(e)
    back = jsonio.endogeny_from_json(doc)
    assert back == e
    sg, gset, dset, info = split_bimodule(3, 1, [4], 2)
    doc2 = jsonio.split_instance_to_json((sg, gset, dset, info))
    sgb, gsb, dsb, _ = jsonio.split_instance_from_json(doc2)
    assert sgb == sg
    assert [g.graph.basis for g in gsb] == [g.graph.basis for g in gset]
    inst = matrix_bimodule(2, 2, 2, 1)
    doc3 = jsonio.matrix_instance_to_json(inst)
    back3 = jsonio.matrix_instance_from_json(doc3)
    assert back3["gamma_generators"] == tuple(inst["gamma_generators"]) or list(
        back3["gamma_generators"]
    ) == list(inst["gamma_generators"])


def _kernel_torsion_columns(b, d):
    """Reference: the d-torsion of b as the kernel of multiplication by d."""
    mult = Homomorphism(b, b, [[d if i == j else 0 for j in range(b.rank)] for i in range(b.rank)], _trusted=True)
    return kernel(mult).gen_columns()


def _reference_random_homomorphism(a, b, rng):
    """Reference: random_homomorphism drawing from the kernel route."""
    cols = []
    for d in a.moduli:
        y = b.zero
        for c in _kernel_torsion_columns(b, d):
            y = b.add(y, b.scalar_mul(rng.below(b.exponent), c))
        cols.append(y)
    return tuple(tuple(cols[j][i] for j in range(a.rank)) for i in range(b.rank))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 30), max_size=4),
    st.lists(st.integers(1, 60), max_size=3),
    st.integers(0, 2**64 - 1),
)
def test_torsion_columns_match_the_kernel(target, source, seed):
    """The written-down d-torsion generators are the kernel's, in its order,
    so random_homomorphism makes the same draws and the same maps."""
    a, b = AbelianGroup(source), AbelianGroup(target)
    for d in source + [1, 2, 12, 2**20]:
        assert _torsion_columns(b, d) == _kernel_torsion_columns(b, d)
    got = random_homomorphism(a, b, SplitMix64(seed)).matrix
    assert got == _reference_random_homomorphism(a, b, SplitMix64(seed))


def _same_endogeny(e, r):
    assert e.graph == r.graph and e.kat() == r.kat() and e._values() == r._values()


def test_value_built_generators_match_the_pair_references(lattice_backend):
    """random_subgroup_of, random_endogeny and _morphism_endogeny give the
    bases and graphs of the pair-based references they replaced, making the
    same draws, on 60 seeded groups of order <= 64 and on split groups,
    with either backend's lattice primitives (random_subgroup_of hands the
    kernel unreduced columns)."""
    for seed in range(60):
        g = random_group(seed, max_order=64)
        full = Subgroup.full(g)
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        n_max = random_subgroup_of(full, rng)
        assert n_max == pair_random_subgroup_of(full, ref)
        assert rng.state == ref.state
        assert random_subgroup_of(n_max, rng) == pair_random_subgroup_of(n_max, ref)
        for i in range(3):
            sub = SplitMix64(seed).fork(i).state
            _same_endogeny(random_endogeny(g, n_max, sub), pair_random_endogeny(g, n_max, sub))
    for p, n, torsion in SPLIT_SHAPES:
        sg = SplitGroup(p, n, canonicalize_group(torsion))
        for seed in range(8):
            rng = SplitMix64(seed)
            vmat = tuple(tuple(rng.below(p) for _ in range(n)) for _ in range(n))
            blur = random_subgroup_of(sg.t_part(), rng)
            _same_endogeny(
                _morphism_endogeny(sg, vmat, blur, sg.bound),
                pair_morphism_endogeny(sg, vmat, blur, sg.bound),
            )


def _product_group_calls(monkeypatch, group, build):
    """How many kernel calls ``build()`` makes on the moduli of group x group."""
    calls = []
    hnf = groups.hnf_kernel
    monkeypatch.setattr(groups, "hnf_kernel", lambda mods, cols: calls.append(tuple(mods)) or hnf(mods, cols))
    build()
    monkeypatch.setattr(groups, "hnf_kernel", hnf)
    return calls.count(group.moduli * 2)


def test_generators_form_no_hermite_form_in_the_product_group(monkeypatch):
    """random_endogeny and split_bimodule build their relations from (K, V)
    and make no kernel call on the product group's moduli; the pair-based
    references make one per relation."""
    for seed in range(20):
        g = random_group(seed, max_order=64)
        n_max = random_subgroup_of(Subgroup.full(g), SplitMix64(seed))
        assert _product_group_calls(monkeypatch, g, lambda: random_endogeny(g, n_max, seed)) == 0
        assert _product_group_calls(monkeypatch, g, lambda: pair_random_endogeny(g, n_max, seed)) == 1
    for p, n, torsion in SPLIT_SHAPES:
        amb = SplitGroup(p, n, canonicalize_group(torsion)).ambient
        for seed in range(4):
            for plant in (False, True) if n > 1 else (False,):
                assert _product_group_calls(monkeypatch, amb, lambda: split_bimodule(p, n, torsion, seed, plant)) == 0


def test_split_group_builds_its_t_part_once(monkeypatch):
    """SplitGroup builds T once; t_part(), split_bimodule and
    subgroup_from_v_subspace read it without a kernel call for T."""
    sg = SplitGroup(2, 2, canonicalize_group([3]))
    assert sg.t_part() is sg.bound.n_max
    assert sg.t_part() == Subgroup.from_generators(sg.ambient, [(0, 0, 1)])
    calls = []
    hnf = groups.hnf_kernel
    monkeypatch.setattr(groups, "hnf_kernel", lambda mods, cols: calls.append(cols) or hnf(mods, cols))
    assert sg.subgroup_from_v_subspace([(1, 0)]) == Subgroup.from_generators(sg.ambient, [(1, 0, 0), (0, 0, 1)])
    assert len(calls) == 2  # the subgroup and the reference, not T


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.integers(0, 4), max_size=5))
def test_polynomial_matches_repeated_add(seed, coeffs):
    """polynomial's one summed matrix equals the repeated add and compose
    of its reference, on random endomorphisms of groups of order <= 64."""
    rng = SplitMix64(seed)
    g = random_group(rng.next_u64(), max_order=64)
    base = random_homomorphism(g, g, rng)
    got = polynomial(base, coeffs)
    assert got == repeated_add_polynomial(base, coeffs)
    assert got.matrix == Homomorphism(g, g, got.matrix).matrix  # reduced and well defined
