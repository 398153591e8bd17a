"""Fixtures and seeded generators: validity and reproducibility."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from endokat import fp, jsonio
from endokat.endogeny import Endogeny, NegligibilityBound, sharp_commutes
from endokat.errors import InvalidInput, KatakernelBound
from endokat.rng import SplitMix64
from endokat.groups import AbelianGroup, Homomorphism, subgroup_from_generators
from endokat.instances import (
    _torsion_columns,
    fixture_nonliftable,
    matrix_bimodule,
    random_endogeny,
    random_homomorphism,
    split_bimodule,
)

from references import kernel, random_sharp_pair


def test_fixture_zF(z4):
    """The blur z_F, with graph A x F, is Endogeny.blur."""
    f = subgroup_from_generators(z4, [(2,)])
    e = Endogeny.blur(f, NegligibilityBound(z4, f))
    assert e.graph.order == 8
    assert e.kat() == f
    trivial = subgroup_from_generators(z4, [])
    zero = Endogeny.blur(trivial, NegligibilityBound(z4, trivial))
    assert zero.kat().is_trivial
    assert not any(zero.apply((1,)).rep)
    # explicit bound narrower than the blur is rejected
    with pytest.raises(KatakernelBound):
        Endogeny.blur(f, NegligibilityBound.zero(z4))


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
