"""The enumeration reference itself, and core/oracle agreement."""

import ast
import builtins
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from endokat import config, oracle
from endokat.endogeny import Endogeny, EndogenySet, NegligibilityBound, endo_add, endo_compose, global_kat
from endokat.errors import CapExceeded, KatakernelBound
from endokat.groups import (
    AbelianGroup,
    Subgroup,
    canonicalize_group,
    quotient,
    subgroup_from_generators,
    subgroup_intersect,
    subgroup_sum,
)
from endokat.instances import random_endogeny
from endokat.rng import SplitMix64

import oracle_enumeration
from oracle_enumeration import (
    EnumeratedGroup,
    coset_representatives,
    count_endogenies,
    endog_ker,
    enumerate_endogeny_pairs,
    enumerate_homomorphisms,
    naive_quotient_factors,
    unpack,
)
from references import all_abelian_groups, all_subgroups, coset_elements


W = oracle.WIDTH


def _pack_set(pk, elems):
    return frozenset(map(pk.pack, elems))


def _pairs(rel):
    """The pair set of a fibre map."""
    return frozenset((a, b) for a, s in rel.items() for b in s)


def _unpack_rel(rel, pk):
    return frozenset((unpack(pk, a), unpack(pk, b)) for a, b in _pairs(rel))


def test_dense_group_basics():
    g = canonicalize_group([4])
    dg = EnumeratedGroup(g)
    pk = dg.packing
    assert [unpack(pk, x) for x in dg.elements] == [(0,), (1,), (2,), (3,)]
    assert dg.close([pk.pack((2,))]) == _pack_set(pk, [(0,), (2,)])
    assert [len(s) for s in dg.all_subgroup_sets()] == [1, 2, 4]
    triv = canonicalize_group([1])
    assert EnumeratedGroup(triv).all_subgroup_sets() == [frozenset({oracle.packing(triv).pack(triv.zero)})]


def test_cap_is_hard(monkeypatch):
    monkeypatch.setattr(config, "ORACLE_CAP", 8)
    with pytest.raises(CapExceeded, match=r"^group order 64 above the oracle cap ORACLE_CAP = 8$"):
        oracle.DenseGroup(canonicalize_group([2, 4, 8]))
    with pytest.raises(CapExceeded, match=r"^group order 16 above the oracle cap ORACLE_CAP = 8$"):
        all_subgroups(canonicalize_group([2, 8]))


def test_graph_set_is_guarded(monkeypatch):
    g = canonicalize_group([2, 4])
    e = random_endogeny(g, subgroup_from_generators(g, [(0, 2)]), 3)
    monkeypatch.setattr(config, "ORACLE_CAP", 4)
    with pytest.raises(CapExceeded):
        oracle.graph_set(e)


def test_packing_never_wraps(monkeypatch):
    """Every modulus the guard admits fits a field; a wider one raises."""
    z = AbelianGroup([config.ORACLE_CAP])
    pk = oracle.packing(z)
    top = (config.ORACLE_CAP - 1,)
    assert unpack(pk, pk.pack(top)) == top
    assert unpack(pk, pk.add(pk.pack(top), pk.pack(top))) == z.add(top, top)
    assert unpack(pk, pk.neg(pk.pack((1,)))) == top
    monkeypatch.setattr(config, "ORACLE_CAP", 2 * (1 << W))
    wide = (1 << W) + 1
    with pytest.raises(CapExceeded, match=rf"^modulus {wide} above 2\*\*WIDTH = {1 << W} does not fit"):
        oracle.packing(AbelianGroup([wide]))


@st.composite
def packed_pairs(draw):
    """Moduli including 1, 2**W - 1 and 2**W, and two elements."""
    special = st.sampled_from([1, 2, (1 << W) - 1, 1 << W])
    mods = draw(st.lists(st.one_of(special, st.integers(1, 1 << W)), max_size=4))
    elem = st.tuples(*[st.integers(0, m - 1) for m in mods])
    return AbelianGroup(mods), draw(elem), draw(elem)


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packing_matches_tuples(data):
    g, a, b = data
    # Past the cap as a whole group: packing needs only each modulus to fit.
    pk = oracle._packing(g.moduli)
    x, y = pk.pack(a), pk.pack(b)
    assert unpack(pk, x) == a and unpack(pk, y) == b
    assert unpack(pk, pk.add(x, y)) == g.add(a, b)
    assert unpack(pk, pk.neg(x)) == g.neg(a)
    assert (x < y) == (a < b)
    assert (x == y) == (a == b)


def test_order_independence_of_enumeration():
    g = canonicalize_group([2, 4])
    dg = EnumeratedGroup(g)
    shuffled = EnumeratedGroup(g)
    rnd = random.Random(5)
    rnd.shuffle(shuffled.elements)
    gens = [dg.packing.pack(v) for v in [(1, 1), (0, 2)]]
    assert dg.close(gens) == shuffled.close(gens)
    assert set(dg.all_subgroup_sets()) == set(shuffled.all_subgroup_sets())


# ---------------------------------------------------------------------------
# Test-only references on element tuples.


def _close_fixpoint(g, gens):
    """Reference closure: add every generator to every new element until
    nothing new appears."""
    have = {g.zero}
    frontier = [g.zero]
    gens = [g.reduce(x) for x in gens]
    while frontier:
        nxt = []
        for a in frontier:
            for x in gens:
                b = g.add(a, x)
                if b not in have:
                    have.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(have)


def _coset_representatives_by_min(g, f_set):
    """Reference: keep a when min(a + F) has not been seen before."""
    reps, seen = [], set()
    for a in sorted(Subgroup.full(g).elements()):
        key = min(g.add(a, x) for x in f_set)
        if key not in seen:
            seen.add(key)
            reps.append(a)
    return reps


def _coset_representatives_tuples(g, f_set):
    """Reference: the coset sweep on tuples."""
    reps = []
    covered = set()
    for a in sorted(Subgroup.full(g).elements()):
        if a not in covered:
            reps.append(a)
            covered.update(g.add(a, h) for h in f_set)
    return reps


def _graph_set_tuples(e):
    r1 = e.source.rank
    return frozenset((v[:r1], v[r1:]) for v in e.graph.elements())


def _endog_add_tuples(graph1, graph2, tgt):
    b2 = {}
    for a, y in graph2:
        b2.setdefault(a, set()).add(y)
    return frozenset((a, tgt.add(x, y)) for a, x in graph1 for y in b2.get(a, ()))


def _endog_compose_tuples(graph1, graph2):
    """Reference: graph1 after graph2, the literal join over b."""
    b1 = {}
    for b, c in graph1:
        b1.setdefault(b, set()).add(c)
    return frozenset((a, c) for a, b in graph2 for c in b1.get(b, ()))


def _endog_kat_tuples(graph, src):
    return frozenset(b for a, b in graph if a == src.zero)


def _endog_equivalent_tuples(graph1, graph2, src, tgt):
    f = _close_fixpoint(tgt, _endog_kat_tuples(graph1, src) | _endog_kat_tuples(graph2, src))
    blur1 = frozenset((a, tgt.add(b, x)) for (a, b) in graph1 for x in f)
    blur2 = frozenset((a, tgt.add(b, x)) for (a, b) in graph2 for x in f)
    return blur1 == blur2


def _endog_sharp_tuples(graph_g, graph_d, g):
    gd = _endog_compose_tuples(graph_g, graph_d)
    dg = _endog_compose_tuples(graph_d, graph_g)
    diff = _endog_add_tuples(gd, frozenset((a, g.neg(b)) for (a, b) in dg), g)
    bound = _close_fixpoint(g, _endog_kat_tuples(graph_g, g) | _endog_kat_tuples(graph_d, g))
    return {b for (_, b) in diff} <= bound


@st.composite
def small_group_gens(draw):
    """A group of order <= 256 (moduli not necessarily a divisibility chain)
    and a few integer generator vectors, repeats and unreduced entries
    included."""
    mods = draw(st.lists(st.integers(1, 16), max_size=4))
    order = 1
    for m in mods:
        order *= m
    assume(order <= 256)
    vec = st.tuples(*[st.integers(-20, 20) for _ in mods])
    gens = draw(st.lists(vec, max_size=5))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
    return AbelianGroup(mods), gens


@settings(max_examples=150, deadline=None)
@given(small_group_gens())
def test_close_matches_fixpoint(data):
    g, gens = data
    dg = oracle.DenseGroup(g)
    assert dg.close(map(dg.packing.pack, gens)) == _pack_set(dg.packing, _close_fixpoint(g, gens))


@settings(max_examples=100, deadline=None)
@given(small_group_gens())
def test_coset_representatives_match_min_keys(data):
    g, gens = data
    dg = EnumeratedGroup(g)
    pk = dg.packing
    f = dg.close(map(pk.pack, gens))
    reps = [unpack(pk, x) for x in coset_representatives(dg, f)]
    f_tuples = [unpack(pk, x) for x in f]
    assert reps == _coset_representatives_tuples(g, f_tuples)
    assert reps == _coset_representatives_by_min(g, f_tuples)
    assert len(reps) * len(f) == g.order


@st.composite
def relation_pairs(draw):
    """A canonical group of order <= 64, a negligibility bound spanned by
    one element or all of G (fibres as large as G), and two seeded
    relations under it."""
    mods = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    g = canonicalize_group(mods)
    assume(g.order <= 64)
    if draw(st.booleans()):
        n_max = Subgroup.full(g)
    else:
        x = tuple(draw(st.integers(0, m - 1)) for m in g.moduli)
        n_max = subgroup_from_generators(g, [x])
    seeds = draw(st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)))
    return g, random_endogeny(g, n_max, seeds[0]), random_endogeny(g, n_max, seeds[1])


@settings(max_examples=60, deadline=None)
@given(relation_pairs())
def test_relation_ops_match_tuple_references(data):
    g, e1, e2 = data
    pk = oracle.packing(g)
    s1, s2 = oracle.graph_set(e1), oracle.graph_set(e2)
    t1, t2 = _graph_set_tuples(e1), _graph_set_tuples(e2)
    assert _unpack_rel(s1, pk) == t1 and _unpack_rel(s2, pk) == t2
    assert _unpack_rel(oracle.endog_add(s1, s2, g), pk) == _endog_add_tuples(t1, t2, g)
    assert _unpack_rel(oracle.endog_compose(s1, s2), pk) == _endog_compose_tuples(t1, t2)
    assert _unpack_rel(oracle.endog_neg(s1, g), pk) == frozenset((a, g.neg(b)) for a, b in t1)
    assert oracle.endog_equivalent(s1, s2, g) == _endog_equivalent_tuples(t1, t2, g, g)
    assert oracle.endog_sharp(s1, s2, g) == _endog_sharp_tuples(t1, t2, g)


def test_endog_add_adds_each_coset_once(monkeypatch):
    """With both katakernels all of G = Z/4 + Z/8, the literal join makes
    |G|^3 additions; adding each coset once makes at most two per pair of
    the result.  Every packed addition counts, one per element that goes
    through the batch ``translate``."""
    g = canonicalize_group([4, 8])
    e1 = random_endogeny(g, Subgroup.full(g), 5)
    e2 = random_endogeny(g, Subgroup.full(g), 105)
    s1, s2 = oracle.graph_set(e1), oracle.graph_set(e2)
    assert len(oracle.endog_kat(s1)) == len(oracle.endog_kat(s2)) == g.order
    calls = 0
    add, translate = oracle._Packing.add, oracle._Packing.translate

    def counted_add(self, x, y):
        nonlocal calls
        calls += 1
        return add(self, x, y)

    def counted_translate(self, xs, y):
        nonlocal calls
        out = translate(self, xs, y)
        calls += len(out)
        return out

    monkeypatch.setattr(oracle._Packing, "add", counted_add)
    monkeypatch.setattr(oracle._Packing, "translate", counted_translate)
    pairs = len(_pairs(oracle.endog_add(s1, s2, g)))
    assert pairs == g.order**2
    assert calls <= 2 * pairs


def _relation(src, tgt, gens):
    """A relation given by integer generator columns of src x tgt, read
    the way graph_set reads a core endogeny."""
    return SimpleNamespace(source=src, target=tgt, graph=SimpleNamespace(gen_columns=lambda: list(gens)))


def _split_close(src, tgt, gens):
    """Reference: close the generators in src x tgt, then split the span
    into fibres element by element."""
    dg = oracle.DenseGroup(AbelianGroup(src.moduli + tgt.moduli))
    shift = (W + 1) * tgt.rank
    fibres = {}
    for v in dg.close(map(dg.packing.pack, gens)):
        fibres.setdefault(v >> shift, set()).add(v & ((1 << shift) - 1))
    return {a: frozenset(bs) for a, bs in fibres.items()}


@st.composite
def generated_relations(draw):
    """Groups G and H (moduli not necessarily a divisibility chain) and
    integer generators of G x H: repeats, zero parts and unreduced entries
    included, so the domain need not be all of G."""
    src, tgt = (AbelianGroup(draw(st.lists(st.integers(1, 8), max_size=2))) for _ in range(2))
    assume(src.order * tgt.order <= 256)
    vec = st.tuples(*[st.integers(-9, 9) for _ in src.moduli + tgt.moduli])
    gens = draw(st.lists(vec, max_size=4))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
    return src, tgt, gens


_Z2, _Z4 = AbelianGroup([2]), AbelianGroup([4])
_Z2Z2 = AbelianGroup([2, 2])


@settings(max_examples=200, deadline=None)
@given(generated_relations())
# Generator lists that core Hermite bases never produce.  The katakernel
# {0, 2} appears only where the walk of (1, 1) closes.
@example((_Z2, _Z4, [(1, 1)]))
# Repeated and redundant generators.
@example((_Z4, _Z4, [(1, 1), (1, 1), (2, 2), (3, 3), (0, 0)]))
# Generators over an a already in the domain, one of them a = 0.
@example((_Z4, _Z2Z2, [(1, 0, 0), (2, 0, 1), (0, 1, 0)]))
@example((_Z4, _Z2Z2, [(2, 1, 1), (1, 0, 0), (3, 0, 1)]))
@example((_Z2, _Z4, []))
def test_graph_set_walk_matches_split_close(data):
    """The fibre-aware walk equals the literal split of the closed span,
    and its fibres over one coset of the kernel are one shared set."""
    src, tgt, gens = data
    got = oracle.graph_set(_relation(src, tgt, gens))
    assert got == _split_close(src, tgt, gens)
    # One fibre object per coset of the kernel Z = {a : S_a meets K}.
    kat = oracle.endog_kat(got)
    z = sum(not kat.isdisjoint(s) for s in got.values())
    assert len({id(s) for s in got.values()}) == len(got) // z


@pytest.fixture
def built_frozensets(monkeypatch):
    """Counts the frozensets the oracle's code builds from an iterable
    (``frozenset()``, the empty default of ``endog_apply``, is not work);
    ``counts["n"]`` is reset by the caller."""
    counts = {"n": 0}

    def counted(*args):
        counts["n"] += bool(args)
        return builtins.frozenset(*args)

    monkeypatch.setattr(oracle, "frozenset", counted, raising=False)
    return counts


def test_oracle_work_is_per_distinct_fibre(monkeypatch, built_frozensets):
    """On relations with |K| = |G| / 2, graph_set translates at most
    |G| + |H| packed elements (the literal split closes |G| |K| pairs) and
    builds one fibre per coset of the kernel Z; each join builds one
    frozenset per distinct fibre (pair) of its inputs, not one per a."""
    g = canonicalize_group([2, 4])
    n_max = subgroup_from_generators(g, [(0, 1)])
    e1, e2 = (random_endogeny(g, n_max, seed) for seed in (0, 3))
    translated = 0
    translate = oracle._Packing.translate

    def counted_translate(self, xs, y):
        nonlocal translated
        out = translate(self, xs, y)
        translated += len(out)
        return out

    monkeypatch.setattr(oracle._Packing, "translate", counted_translate)
    rels = []
    for e in (e1, e2):
        translated = 0
        rel = oracle.graph_set(e)
        kat = oracle.endog_kat(rel)
        assert len(kat) == g.order // 2
        cosets_of_z = len(rel) // sum(not kat.isdisjoint(s) for s in rel.values())
        assert cosets_of_z < g.order
        assert translated <= 2 * g.order
        assert len({id(s) for s in rel.values()}) == cosets_of_z
        rels.append(rel)
    s1, s2 = rels

    def builds(op, *args):
        built_frozensets["n"] = 0
        op(*args)
        return built_frozensets["n"]

    def distinct(*rs):
        return len({tuple(r[a] for r in rs) for a in rs[0]})

    assert builds(oracle.endog_add, s1, s2, g) == distinct(s1, s2) < g.order
    assert builds(oracle.endog_compose, s1, s2) == distinct(s2) < g.order
    assert builds(oracle.endog_neg, s1, g) == distinct(s1) < g.order
    blurred = len(set(s1.values()) | set(s2.values()))
    closing_f = builds(oracle.DenseGroup(g).close, oracle.endog_kat(s1) | oracle.endog_kat(s2))
    assert builds(oracle.endog_equivalent, s1, s2, g) == blurred + closing_f
    assert blurred < 2 * g.order


@settings(max_examples=60, deadline=None)
@given(relation_pairs())
def test_fibre_maps_match_pair_sets(data):
    """No fibre map holds an empty fibre, a global endogeny's graph has a
    fibre over every element of G, and two fibre maps are equal exactly
    when their pair sets are."""
    g, e1, e2 = data
    s1, s2 = oracle.graph_set(e1), oracle.graph_set(e2)
    assert s1.keys() == s2.keys() == set(EnumeratedGroup(g).elements)
    # Defined over the katakernel only: composing it after s1 leaves the
    # fibres over a outside ker s1 empty.
    part = {a: s for a, s in s2.items() if a in oracle.endog_kat(s1)}
    after = oracle.endog_compose(part, s1)
    assert after.keys() == endog_ker(s1)
    rels = [
        s1, s2, part, after,
        oracle.graph_set(endo_add(e1, e2, unchecked=True)),
        oracle.endog_add(s1, s2, g), oracle.endog_add(s2, s1, g),
        oracle.endog_compose(s1, s2), oracle.endog_compose(s2, s1),
        oracle.endog_neg(s1, g), oracle.endog_neg(oracle.endog_neg(s1, g), g),
    ]
    for r in rels:
        assert all(r.values())
    for r1 in rels:
        for r2 in rels:
            assert (r1 == r2) == (_pairs(r1) == _pairs(r2))


def _oracle_prering_closure(g, gens):
    """0, 1, -1 and the fibre maps ``gens``, closed under the oracle's
    sum, negation and composite."""
    elems = EnumeratedGroup(g).elements
    one = {a: frozenset([a]) for a in elems}
    members = {}
    fresh = []

    def push(r):
        key = frozenset(r.items())
        if key not in members:
            members[key] = r
            fresh.append(r)

    for r in [{a: frozenset([0]) for a in elems}, one, oracle.endog_neg(one, g), *gens]:
        push(r)
    while fresh:
        frontier, fresh = fresh, []
        for r in frontier:
            push(oracle.endog_neg(r, g))
        current = list(members.values())
        for r in frontier:
            for s in current:
                push(oracle.endog_add(r, s, g))
                push(oracle.endog_compose(r, s))
                push(oracle.endog_compose(s, r))
    return list(members.values())


def test_global_kat_matches_enumerated_closure():
    """global_kat is a fixpoint over the generators; by definition it is
    the subgroup generated by the katakernels of every member of the
    prering closure.  The closure is enumerated here with the oracle
    alone, on every group of order <= 16, under the bound G and a proper
    subgroup; where the fixpoint escapes the bound, so does the union."""
    for g in all_abelian_groups(16):
        proper = [s for s in all_subgroups(g) if s.order < g.order]
        bounds = [Subgroup.full(g)] + ([proper[len(proper) // 2]] if proper else [])
        for n_max in bounds:
            e = random_endogeny(g, n_max, 11 * g.order + n_max.order)
            closure = _oracle_prering_closure(g, [oracle.graph_set(e)])
            kat = oracle.DenseGroup(g).close(frozenset().union(*map(oracle.endog_kat, closure)))
            try:
                want = oracle.subgroup_set(global_kat(EndogenySet(g, e.bound, [e])))
            except KatakernelBound:
                assert not kat <= oracle.subgroup_set(n_max)
            else:
                assert kat == want


def test_oracle_imports_nothing_from_the_lattice_core():
    """The oracle cross-checks the lattice core, so it may not borrow from
    it (_kernel, endogeny, snf, dimension): its only package imports are
    config, errors and these groups names, and the enumerations kept
    beside it in the tests import no core module either."""
    core = {"_kernel", "endogeny", "snf", "dimension"}
    enumeration = ast.parse(Path(oracle_enumeration.__file__).read_text())
    names = set()
    for node in ast.walk(enumeration):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert not node.level
            names |= {f"{node.module}.{a.name}" for a in node.names}
    assert {"endokat.oracle.DenseGroup", "endokat.groups.AbelianGroup"} <= names
    assert not [n for n in names if n.split(".")[0] == "endokat" and core & set(n.split(".")[1:2])]
    allowed = {
        ("", "config"),
        ("errors", "CapExceeded"),
        ("groups", "AbelianGroup"),
        ("groups", "Subgroup"),
    }
    tree = ast.parse(Path(oracle.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "endokat" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                found |= {(node.module or "", a.name) for a in node.names}
            else:
                assert node.module.split(".")[0] != "endokat"
    assert found <= allowed, found - allowed
    # From a core Endogeny, graph_set reads only source, target and
    # graph.gen_columns(): never the core's own (K, V) claim.
    parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
    attrs = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    forbidden = {"kat", "_kat", "_values", "_vals"}
    assert not [n.attr for n in attrs if n.attr in forbidden or n.attr.startswith("apply")]
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "graph_set")
    e = fn.args.args[0].arg
    uses = [n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == e]
    reads = set()
    for n in uses:
        read = parent[n]
        assert isinstance(read, ast.Attribute), ast.unparse(read)
        if read.attr == "graph":
            read = parent[read]
            assert isinstance(read, ast.Attribute) and isinstance(parent[read], ast.Call), ast.unparse(read)
        reads.add(ast.unparse(read))
    assert reads == {f"{e}.source", f"{e}.target", f"{e}.graph.gen_columns"}


def test_hom_counts():
    z2 = canonicalize_group([2])
    z4 = canonicalize_group([4])
    assert len(enumerate_homomorphisms(z2, z4)) == 2
    assert len(enumerate_homomorphisms(z4, z2)) == 2
    z2z4 = canonicalize_group([2, 4])
    assert len(enumerate_homomorphisms(z2z4, z2z4)) == 32


def test_subgroup_ops_agree_small():
    """Exhaustive agreement on the lattice of every group of order <= 24."""
    for mods in [(2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (2, 2, 2),
                 (9,), (3, 3), (12,), (2, 6), (16,), (2, 8), (4, 4),
                 (2, 2, 4), (18,), (24,), (2, 12)]:
        g = canonicalize_group(list(mods))
        dg = EnumeratedGroup(g)
        dense = set(dg.all_subgroup_sets())
        lattice = {oracle.subgroup_set(s) for s in all_subgroups(g)}
        assert dense == lattice
        subs = all_subgroups(g)
        rng = SplitMix64(g.order)
        for _ in range(6):
            h1 = subs[rng.below(len(subs))]
            h2 = subs[rng.below(len(subs))]
            s1, s2 = oracle.subgroup_set(h1), oracle.subgroup_set(h2)
            assert oracle.subgroup_set(subgroup_sum(h1, h2)) == dg.close(s1 | s2)
            assert oracle.subgroup_set(subgroup_intersect(h1, h2)) == (s1 & s2)
            e = dg.elements[rng.below(len(dg.elements))]
            assert h1.contains(unpack(dg.packing, e)) == (e in s1)
            assert h1.order == len(s1)


def test_endogeny_ops_agree():
    g = canonicalize_group([2, 4])
    pk = oracle.packing(g)
    n_max = subgroup_from_generators(g, [(0, 2)])
    nb = NegligibilityBound(g, n_max)
    for seed in range(12):
        e1 = random_endogeny(g, n_max, seed)
        e2 = random_endogeny(g, n_max, seed + 100)
        s1, s2 = oracle.graph_set(e1), oracle.graph_set(e2)
        assert oracle.endog_add(s1, s2, g) == oracle.graph_set(
            endo_add(e1, e2, unchecked=True)
        )
        assert oracle.endog_compose(s1, s2) == oracle.graph_set(
            endo_compose(e1, e2, unchecked=True)
        )
        assert oracle.endog_kat(s1) == oracle.subgroup_set(e1.kat())
        assert oracle.endog_im(s1) == oracle.subgroup_set(e1.im())
        assert endog_ker(s1) == oracle.subgroup_set(e1.ker())
        for a in Subgroup.full(g).elements():
            assert oracle.endog_apply(s1, pk.pack(a)) == _pack_set(pk, coset_elements(e1.apply(a)))


def test_quotient_factor_reconstruction():
    for mods, gens, expect in [
        ((4,), [(2,)], [2]),
        ((2, 4), [(1, 2)], [4]),
        ((2, 4), [(0, 1)], [2]),
        ((8,), [], [8]),
    ]:
        g = canonicalize_group(list(mods))
        f = subgroup_from_generators(g, gens)
        dg = EnumeratedGroup(g)
        got = naive_quotient_factors(dg, oracle.subgroup_set(f))
        q, _ = quotient(g, f)
        assert got == list(q.moduli) == (expect if expect != [8] else [8])


def test_count_endogenies_matches_enumeration():
    g = canonicalize_group([4])
    n_max = subgroup_from_generators(g, [(2,)])
    pairs = list(enumerate_endogeny_pairs(g, n_max))
    assert len(pairs) == count_endogenies(g, n_max) == 6
    built = set()
    nb = NegligibilityBound(g, n_max)
    for pr, _ in pairs:
        built.add(Endogeny.from_pairs(g, g, pr, nb).graph.basis)
    assert len(built) == 6
