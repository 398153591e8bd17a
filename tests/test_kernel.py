"""Backend cross-validation and normal-form properties of the kernel.

The compiled lattice primitives are checked against ``_pure`` through the
same fallback wrapper the package uses, primitive by primitive and on audit
traffic end to end.  The ``core`` fixture (``conftest.py``) compiles
``_core.c`` once per session into a temporary directory with the
interpreter's C compiler, so no prior build is needed; it skips only when
there is no C compiler.  The pure
Hermite form is checked against the Euclid sweep it replaced and against the
additive closure of its columns.  The F_p primitives are ``_pure``'s under
either backend; their packed rows are checked against the entry-by-entry
tuple code they replaced (``references``).
"""

import json
import math
import random
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from endokat import _kernel, audits, cli, endogeny, fp, groups
from endokat._kernel import _pure
from endokat._kernel._matrix import pack

from references import euclid_hnf, tuple_mat_mul, tuple_mat_vec, tuple_rref, tuple_spin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# At 5, 7, 10, 25 and 27 two entries of a row often divide neither each
# other nor the modulus, so the extended-gcd combination runs and not only
# the subtraction; 1048573 is the largest prime within the compiled margin.
MODULI = st.lists(
    st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 25, 27, 64, 1048573]), min_size=0, max_size=5
)
# Column entries: small ones, ones far beyond every modulus, and ones
# anywhere in a signed 64-bit word, the compiled kernel's input range.
WORD_ENTRIES = st.integers(-40, 40) | st.integers(-(10**7), 10**7) | st.integers(-(2**63), 2**63 - 1)
# Entries beyond 64 bits as well, which only the pure kernel takes.
BIG_ENTRIES = WORD_ENTRIES | st.integers(-(2**90), 2**90)

# The primes whose rows the kernel packs into byte slots, and primes of the
# 64-bit slots: 1048573 is the largest prime below 2**20, the largest whose
# slots are 64 bits wide.
BYTE_SLOT_PRIMES = [2, 3, 5, 7, 11, 13]
WIDE_SLOT_PRIMES = [17, 257, 65537, 1048573]


def test_compiled_backend_holds_only_the_lattice_primitives(core):
    """The extension exposes the lattice primitives and nothing of F_p, and
    the package's F_p primitives are ``_pure``'s under either backend."""
    assert {name for name in vars(core) if not name.startswith("__")} == {
        "hnf_kernel", "box_reduce", "NeedsBigInts", "MOD_LIMIT"
    }
    for backend in (None, core):
        chosen = dict(zip(_kernel.PRIMITIVES, _kernel.primitives(backend)))
        for name in ("mat_mul", "mat_vec", "rref", "spin"):
            assert chosen[name] is getattr(_pure, name) is getattr(_kernel, name)


@st.composite
def hnf_inputs(draw, entries=BIG_ENTRIES):
    mods = draw(MODULI)
    ncols = draw(st.integers(0, 6))
    cols = [[draw(entries) for _ in mods] for _ in range(ncols)]
    return mods, cols


@settings(max_examples=60, deadline=None)
@given(hnf_inputs())
def test_hnf_canonical_shape(data):
    mods, cols = data
    h = _pure.hnf_kernel(mods, [list(c) for c in cols])
    r = len(mods)
    for i in range(r):
        assert h[i][i] > 0
        assert mods[i] % h[i][i] == 0
        for j in range(r):
            if j > i:
                assert h[i][j] == 0
            elif j < i:
                assert 0 <= h[i][j] < h[i][i]


@settings(max_examples=60, deadline=None)
@given(hnf_inputs())
def test_hnf_generator_invariance(data):
    """The canonical basis does not depend on generator order or redundancy."""
    mods, cols = data
    h1 = _pure.hnf_kernel(mods, [list(c) for c in cols])
    doubled = [list(c) for c in cols] + [list(c) for c in reversed(cols)]
    h2 = _pure.hnf_kernel(mods, doubled)
    assert h1 == h2


@settings(max_examples=200, deadline=None)
@given(hnf_inputs())
def test_hnf_matches_euclid_sweep(data):
    """The extended-gcd elimination returns the Euclid sweep's basis."""
    mods, cols = data
    assert _pure.hnf_kernel(mods, cols) == euclid_hnf(mods, cols)


@st.composite
def small_groups(draw):
    """Moduli of a group of order at most 64, in any order."""
    mods = []
    while draw(st.booleans()):
        room = 64 // math.prod(mods)
        if room < 2:
            break
        mods.append(draw(st.integers(2, room)))
    return mods


@settings(max_examples=150, deadline=None)
@given(small_groups(), st.data())
def test_hnf_spans_the_additive_closure(mods, data):
    """The subgroup with the returned basis has as elements exactly the
    sums of the columns, found by closing {0} under adding a column mod
    the moduli: no Hermite form is involved on that side."""
    cols = data.draw(st.lists(st.lists(BIG_ENTRIES, min_size=len(mods), max_size=len(mods)), max_size=4))
    g = groups.AbelianGroup(mods)
    gens = [g.reduce(c) for c in cols]
    zero = g.reduce([0] * len(mods))
    closure, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for c in gens:
            y = g.reduce([a + b for a, b in zip(x, c)])
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    elements = list(groups.Subgroup(g, _pure.hnf_kernel(mods, cols)).elements())
    assert len(elements) == len(closure) and set(elements) == closure


@settings(max_examples=120, deadline=None)
@given(hnf_inputs(WORD_ENTRIES), st.data())
def test_backends_identical_hnf(core, compiled, data, extra):
    mods, cols = data
    h = _pure.hnf_kernel(mods, [list(c) for c in cols])
    # Moduli within the margin: the compiled code itself answers.
    assert core.hnf_kernel(mods, [list(c) for c in cols]) == h
    assert compiled["hnf_kernel"](mods, [list(c) for c in cols]) == h
    vec = tuple(extra.draw(st.integers(-100, 100)) for _ in mods)
    assert core.box_reduce(mods, h, vec) == compiled["box_reduce"](mods, h, vec) == _pure.box_reduce(mods, h, vec)


# Entries of a test matrix: in [0, p), in [0, 256), or also negative and
# beyond 255.  Packing reduces every entry mod p.
ENTRIES = st.sampled_from(("reduced", "byte", "wide"))
# Entries come from a seeded generator: one hypothesis draw per matrix, not
# one per entry, keeps large examples cheap to generate and to shrink.
SEEDS = st.integers(0, 2**32 - 1)
SLOT_PRIMES = st.sampled_from(BYTE_SLOT_PRIMES + WIDE_SLOT_PRIMES)


def _matrix(rng, p, rows, cols, entries):
    if entries == "byte":
        return tuple(tuple(rng.randrange(256) for _ in range(cols)) for _ in range(rows))
    if entries == "wide":
        return tuple(tuple(rng.choice((rng.randrange(p), rng.randint(-600, 600))) for _ in range(cols)) for _ in range(rows))
    density = rng.choice((0.1, 0.5, 1.0))
    return tuple(tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)) for _ in range(rows))


@settings(max_examples=150, deadline=None)
@given(SLOT_PRIMES, st.integers(0, 8), st.integers(0, 64), st.integers(0, 16), ENTRIES, SEEDS)
def test_packed_mat_mul_matches_tuple_code(p, n, inner, m, entries, seed):
    rng = random.Random(seed)
    a = _matrix(rng, p, n, inner, entries)
    b = _matrix(rng, p, inner, m, entries)  # no rows when inner is 0
    got = _pure.mat_mul(p, pack(p, a, inner), pack(p, b, m))
    assert got.ncols == m
    assert got.tuples() == (tuple_mat_mul(p, a, b) if inner else ((0,) * m,) * n)


@settings(max_examples=100, deadline=None)
@given(SLOT_PRIMES, st.integers(1, 16), st.integers(1, 16), ENTRIES, SEEDS)
def test_packed_mat_vec_matches_tuple_code(p, n, m, entries, seed):
    rng = random.Random(seed)
    a = _matrix(rng, p, n, m, entries)
    (v,) = _matrix(rng, p, 1, m, entries)
    assert _pure.mat_vec(p, fp.mat(a, p), fp.mat([v], p)).tuples() == (tuple_mat_vec(p, a, v),)


@pytest.mark.parametrize("p", BYTE_SLOT_PRIMES + WIDE_SLOT_PRIMES)
def test_packed_mat_mul_slot_bound(p):
    """64 terms of (p - 1)^2 each: at p = 13 every term meets the bound
    (p - 1) + (p - 1)^2 < 256 on a byte slot, and a 64-bit slot takes all
    of them before its one reduction."""
    a = ((p - 1,) * 64,) * 3
    b = ((p - 1,) * 5,) * 64
    got = _pure.mat_mul(p, fp.mat(a, p), fp.mat(b, p)).tuples()
    assert got == tuple_mat_mul(p, a, b) == (((64 * (p - 1) ** 2) % p,) * 5,) * 3


def test_packed_mat_mul_many_terms_below_two_to_the_twenty():
    """3,000 terms of (p - 1)^2 on one 64-bit slot at the largest prime
    below 2**20, and in a combination."""
    p = 1048573
    a = ((p - 1,) * 3000,)
    b = ((p - 1, 1, p - 2),) * 3000
    assert _pure.mat_mul(p, fp.mat(a, p), fp.mat(b, p)).tuples() == tuple_mat_mul(p, a, b)
    assert fp.combination(p, a[0], fp.mat(b, p)).tuples() == tuple_mat_mul(p, a, b)


@settings(max_examples=150, deadline=None)
@given(SLOT_PRIMES, st.integers(0, 16), st.integers(0, 64), ENTRIES, SEEDS)
def test_packed_rref_matches_tuple_code(p, rows, cols, entries, seed):
    rng = random.Random(seed)
    a = _matrix(rng, p, rows, cols, entries)
    got = _pure.rref(p, pack(p, a, cols))
    assert (got.tuples(), got.pivots) == tuple_rref(p, a)


@settings(max_examples=150, deadline=None)
@given(SLOT_PRIMES, st.integers(1, 12), st.integers(0, 3), st.integers(0, 3), ENTRIES, SEEDS)
def test_packed_spin_matches_tuple_code(p, n, ngens, nseeds, entries, seed):
    rng = random.Random(seed)
    gens = [_matrix(rng, p, n, n, entries) for _ in range(ngens)]
    if rng.random() < 0.5:
        # Upper triangular generators keep each span of e_0..e_j, so the
        # spin can stop below the whole space.
        gens = [tuple(tuple(x if j >= i else 0 for j, x in enumerate(row)) for i, row in enumerate(g)) for g in gens]
    seeds = list(_matrix(rng, p, nseeds, n, entries))
    got = _pure.spin(p, [fp.mat(g, p) for g in gens], pack(p, seeds, n))
    assert got.tuples() == tuple_spin(p, gens, seeds)
    assert got.pivots == tuple_rref(p, got.tuples())[1]


def test_box_reduce_membership():
    mods = [2, 4, 8]
    h = _pure.hnf_kernel(mods, [[1, 2, 4]])
    # (1,2,4) and its multiples reduce to zero; others do not
    assert _pure.box_reduce(mods, h, (1, 2, 4)) == (0, 0, 0)
    assert _pure.box_reduce(mods, h, (0, 0, 0)) == (0, 0, 0)
    assert any(_pure.box_reduce(mods, h, (1, 0, 0)))


def test_bigint_fallback(core, compiled):
    """Moduli beyond the compiled word-size margin, and entries beyond 64
    bits, still work through the wrapper."""
    big = 2**19
    with pytest.raises(core.NeedsBigInts):
        core.hnf_kernel([big * 4], [[big]])
    with pytest.raises(OverflowError):
        core.hnf_kernel([4], [[2**70]])
    for hnf_kernel in (_kernel.hnf_kernel, compiled["hnf_kernel"]):
        assert hnf_kernel([big * 4], [[big]]) == ((big,),)
        assert hnf_kernel([4], [[2**70 + 2]]) == ((2,),)


def _check_malformed_columns(hnf_kernel):
    """A column shorter than the moduli raises IndexError, an all-zero one
    too; a longer column is read up to len(mods)."""
    for mods in ([6], [4, 6], [2, 9, 25]):
        r = len(mods)
        for short in ([0] * (r - 1), [1] * (r - 1)):
            with pytest.raises(IndexError):
                hnf_kernel(mods, [[1] * r, short])
        want = _pure.hnf_kernel(mods, [[3] * r])
        assert hnf_kernel(mods, [[3] * r + [5, 7], [0] * r + [1]]) == want


def test_malformed_columns_pure():
    _check_malformed_columns(_pure.hnf_kernel)


def test_malformed_columns_compiled(core, compiled):
    """The compiled kernel refuses a column of the wrong length, and the
    package's wrapper answers it as the pure kernel does."""
    for col in ([0], [0, 0, 0]):
        with pytest.raises(core.NeedsBigInts):
            core.hnf_kernel([4, 6], [col])
    _check_malformed_columns(compiled["hnf_kernel"])


def test_backends_identical_end_to_end(core, monkeypatch, capsys):
    """The first 140 seed-1 audit-lattice ops, the first 60 seed-1
    audit-oracle ops and two serial ``endokat audit`` runs give the same
    results and the same output bytes with the lattice primitives of either
    backend, swapped in where ``groups`` and ``endogeny`` bind them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    # Built without use_oracle, which would wrap the oracle for the session;
    # the ops are the same, and run_instance below is told to use it.
    rng = random.Random(1)
    lattice = workloads.AuditWorkload(audits.SUITES, False, 64, pool_rate=0, trace_ops=0).inputs(rng, 140)
    rng = random.Random(1)
    checked = workloads.AuditWorkload(workloads.ORACLE_SUITES, False, 32, pool_rate=0, trace_ops=0).inputs(rng, 60)
    ops = [(op, False) for op in lattice] + [(op, True) for op in checked]
    calls = Counter()

    def counted(name):
        fast = getattr(core, name)
        return lambda *args: calls.update([name]) or fast(*args)

    counting = SimpleNamespace(NeedsBigInts=core.NeedsBigInts, **{n: counted(n) for n in _kernel.COMPILED})
    runs = []
    for backend in (None, counting):
        for name, primitive in zip(_kernel.PRIMITIVES, _kernel.primitives(backend)):
            for module in (groups, endogeny):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, primitive)
        results = [json.dumps(audits.run_instance(s, d, use_oracle=o), sort_keys=True) for (s, d), o in ops]
        outputs = []
        for suite, oracle in (("dimension", []), ("sharp", ["--oracle"])):
            argv = ["audit", "--suite", suite, "--random", "6", "--seed", "1", "--workers", "1", *oracle]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            outputs.append((code, re.sub(r'"runtime_ms": \d+', "", out), err))
        runs.append((results, outputs))
    assert all(code == 0 for code, _, _ in runs[0][1])
    assert calls["hnf_kernel"] and calls["box_reduce"]
    assert runs[0] == runs[1]
