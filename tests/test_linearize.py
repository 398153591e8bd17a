"""Matrix machinery: commutants, lines, decomposition by one basis change,
lifting through it, field extraction."""

import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from endokat import config, fp, linearize
from endokat.errors import CapExceeded, FieldTestFailure, HypothesisViolation, InvalidInput, NotLocallyCentral
from endokat._kernel._matrix import Matrix, pack
from endokat.instances import matrix_bimodule, _random_invertible
from endokat.linearize import (
    Decomposition,
    Line,
    MatrixAlgebra,
    _intertwiners,
    _restricted,
    _span_basis,
    centralizer,
    decompose,
    extract_field,
    invariant_subspace,
    is_field,
    lift_endomorphism,
    lines,
    projection_onto_line,
)
from endokat.rng import SplitMix64

from references import exhaustive_invariant_subspace


def E(n, i, j, p=2):
    return fp.mat([[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)], p)


def algebra_closure(generators, p, n):
    """Unital closure of the generators under +, -, and product: the linear
    basis saturated under products (cheap, bounded by n^2)."""
    generators = tuple(generators)
    if n == 0:
        raise InvalidInput("zero-dimensional space has no unital matrix algebra here")
    mats = [fp.identity(p, n)] + [fp.mat(g, p) for g in generators]
    basis = list(MatrixAlgebra(p, n, _span_basis(p, mats)).basis)
    while True:
        fresh = []
        for a in basis:
            for b in basis:
                ab = fp.mul(p, a, b)
                v = fp.flatten([ab])
                if not fp.in_span(p, fp.row_space(p, fp.flatten(basis + fresh)), v):
                    fresh.append(ab)
        if not fresh:
            break
        basis = list(MatrixAlgebra(p, n, _span_basis(p, basis + fresh)).basis)
    return MatrixAlgebra(p, n, _span_basis(p, basis))


@pytest.fixture
def m2():
    return algebra_closure([E(2, 0, 0), E(2, 0, 1), E(2, 1, 0)], p=2, n=2)


@pytest.fixture
def f4():
    return algebra_closure([fp.mat([[0, 1], [1, 1]], 2)], p=2, n=2)


@pytest.fixture
def scal2():
    return algebra_closure([], p=2, n=2)


def test_algebra_closure_examples(m2, f4, scal2, monkeypatch):
    assert scal2.dim == 1 and scal2.size == 2
    assert f4.dim == 2 and sorted(fp.flatten(list(f4.elements())).tuples()) == sorted(
        [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)]
    )
    m = fp.mat([[0, 1], [1, 1]], 2)
    assert fp.mul(2, m, m) == fp.add(2, m, fp.identity(2, 2))
    assert m2.dim == 4 and m2.size == 16
    monkeypatch.setattr(config, "FIELD_ENUM_CAP", 10)
    with pytest.raises(CapExceeded):
        m2.elements()
    with pytest.raises(InvalidInput):
        algebra_closure([], p=2, n=0)


def test_elements_walk_order(m2):
    """elements()[i] is the combination whose coefficients are the base-p
    digits of i, most significant first."""
    f27 = algebra_closure([fp.companion(3, fp.lex_min_irreducible(3, 3))], p=3, n=3)
    for alg in (m2, f27):
        p, d = alg.p, alg.dim
        elems = list(alg.elements())
        assert len(elems) == p**d
        for i, m in enumerate(elems):
            digits = [(i // p ** (d - 1 - j)) % p for j in range(d)]
            want = fp.zero(p, alg.n)
            for c, b in zip(digits, alg.basis):
                want = fp.add(p, want, fp.scalar(p, c, b))
            assert m == want


def test_centralizer_examples(m2, f4):
    c = centralizer(m2.basis, p=2, n=2)
    assert c.dim == 1  # scalars only
    c2 = centralizer(f4.basis, p=2, n=2)
    assert c2.basis == f4.basis
    c3 = centralizer([fp.identity(2, 2)], p=2, n=2)
    assert c3.dim == 4
    # inclusion-reversing and stable under triple application
    assert all(c3.contains(b) for b in c.basis)
    assert centralizer(centralizer(c.basis, p=2, n=2).basis, p=2, n=2).basis == c.basis
    rng = SplitMix64(9)
    for _ in range(10):
        s = [
            fp.mat([[rng.below(2) for _ in range(3)] for _ in range(3)], 2)
            for _ in range(2)
        ]
        c1 = centralizer(s, p=2, n=3)
        c3x = centralizer(centralizer(c1.basis, p=2, n=3).basis, p=2, n=3)
        assert c3x.basis == c1.basis


def _assert_witness(p, n, gens, w):
    """w is the echelon basis of a nonzero proper subspace that every
    generator maps into itself."""
    assert 0 < len(w) < n and fp.row_space(p, w) == w
    assert all(fp.in_span(p, w, fp.matvec(p, g, w[i : i + 1])) for g in gens for i in range(len(w)))


def test_irreducibility(m2, f4, scal2):
    assert invariant_subspace(2, 2, m2.basis) is None
    # every line is stable under the scalars; the MeatAxe may give any one
    _assert_witness(2, 2, scal2.basis, invariant_subspace(2, 2, scal2.basis))
    assert invariant_subspace(2, 2, f4.basis) is None
    assert invariant_subspace(2, 2, m2.basis + scal2.basis) is None


def test_lines_examples(m2, f4, scal2):
    ls = lines(m2)
    assert [l.subspace.tuples() for l in ls] == [((1, 0),), ((0, 1),)]
    assert [l.basis.tuples() for l in ls] == [((1,), (0,)), ((0,), (1,))]
    whole = fp.rref(2, fp.identity(2, 2))
    assert lines(f4) == [Line(whole, fp.identity(2, 2), f4.basis)]
    assert lines(f4)[0].basis == fp.identity(2, 2)
    lsc = lines(scal2)
    assert len(lsc) == 1 and lsc[0].dim == 2


def _enumerated_lines(alg):
    """Reference: rank every element of the algebra; the images of the
    least positive rank are the lines, in order of their bases."""
    p, n = alg.p, alg.n
    found = set()
    k = n + 1
    for m in alg.elements():
        r = fp.rank(p, m)
        if r == 0 or r > k:
            continue
        if r < k:
            k, found = r, set()
        found.add(fp.column_space(p, m))
    return sorted(found, key=Matrix.tuples)


def _assert_lines_match_enumeration(alg):
    """Every line is one that enumerating the algebra finds, with its basis
    spanning it; the dimensions sum to n, the bases side by side form an
    invertible P, and line 0 is the minimal image u."""
    p, n = alg.p, alg.n
    got = lines(alg)
    enumerated = _enumerated_lines(alg)
    for l in got:
        assert l.subspace in enumerated
        assert fp.column_space(p, l.basis) == l.subspace and l.basis.ncols == l.dim
    assert sum(l.dim for l in got) == n
    assert fp.is_invertible(p, fp.mat([sum((l.basis.tuples()[r] for l in got), ()) for r in range(n)], p))
    assert got[0].subspace == linearize._minimal_image(alg)[0]
    return got


def test_lines_match_enumeration(m2, f4, scal2, monkeypatch):
    """The one route for lines (a minimal image, then a K-basis of the
    restriction space) finds lines that enumerating the algebra finds, and
    they split the space directly."""
    for alg in (m2, f4, scal2):
        _assert_lines_match_enumeration(alg)
    inst = matrix_bimodule(2, 2, 2, 99)
    galg = centralizer(inst["delta_generators"], p=2, n=4)
    assert galg.size == 2**8
    assert len(_assert_lines_match_enumeration(galg)) == 2  # Mat_2(F_4): two lines of dim 2
    # a commutant of 2^16 elements, all of Mat_4(F_2)
    big = centralizer([fp.identity(2, 4)], p=2, n=4)
    assert big.size == 2**16
    big_lines = _assert_lines_match_enumeration(big)
    assert len(big_lines) == 4 and all(l.dim == 1 for l in big_lines)
    # every commutant the ground-truth extractions split
    seen = []
    route = linearize.lines

    def recorded(alg):
        seen.append(alg)
        return route(alg)

    monkeypatch.setattr(linearize, "lines", recorded)
    for p, k, m, seed in GROUND_TRUTH_CASES:
        inst = matrix_bimodule(p, k, m, seed)
        extract_field(p, k * m, inst["gamma_generators"], inst["delta_generators"])
    monkeypatch.undo()
    small = [alg for alg in seen if alg.size <= 2**16]
    assert any(alg.size == 2**16 for alg in small) and len(small) < len(seen)
    for alg in small:
        _assert_lines_match_enumeration(alg)


def _quartic_n8_commutant():
    inst = matrix_bimodule(2, 4, 2, 0)
    return centralizer(inst["delta_generators"], p=2, n=8)


def test_lines_enumerate_no_combinations(monkeypatch):
    """lines and decompose walk no combinations of any basis: they return
    the m lines of a K-basis, not the (q^m - 1)/(q - 1) K-lines."""
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("combinations walked")

    monkeypatch.setattr(linearize, "_combinations", counted)
    galg = _quartic_n8_commutant()  # Mat_2(F_16): q = 16, m = 2
    assert [l.dim for l in lines(galg)] == [4, 4]
    assert len(decompose(galg, centralizer(galg.basis, p=2, n=8).basis).lines) == 2
    inst = matrix_bimodule(3, 3, 2, 0)
    assert [l.dim for l in lines(centralizer(inst["delta_generators"], p=3, n=6))] == [3, 3]  # Mat_2(F_27)
    assert not calls


def _kron(p, a, b):
    """The Kronecker product a (x) b."""
    rb = len(b)
    a, b = a.tuples(), b.tuples()
    return fp.mat([[a[i // rb][j // rb] * b[i % rb][j % rb] for j in range(len(a) * rb)] for i in range(len(a) * rb)], p)


def _conjugated_mat2_on_f2_4():
    """Mat_2(F_2) (x) I_2 on F_2^4, conjugated by a fixed P under which
    every echelon basis element is invertible, so the first candidate image
    is the whole space and not minimal."""
    p_mat = fp.mat([[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, 1]], 2)
    p_inv = fp.inverse(2, p_mat)
    gens = []
    for i in range(2):
        for j in range(2):
            gens.append(fp.mul(2, fp.mul(2, p_mat, _kron(2, E(2, i, j), fp.identity(2, 2))), p_inv))
    return algebra_closure(gens, p=2, n=4)


def _counting_zero_divisors(monkeypatch):
    calls = []
    split = linearize._zero_divisor

    def counted(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(linearize, "_zero_divisor", counted)
    return calls


def test_minimal_image_refines_a_non_minimal_candidate(monkeypatch):
    """When the first candidate image is not minimal, its local algebra is
    not a field and is_field sends the search to a smaller image."""
    alg = _conjugated_mat2_on_f2_4()
    assert alg.dim == 4 and all(fp.rank(2, b) == 4 for b in alg.basis)
    shrinks = _counting_zero_divisors(monkeypatch)
    got = _assert_lines_match_enumeration(alg)
    assert len(got) == 2 and all(l.dim == 2 for l in got)
    assert shrinks


def _tensor_bimodule(p, r, s, twist):
    """Gamma = P (Mat_r (x) I_s) P^-1 and Delta = P (I_r (x) Mat_s) P^-1 on
    F_p^(r s), each family the conjugated matrix units, for a random P
    seeded by ``twist``.  C(Delta) is Mat_r(F_p), whose lines are r images
    of dimension s, and the field is F_p."""
    pm = _random_invertible(p, r * s, SplitMix64(twist))
    pm_inv = fp.inverse(p, pm)

    def conj(m):
        return fp.mul(p, fp.mul(p, pm, m), pm_inv)

    gamma = [conj(_kron(p, E(r, i, j, p), fp.identity(p, s))).tuples() for i in range(r) for j in range(r)]
    delta = [conj(_kron(p, fp.identity(p, r), E(s, i, j, p))).tuples() for i in range(s) for j in range(s)]
    return gamma, delta


# (p, r, s, twist): a twist whose first candidate image is not minimal,
# so that the minimal image needs the characteristic-polynomial split
TENSOR_SPLIT_CASES = [
    (2, 2, 2, 22), (2, 2, 3, 45), (3, 2, 2, 10), (3, 2, 3, 0), (257, 2, 2, 0), (257, 2, 3, 0),
]


@pytest.mark.parametrize("p, r, s, twist", TENSOR_SPLIT_CASES)
def test_tensor_bimodule_field_through_the_split(p, r, s, twist, monkeypatch):
    """extract_field reports F_p on F_p^(r s) when the minimal image is
    reached by splitting a non-commutative local algebra."""
    calls = _counting_zero_divisors(monkeypatch)
    gamma, delta = _tensor_bimodule(p, r, s, twist)
    rep = extract_field(p, r * s, gamma, delta)
    assert (rep.order, rep.vs_dimension) == (p, r * s)
    assert calls


@pytest.mark.parametrize("p", [65537, 1048573])
def test_tensor_bimodule_lines_at_large_primes(p, monkeypatch):
    """At large p the split finds r lines of dimension s at once; the
    element sweep of the report check makes extract_field slow here, so
    only the decomposition is run."""
    calls = _counting_zero_divisors(monkeypatch)
    for r, s in ((2, 2), (3, 2), (2, 3)):
        for twist in range(3):
            _, delta = _tensor_bimodule(p, r, s, twist)
            dec = decompose(centralizer(delta, p=p, n=r * s), [fp.mat(d, p) for d in delta])
            assert [l.dim for l in dec.lines] == [s] * r
    assert calls


def test_minimal_image_error_exits():
    """A non-simple algebra whose local algebra is commutative but not a
    field, and the zero algebra, are refused."""
    with pytest.raises(HypothesisViolation, match="not simple"):
        lines(algebra_closure([E(2, 0, 1)], p=2, n=2))  # span{I, E01}
    with pytest.raises(InvalidInput, match="zero algebra"):
        lines(MatrixAlgebra(2, 2, _span_basis(2, [fp.zero(2, 2)])))


_DIGEST_SCRIPT = """
import hashlib, json, sys
from endokat import fp
from endokat.linearize import centralizer, decompose, extract_field
p, n, gamma, delta = json.load(sys.stdin)
rep = extract_field(p, n, gamma, delta)
dec = decompose(centralizer(delta, p=p, n=n), [fp.mat(d, p) for d in delta])
out = (rep.order, rep.vs_dimension, rep.field_basis, rep.k_basis_of_v, [l.subspace for l in dec.lines])
print(hashlib.sha256(repr(out).encode()).hexdigest())
"""


def test_split_draws_do_not_depend_on_the_hash_seed():
    """The Las Vegas draws are seeded from the input, never from hash():
    two processes with different PYTHONHASHSEED give the same report and
    the same lines on an input that reaches the split."""
    p, r, s, twist = TENSOR_SPLIT_CASES[-2]
    gamma, delta = _tensor_bimodule(p, r, s, twist)
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            input=json.dumps([p, r * s, gamma, delta]), capture_output=True, text=True, env=env, check=True,
        )
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_companion_of_an_irreducible_quartic_is_irreducible():
    """x^4 + x + 1 is irreducible over F_2, so its companion matrix alone
    has no proper invariant subspace, and every nonzero element of the
    algebra it generates, F_16, is invertible: no singular element exists
    for a null-space certificate, yet the answer is definite."""
    companion = fp.companion(2, (1, 1, 0, 0, 1))
    assert companion == fp.mat([[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], 2)
    assert invariant_subspace(2, 4, [companion]) is None


def test_cap_errors_name_their_limit(monkeypatch):
    """A cap error states the cap, its value and the size that hit it."""
    # the report check enumerates the field F_16 of (2,4,2)
    monkeypatch.setattr(config, "FIELD_ENUM_CAP", 8)
    inst = matrix_bimodule(2, 4, 2, 1)
    with pytest.raises(CapExceeded, match=r"algebra of 16 elements above FIELD_ENUM_CAP = 8"):
        extract_field(2, 8, inst["gamma_generators"], inst["delta_generators"])


def test_projection_and_decomposition(m2, f4, scal2):
    dec = decompose(m2, scal2.basis)
    assert [l.subspace.tuples() for l in dec.lines] == [((1, 0),), ((0, 1),)]
    assert dec.projections == [E(2, 0, 0), E(2, 1, 1)]
    assert [c.tuples() for c in dec.coordinates] == [((1, 0),), ((0, 1),)]
    assert projection_onto_line(dec.lines[0], dec.coordinates[0], m2) == E(2, 0, 0)
    dec.verify(scal2.basis)
    # the idempotent must lie in the first algebra: E00 is not a scalar
    with pytest.raises(HypothesisViolation, match="not in the first algebra") as err:
        projection_onto_line(dec.lines[0], dec.coordinates[0], scal2)
    assert err.value.witness == E(2, 0, 0)
    c2 = centralizer(f4.basis, p=2, n=2)
    dec2 = decompose(f4, c2.basis)
    assert len(dec2.lines) == 1 and dec2.projections[0] == fp.identity(2, 2)


def test_decompose_mat8_over_f4():
    """The commutant of (2,2,8) is Mat_8(F_4), with (4^8 - 1)/3 = 21,845
    K-lines; decompose splits it into 8 lines of dimension 2."""
    inst = matrix_bimodule(2, 2, 8, 1)
    galg = centralizer(inst["delta_generators"], p=2, n=16)
    assert galg.dim == 128
    dec = decompose(galg, centralizer(galg.basis, p=2, n=16).basis)
    assert [l.dim for l in dec.lines] == [2] * 8


def _restricted_gens(p, gens, line):
    """The generators restricted to the line, as extract_field passes
    Delta's to lift_endomorphism."""
    return _restricted(p, gens, line.subspace, line.subspace)


def test_lift(m2, scal2):
    dec = decompose(m2, scal2.basis)
    line = dec.lines[0]
    one = fp.identity(2, 1)
    hat, = lift_endomorphism([one], dec, m2, scal2.basis, _restricted_gens(2, scal2.basis, line))
    assert hat == fp.identity(2, 2)
    # scalar lifts to the global scalar
    inst = matrix_bimodule(3, 1, 2, 3)
    delta = [fp.mat(d, 3) for d in inst["delta_generators"]]
    galg = centralizer(delta, p=3, n=2)
    dec3 = decompose(galg, delta)
    two = fp.mat([[2]], 3)
    line3 = dec3.lines[0]
    hat1, hat3 = lift_endomorphism([fp.identity(3, 1), two], dec3, galg, delta, _restricted_gens(3, delta, line3))
    assert hat1 == fp.identity(3, 2)
    assert hat3 == fp.scalar(3, 2, fp.identity(3, 2))


def test_decompose_rejects_lines_that_are_not_direct(m2, scal2, monkeypatch):
    """Lines whose bases do not form an invertible P, here one line given
    twice, or too few or too many to fill the space, raise
    HypothesisViolation with the lines as witness."""
    route = linearize.lines
    for pick in ([0, 0], [0], [0, 1, 1]):
        monkeypatch.setattr(linearize, "lines", lambda alg, pick=pick: [route(alg)[i] for i in pick])
        with pytest.raises(HypothesisViolation, match="not split the space directly") as err:
            decompose(m2, scal2.basis)
        assert err.value.witness == [route(m2)[i].subspace for i in pick]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 13, 17]), st.integers(1, 4), st.integers(0, 4), st.integers(0, 4), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_block_products_match_pairwise_products(p, n, a, b, k, seed):
    """fp.products is x_i y_j for every pair (rectangular: xs n x (n + 1),
    ys (n + 1) x 2), fp.noncommuting names the first pair that does not
    commute, and fp.powers is m^k for each m."""
    rng = SplitMix64(seed)

    def draw(rows, cols):
        return fp.mat([[rng.below(p) if rng.below(3) else 0 for _ in range(cols)] for _ in range(rows)], p)

    xs, ys = [draw(n, n + 1) for _ in range(a)], [draw(n + 1, 2) for _ in range(b)]
    assert fp.products(p, xs, ys) == [[fp.mul(p, x, y) for y in ys] for x in xs]
    squares = [draw(n, n) for _ in range(a + 1)]
    for fs, gs in ((squares, squares), (squares[:1], squares), (squares, [fp.identity(p, n)])):
        pairs = [(i, j) for i, f in enumerate(fs) for j, g in enumerate(gs) if fp.mul(p, f, g) != fp.mul(p, g, f)]
        assert fp.noncommuting(p, fs, gs) == (pairs[0] if pairs else None)
    want = []
    for m in squares:
        mk = m
        for _ in range(k - 1):
            mk = fp.mul(p, mk, m)
        want.append(mk)
    assert fp.powers(p, squares, k) == want


# fp kernel calls of one extract_field on matrix_bimodule(p, k, m, 0), with
# some room above today's counts: a family check split back into one product
# per pair (hundreds of mat_mul calls at n = 4) fails this.
KERNEL_CALL_CEILINGS = {
    (2, 2, 2): {"mat_mul": 42, "mat_vec": 4, "rref": 40, "spin": 2},
    (2, 4, 2): {"mat_mul": 44, "mat_vec": 4, "rref": 62, "spin": 2},
}


@pytest.mark.parametrize("case", sorted(KERNEL_CALL_CEILINGS))
def test_extract_field_kernel_call_budget(case, monkeypatch):
    """The F_p layer reaches the kernel once per matrix family, not once per
    pair; the counts are deterministic."""
    inst = matrix_bimodule(*case, 0)
    calls = dict.fromkeys(KERNEL_CALL_CEILINGS[case], 0)
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(fp, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(fp, name, counted)
    extract_field(inst["p"], inst["n"], inst["gamma_generators"], inst["delta_generators"])
    over = {name: count for name, count in calls.items() if count > KERNEL_CALL_CEILINGS[case][name]}
    assert not over, f"kernel calls above the ceiling: {over} of {calls}"


def test_lift_solves_no_intertwiner_system(monkeypatch):
    """The lift goes through the basis change of the decomposition:
    extract_field solves an intertwiner system only for each commutant it
    computes."""
    calls = {"_intertwiners": 0, "centralizer": 0}
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(linearize, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(linearize, name, counted)
    inst = matrix_bimodule(2, 4, 2, 1)
    rep = extract_field(2, 8, inst["gamma_generators"], inst["delta_generators"])
    assert (rep.order, rep.vs_dimension) == (16, 2)
    assert calls["_intertwiners"] == calls["centralizer"] > 0


def _quartic_decomposition():
    """The decomposition of the (2, 2, 2) twist-0 bi-module: C(Delta) is
    Mat_2(F_4), line 0 has dimension 2 and its local field is F_4."""
    inst = matrix_bimodule(2, 2, 2, 0)
    delta = [fp.mat(d, 2) for d in inst["delta_generators"]]
    galg = centralizer(delta, p=2, n=4)
    dec = decompose(galg, delta)
    return delta, galg, dec


def test_lift_rejects_a_map_that_is_not_locally_central():
    """A map that does not commute with the local field of line 0 has no
    central lift; the check on line 0 reports it."""
    delta, galg, dec = _quartic_decomposition()
    line = dec.lines[0]
    assert len(line.local) == 2
    with pytest.raises(NotLocallyCentral, match="^map is not central in the restricted algebras$"):
        lift_endomorphism([E(2, 0, 1)], dec, galg, delta, _restricted_gens(2, delta, line))


def test_lift_rejects_a_lift_that_fails_to_commute():
    """With line 0's local field and restricted generators tampered away,
    a non-central map passes the local check; its lift fails to commute
    with C(Delta)."""
    delta, galg, dec = _quartic_decomposition()
    dec.lines[0].local = ()
    with pytest.raises(NotLocallyCentral, match="^lift fails to commute with the algebras$"):
        lift_endomorphism([E(2, 0, 1)], dec, galg, delta, [])


def test_decomposition_verify_rejects_projections_that_are_not_orthogonal():
    """Two idempotents, each onto its own line, whose product is not zero."""
    dec = Decomposition(
        2,
        2,
        [Line(fp.mat([[1, 0]], 2), fp.mat([[1], [0]], 2), ()), Line(fp.mat([[0, 1]], 2), fp.mat([[0], [1]], 2), ())],
        [fp.mat([[1, 1], [0, 0]], 2), E(2, 1, 1)],
        [fp.mat([[1, 0]], 2), fp.mat([[0, 1]], 2)],
    )
    with pytest.raises(HypothesisViolation, match="^projections not orthogonal$") as err:
        dec.verify([fp.identity(2, 2)])
    assert err.value.witness == (0, 1)


def test_decomposition_verify_rejects_a_projection_that_fails_to_commute(m2, scal2):
    """The idempotents E00, E11 of Mat_2(F_2) do not commute with E01."""
    dec = decompose(m2, scal2.basis)
    with pytest.raises(HypothesisViolation, match="^projection fails to commute$") as err:
        dec.verify([fp.identity(2, 2), E(2, 0, 1)])
    assert err.value.witness == E(2, 0, 0)


def test_extract_field_rejects_a_lift_not_closed_under_products(monkeypatch):
    """A lifted span {I, A} with the shift A, whose square is not in it,
    has the local field's dimension but is no algebra."""
    shift = fp.add(2, E(4, 0, 1), E(4, 1, 2))
    monkeypatch.setattr(linearize, "lift_endomorphism", lambda *args: [shift])
    inst = matrix_bimodule(2, 2, 2, 0)
    with pytest.raises(FieldTestFailure, match="^lifted span is not closed under products$") as err:
        extract_field(2, 4, inst["gamma_generators"], inst["delta_generators"])
    assert err.value.element == fp.mul(2, shift, shift)


def test_field_report_verify_rejects_a_generator_that_fails_to_commute():
    """The field of a report does not commute with E01 offered as a
    generator; the first field basis element it fails with is named."""
    inst = matrix_bimodule(2, 2, 2, 0)
    rep = extract_field(2, 4, inst["gamma_generators"], inst["delta_generators"])
    stranger = E(4, 0, 1)
    witness = next(b for b in rep.field_basis if fp.mul(2, stranger, fp.mat(b, 2)) != fp.mul(2, fp.mat(b, 2), stranger))
    with pytest.raises(FieldTestFailure, match="^algebra generator fails to commute with the field$") as err:
        rep.verify(inst["gamma_generators"], [*inst["delta_generators"], stranger])
    assert err.value.element == witness


def test_field_report_built_by_hand_packs_what_extract_field_hands_over():
    """A report rebuilt from the tuples of extract_field's report packs and
    echelonises them into the same field algebra and passes verify, also
    with another basis of the same field; and verify still rejects a wrong order or dimension and a
    generator that fails to commute."""
    inst = matrix_bimodule(2, 2, 2, 3)
    gens = inst["gamma_generators"], inst["delta_generators"]
    rep = extract_field(2, 4, *gens)
    fb = rep.field_basis
    mixed = [fp.add(2, fp.mat(fb[0], 2), fp.mat(fb[-1], 2)).tuples(), *fb[1:]][::-1]
    for basis in (fb, mixed):
        hand = linearize.FieldReport(2, 4, basis, rep.order, rep.vs_dimension, rep.k_basis_of_v)
        assert hand.field_algebra() == rep.field_algebra()
        assert hand.verify(*gens)
    for order, dim, match in ((rep.order * 2, rep.vs_dimension, "reported order"), (rep.order, 1, "n != k")):
        with pytest.raises(FieldTestFailure, match=match):
            linearize.FieldReport(2, 4, rep.field_basis, order, dim, rep.k_basis_of_v).verify(*gens)
    with pytest.raises(FieldTestFailure, match="fails to commute"):
        linearize.FieldReport(2, 4, rep.field_basis, rep.order, rep.vs_dimension, rep.k_basis_of_v).verify(
            gens[0], [*gens[1], E(4, 0, 1)]
        )


def test_restricted_rejects_a_map_out_of_the_line():
    """E10 maps the line of e_0 onto that of e_1, so a family holding it
    does not restrict to the line of e_0."""
    with pytest.raises(InvalidInput, match="^matrix does not map the line into the target line$"):
        _restricted(2, [fp.identity(2, 2), E(2, 1, 0)], fp.identity(2, 2)[0:1], fp.identity(2, 2)[0:1])
    assert _restricted(2, [E(2, 1, 0)], fp.identity(2, 2)[0:1], fp.identity(2, 2)[1:2]) == [fp.mat([[1]], 2)]


def test_is_field(m2, f4, scal2):
    assert is_field(scal2)
    assert is_field(f4)
    assert not is_field(m2)
    diag = algebra_closure([E(2, 0, 0)], p=2, n=2)
    assert not is_field(diag)
    f8 = algebra_closure([fp.companion(2, fp.lex_min_irreducible(2, 3))], p=2, n=3)
    assert is_field(f8) and f8.dim == 3


def _enumerated_is_field(alg):
    """Reference: contains the identity, commutative, and every nonzero
    element invertible."""
    nonzero = list(alg.elements())[1:]
    return alg.contains(fp.identity(alg.p, alg.n)) and alg.is_commutative() and all(fp.is_invertible(alg.p, m) for m in nonzero)


@st.composite
def small_algebras(draw):
    """Algebras of at most 5^4 elements on F_p^n, p in {2, 3, 5}, n <= 4:
    closures of random generators (two only for n <= 2), companion
    algebras F_p[x]/(f) of random monic f (fields, products of fields and
    algebras with nilpotents), conjugated diagonal algebras, and the
    non-unital span{E00}."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["closure", "companion", "diagonal", "corner"]))
    if kind == "closure":
        gens = draw(st.lists(_matrices(p, n), min_size=0, max_size=2 if n <= 2 else 1))
        return algebra_closure(gens, p=p, n=n)
    if kind == "companion":
        low = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        return algebra_closure([fp.companion(p, tuple(low) + (1,))], p=p, n=n)
    if kind == "diagonal":
        conj = _random_invertible(p, n, SplitMix64(draw(st.integers(0, 2**32))))
        conj_inv = fp.inverse(p, conj)
        diag = [fp.mul(p, fp.mul(p, conj, E(n, i, i, p)), conj_inv) for i in range(n)]
        return algebra_closure(diag, p=p, n=n)
    corner = E(n, 0, 0, p)
    return MatrixAlgebra(p, n, _span_basis(p, [corner]))


@settings(max_examples=200, deadline=None)
@given(small_algebras())
def test_is_field_matches_enumeration(alg):
    """The Frobenius certificate agrees with checking every element."""
    assert alg.size <= 5**4
    assert is_field(alg) == _enumerated_is_field(alg)


def _assert_joint_commutant(rep, inst):
    """Schur's lemma: the joint commutant of an irreducible action is the
    coefficient field, so the constructed field must equal it."""
    gens = list(inst["gamma_generators"]) + list(inst["delta_generators"])
    assert rep.field_algebra().basis == centralizer(gens, p=rep.p, n=rep.n).basis


GROUND_TRUTH_CASES = [(2, 1, 2, 0), (2, 2, 1, 0), (3, 1, 2, 5), (2, 1, 3, 11), (3, 3, 2, 0), (2, 4, 2, 0)]


def test_extract_field_ground_truths():
    for p, k, m, seed in GROUND_TRUTH_CASES:
        inst = matrix_bimodule(p, k, m, seed)
        rep = extract_field(p, k * m, inst["gamma_generators"], inst["delta_generators"])
        assert rep.order == p**k and rep.vs_dimension == m
        rep.verify(inst["gamma_generators"], inst["delta_generators"])
        _assert_joint_commutant(rep, inst)


@pytest.mark.parametrize("p, k, m, seed", GROUND_TRUTH_CASES)
def test_triple_commutant_is_the_commutant(p, k, m, seed):
    """C(C(C(S))) = C(S) for either generator family of a ground truth:
    a commutant is the commutant of its own commutant, so the commutant
    of the double commutant C(C(Delta)), which extract_field replaces by
    Delta's generators, is C(Delta)."""
    inst = matrix_bimodule(p, k, m, seed)
    for family in (inst["gamma_generators"], inst["delta_generators"]):
        once = centralizer(family, p=p, n=k * m)
        thrice = centralizer(centralizer(once.basis, p=p, n=k * m).basis, p=p, n=k * m)
        assert thrice.basis == once.basis


def _mat2_tensor_families():
    """Mat_2(F_2) (x) I and I (x) Mat_2(F_2) on F_2^4."""
    mat2 = [E(2, i, j) for i in range(2) for j in range(2)]
    return [_kron(2, x, fp.identity(2, 2)) for x in mat2], [_kron(2, fp.identity(2, 2), x) for x in mat2]


def test_double_commutant_is_the_generated_algebra():
    """C(C(S)) is the algebra S generates, for both families of every
    ground truth and both Mat_2(F_2) tensor families: each acts
    semisimply, so extract_field may check against a family's generators
    instead of solving for its double commutant."""
    families = [(2, 4, family) for family in _mat2_tensor_families()]
    for p, k, m, seed in GROUND_TRUTH_CASES:
        inst = matrix_bimodule(p, k, m, seed)
        families += [(p, k * m, inst["gamma_generators"]), (p, k * m, inst["delta_generators"])]
    for p, n, family in families:
        twice = centralizer(centralizer(family, p=p, n=n).basis, p=p, n=n)
        assert twice.basis == algebra_closure(family, p=p, n=n).basis


def test_double_commutant_needs_irreducibility():
    """S below generates a non-semisimple algebra of dimension 4 whose
    double commutant has dimension 5, so its generators would not stand in
    for C(C(S)); extract_field rejects the bi-module ({I}, S) as reducible
    before any commutant is solved."""
    s = [fp.mat([[0, 0, 1], [1, 0, 0], [0, 0, 0]], 2), fp.mat([[0, 0, 0], [1, 0, 1], [0, 0, 0]], 2)]
    assert algebra_closure(s, p=2, n=3).dim == 4
    assert centralizer(centralizer(s, p=2, n=3).basis, p=2, n=3).dim == 5
    with pytest.raises(HypothesisViolation, match="reducible"):
        extract_field(2, 3, [fp.identity(2, 3).tuples()], [x.tuples() for x in s])


def test_extract_field_with_the_larger_family_second():
    """Second families under which the minimal image u has dimension r > 1
    over its local field E, so C(E) = Mat_r(E) is not E.  The
    swapped ground truths give (p**k, m), and Mat_2(F_2) (x) I and
    I (x) Mat_2(F_2) on F_2^4 give (2, 4), in either order."""
    for p, k, m, seed in GROUND_TRUTH_CASES:
        inst = matrix_bimodule(p, k, m, seed)
        swapped = {"gamma_generators": inst["delta_generators"], "delta_generators": inst["gamma_generators"]}
        rep = extract_field(p, k * m, swapped["gamma_generators"], swapped["delta_generators"])
        assert (rep.order, rep.vs_dimension) == (p**k, m)
        _assert_joint_commutant(rep, swapped)
    left, right = _mat2_tensor_families()
    for gamma, delta in ((left, right), (right, left)):
        rep = extract_field(2, 4, [x.tuples() for x in gamma], [x.tuples() for x in delta])
        assert (rep.order, rep.vs_dimension) == (2, 4)
        _assert_joint_commutant(rep, {"gamma_generators": gamma, "delta_generators": delta})


@pytest.mark.parametrize("p, k, m, seed", [(2, 2, 2, 1), (2, 4, 2, 3)])
def test_extract_field_runs_each_step_once(p, k, m, seed, monkeypatch):
    """One level: two commutants (C(Delta) and the commutant of Delta's
    generators on line 0, none on C(Delta)'s basis), and one
    irreducibility test, decomposition, list of lines, k-basis and report
    check."""
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("centralizer", "invariant_subspace", "decompose", "lines", "_k_basis_of_v"):
        count(linearize, name)
    count(linearize.FieldReport, "verify")
    inst = matrix_bimodule(p, k, m, seed)
    rep = extract_field(p, k * m, inst["gamma_generators"], inst["delta_generators"])
    assert (rep.order, rep.vs_dimension) == (p**k, m)
    assert calls == {
        "centralizer": 2,
        "invariant_subspace": 1,
        "decompose": 1,
        "lines": 1,
        "_k_basis_of_v": 1,
        "verify": 1,
    }


# sha256 over the reports below, computed at the commit before lines
# walked one map per K-line; every later route must keep these bytes
REPORTS_SHA256 = "e1f7295c8a4d4ab973d3a664878d2fbfc0ae0e3455cab910edb0e7a448dd3dbb"


def test_extract_field_reports_snapshot():
    """(order, vs_dimension, field_basis, k_basis_of_v) of the 20 quartic
    twists and the ground truths with n <= 8 are byte-stable."""
    cases = [(2, 2, 2, s) for s in range(20)] + [c for c in GROUND_TRUTH_CASES if c[1] * c[2] <= 8]
    h = hashlib.sha256()
    for p, k, m, seed in cases:
        inst = matrix_bimodule(p, k, m, seed)
        rep = extract_field(p, k * m, inst["gamma_generators"], inst["delta_generators"])
        h.update(repr((rep.order, rep.vs_dimension, rep.field_basis, rep.k_basis_of_v)).encode())
    assert h.hexdigest() == REPORTS_SHA256


def test_extract_field_n16():
    """An n = 16 instance: no ideal and no K-line is enumerated; the
    commutant Mat_2(F_256) splits into two lines of dimension 8."""
    inst = matrix_bimodule(2, 8, 2, 1)
    rep = extract_field(2, 16, inst["gamma_generators"], inst["delta_generators"])
    assert (rep.order, rep.vs_dimension) == (256, 2)


def test_extract_field_twisted_quartic():
    for seed in (1, 12345):
        inst = matrix_bimodule(2, 2, 2, seed)
        rep = extract_field(2, 4, inst["gamma_generators"], inst["delta_generators"])
        assert rep.order == 4 and rep.vs_dimension == 2
        rep.verify(inst["gamma_generators"], inst["delta_generators"])
        _assert_joint_commutant(rep, inst)


def test_extract_field_basis_change_equivariance():
    base = matrix_bimodule(2, 1, 2, 0)
    rng = SplitMix64(2024)
    for _ in range(50):
        g = _random_invertible(2, 2, rng)
        gi = fp.inverse(2, g)
        gg = [fp.mul(2, fp.mul(2, g, fp.mat(x, 2)), gi).tuples() for x in base["gamma_generators"]]
        dd = [fp.mul(2, fp.mul(2, g, fp.mat(x, 2)), gi).tuples() for x in base["delta_generators"]]
        rep = extract_field(2, 2, gg, dd)
        assert (rep.order, rep.vs_dimension) == (2, 2)


def test_base_case_consistency():
    """When the commutant is a division algebra, the extracted field equals
    it, and the double commutant coincides (the opposite action is the same
    set over a finite field)."""
    inst = matrix_bimodule(2, 2, 1, 4)
    galg = centralizer(inst["delta_generators"], p=2, n=2)
    assert all(
        fp.is_invertible(2, m) for m in galg.elements() if any(m.rows)
    )
    rep = extract_field(2, 2, inst["gamma_generators"], inst["delta_generators"])
    kalg = rep.field_algebra()
    assert kalg.basis == galg.basis
    dalg = centralizer(galg.basis, p=2, n=2)
    assert dalg.basis == galg.basis


def test_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        extract_field(2, 2, [fp.identity(2, 2).tuples()], [fp.identity(2, 2).tuples()])  # reducible
    a = fp.mat([[0, 1], [0, 0]], 2).tuples()
    b = fp.mat([[0, 0], [1, 0]], 2).tuples()
    with pytest.raises(HypothesisViolation):
        extract_field(2, 2, [a], [b])  # families do not commute
    with pytest.raises(InvalidInput):
        extract_field(2, 2, [], [fp.identity(2, 2).tuples()])


def test_extract_field_checks_characteristic():
    one = [fp.identity(2, 2).tuples()]
    for p in (4, 1, 0, 1048575):
        with pytest.raises(InvalidInput, match="not prime"):
            extract_field(p, 2, one, one)
    # generators must be n x n: a 3 x 3 one in a 2-dimensional instance,
    # and a ragged one
    for gamma in ([fp.identity(2, 3).tuples()], [((1, 0), (0,))]):
        with pytest.raises(InvalidInput, match="not 2 x 2"):
            extract_field(2, 2, gamma, one)
    for p in (config.MAX_ORDER + 1, 2**61 - 1):
        with pytest.raises(CapExceeded, match="MAX_ORDER"):
            extract_field(p, 2, one, one)


def _stacked_intertwiners(p, k, mats):
    """Reference: every matrix's k^2 equations M X - X M = 0 in one
    system."""
    rows = []
    for m in (m.tuples() for m in mats):
        for i in range(k):
            for j in range(k):
                row = [0] * (k * k)
                for t in range(k):
                    row[t * k + j] = (row[t * k + j] + m[i][t]) % p
                for t in range(k):
                    row[i * k + t] = (row[i * k + t] - m[t][j]) % p
                rows.append(tuple(row))
    return fp.nullspace(p, pack(p, rows, k * k))


def _matrices(p, n):
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(lambda m: fp.mat(m, p))


@st.composite
def commutant_systems(draw):
    """Up to four k x k matrices: random ones (their commutant soon shrinks
    to the scalars), polynomials in the first one (which keep it larger)
    and scalars."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 4))
    mats = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "polynomial", "scalar"]))
        c = draw(st.integers(0, p - 1))
        if kind == "random" or not mats:
            mats.append(draw(_matrices(p, k)))
        elif kind == "polynomial":
            mats.append(fp.add(p, fp.mul(p, mats[0], mats[0]), fp.scalar(p, c, mats[0])))
        else:
            mats.append(fp.scalar(p, c, fp.identity(p, k)))
    return p, k, mats


@settings(max_examples=150, deadline=None)
@given(commutant_systems())
@example((2, 2, [fp.identity(2, 2), E(2, 0, 1), E(2, 1, 0)]))
@example((3, 3, [fp.zero(3, 3), fp.identity(3, 3)]))
def test_intertwiners_match_stacked_system(system):
    """Solving one matrix at a time gives the stacked system's basis, in
    its order."""
    p, k, mats = system
    assert _intertwiners(p, k, mats) == _stacked_intertwiners(p, k, mats)


# (p, n) with at most 781 lines through 0, so the reference stays quick
SMALL_MODULES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4)]


@st.composite
def modules(draw):
    """1 to 3 generators on F_p^n, n <= 5: random, block upper triangular
    (reducible, with a stable first block) or with a zero last row
    (singular); or a direct sum U + U of an irreducible matrix bi-module U
    of dimension 2 or 3, in a random basis.  On U + U every kernel of an
    element is twice as large as on U, so no factor of a characteristic
    polynomial is good and only a random kernel vector finds a witness."""
    p, n = draw(st.sampled_from(SMALL_MODULES))
    split = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(["random", "block", "singular", "square"]))
    if kind == "square":
        k, m = draw(st.sampled_from([(1, 2), (2, 1)] + ([(1, 3), (3, 1)] if p <= 3 else [])))
        inst = matrix_bimodule(p, k, m, draw(st.integers(0, 2**32)))
        basis = _random_invertible(p, 2 * k * m, SplitMix64(draw(st.integers(0, 2**32))))
        inverse = fp.inverse(p, basis)
        gens = []
        for u in inst["gamma_generators"] + inst["delta_generators"]:
            double = [row + (0,) * k * m for row in u] + [(0,) * k * m + row for row in u]
            gens.append(fp.mul(p, fp.mul(p, basis, fp.mat(double, p)), inverse))
        return p, 2 * k * m, gens
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = [list(row) for row in draw(_matrices(p, n)).tuples()]
        for i in range(n):
            for j in range(n):
                if (kind == "block" and i >= split > j) or (kind == "singular" and i == n - 1):
                    g[i][j] = 0
        gens.append(fp.mat(g, p))
    return p, n, gens


@settings(max_examples=150, deadline=None)
@given(modules())
def test_invariant_subspace_matches_exhaustive_spin(module):
    """The MeatAxe answers None exactly when spinning every line finds no
    proper submodule, and a witness it gives is a nonzero proper invariant
    subspace, though not necessarily the walk's first."""
    p, n, gens = module
    w = invariant_subspace(p, n, gens)
    assert (w is None) == (exhaustive_invariant_subspace(p, n, gens) is None)
    if w is not None:
        _assert_witness(p, n, gens, w)


def test_hidden_submodule_needs_the_transposed_check():
    """z = diag(1, 1, 1, 0) is invertible on the submodule <e1, e2, e3>, and
    x is a good factor of its characteristic polynomial (ker z = <e4>):
    ker z spins to everything, and only ker z^T = <e4>, which spins to
    itself under the transposes, shows the submodule."""
    z = fp.mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], 2)
    shift = fp.mat([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], 2)
    e4 = fp.mat([(0, 0, 0, 1)], 2)
    assert fp.spin_subspace(2, [z, shift], e4) == fp.row_space(2, fp.identity(2, 4))
    hidden = linearize._null_space_certificate(2, 4, [z, shift], z, e4)
    assert hidden.tuples() == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    _assert_witness(2, 4, [z, shift], invariant_subspace(2, 4, [z, shift]))


def _counting_spins(monkeypatch):
    spins = []
    spin = fp.spin_subspace

    def counted(p, gens, seeds):
        spins.append(seeds)
        return spin(p, gens, seeds)

    monkeypatch.setattr(fp, "spin_subspace", counted)
    return spins


def test_irreducibility_certificate_spins_few_vectors(monkeypatch):
    """An irreducible (2,4,2) module is certified with a handful of spins,
    not the 255 of the exhaustive walk."""
    inst = matrix_bimodule(2, 4, 2, 3)
    spins = _counting_spins(monkeypatch)
    assert invariant_subspace(2, 8, inst["gamma_generators"] + inst["delta_generators"]) is None
    assert 0 < len(spins) < 20


@pytest.mark.parametrize(
    "p, k, m, spins",
    [(2, 1, 12, 2), (2, 4, 4, 2), (2, 12, 2, None), (3, 1, 12, None)],
)
def test_meataxe_decides_large_ground_truths(p, k, m, spins, monkeypatch):
    """Irreducible matrix bi-modules of dimension 12 to 24, which a walk
    over the lines of a kernel took seconds on or could not decide, are
    certified within 0.5 s of CPU time.  The draws are seeded from the
    input, so the spin counts are fixed: one spin each way for a good
    factor, plus one per earlier round without one."""
    inst = matrix_bimodule(p, k, m, 1)
    gens = inst["gamma_generators"] + inst["delta_generators"]
    counted = _counting_spins(monkeypatch)
    start = time.process_time()
    assert invariant_subspace(p, k * m, gens) is None
    assert time.process_time() - start < 0.5
    if spins is not None:
        assert len(counted) == spins


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 7), st.randoms(use_true_random=False))
def test_charpoly_vanishes_exactly_at_the_eigenvalues(p, n, rnd):
    """charpoly(a) is monic of degree n, a is a root of it (Cayley-Hamilton),
    c in F_p is a root exactly when c I - a is singular, and a conjugate of
    a has the same one."""
    a = fp.mat([[rnd.randrange(p) if rnd.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)], p)
    c = fp.charpoly(p, a)
    assert len(c) == n + 1 and c[-1] == 1
    assert fp.poly_at(p, c, a) == fp.zero(p, n)
    for x in range(p):
        root = sum(ci * pow(x, i, p) for i, ci in enumerate(c)) % p == 0
        assert root == (fp.rank(p, fp.sub(p, fp.scalar(p, x, fp.identity(p, n)), a)) < n)
    g = _random_invertible(p, n, SplitMix64(rnd.getrandbits(64)))
    assert fp.charpoly(p, fp.mul(p, fp.mul(p, g, a), fp.inverse(p, g))) == c
    f = tuple(rnd.randrange(p) for _ in range(n)) + (1,)
    assert fp.charpoly(p, fp.companion(p, f)) == f


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=3), min_size=1, max_size=4),
    st.integers(0, 2**64 - 1),
)
def test_poly_factors_match_trial_division(p, lows, seed):
    """The factors of a product of monic polynomials of degree at most 3 are
    the monic irreducibles of degree at most 3 that divide it, each with the
    number of times it divides it."""
    f = (1,)
    for low in lows:
        f = fp.poly_mul(p, f, tuple(c % p for c in low) + (1,))
    divisors = [
        g
        for d in range(1, 4)
        for low in product(range(p), repeat=d)
        if fp.poly_is_irreducible(p, g := low + (1,)) and not fp.poly_mod(p, f, g)
    ]
    multiplicities = []
    for g in divisors:
        k, rest = 0, f
        while not fp.poly_mod(p, rest, g):
            k, rest = k + 1, fp.poly_divmod(p, rest, g)[0]
        multiplicities.append((g, k))
    assert fp.poly_factors(p, f, SplitMix64(seed)) == sorted(multiplicities, key=lambda gk: (len(gk[0]), gk[0]))
