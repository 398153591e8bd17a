"""Matrix machinery: commutants, lines, decomposition, transport, lifting,
field extraction."""

import pytest

from endokat import config, fp
from endokat.errors import CapExceeded, HypothesisViolation, InvalidInput
from endokat.instances import matrix_bimodule, _random_invertible
from endokat.linearize import (
    Line,
    _restricted_ideal,
    algebra_closure,
    centralizer,
    common_invariant_subspace,
    decompose,
    extract_field,
    is_field,
    is_irreducible,
    lift_endomorphism,
    lines,
    projection_onto_line,
    transporter,
)
from endokat.rng import SplitMix64


def E(n, i, j, p=2):
    return fp.mat([[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)], p)


@pytest.fixture
def m2():
    return algebra_closure([E(2, 0, 0), E(2, 0, 1), E(2, 1, 0)], p=2, n=2)


@pytest.fixture
def f4():
    return algebra_closure([fp.mat([[0, 1], [1, 1]], 2)], p=2, n=2)


@pytest.fixture
def scal2():
    return algebra_closure([], p=2, n=2)


def test_algebra_closure_examples(m2, f4, scal2):
    assert scal2.dim == 1 and scal2.size == 2
    assert f4.dim == 2 and sorted(map(fp.flatten, f4.elements(config.CLOSURE_CAP))) == sorted(
        [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)]
    )
    m = fp.mat([[0, 1], [1, 1]], 2)
    assert fp.mul(2, m, m) == fp.add(2, m, fp.identity(2))
    assert m2.dim == 4 and m2.size == 16
    with pytest.raises(CapExceeded):
        m2.elements(10)
    with pytest.raises(InvalidInput):
        algebra_closure([], p=2, n=0)


def test_elements_walk_order(m2):
    """elements()[i] is the combination whose coefficients are the base-p
    digits of i, most significant first; witnesses and transporters are
    first hits in this order."""
    f27 = algebra_closure([fp.companion(3, fp.lex_min_irreducible(3, 3))], p=3, n=3)
    for alg in (m2, f27):
        p, d = alg.p, alg.dim
        elems = alg.elements(config.CLOSURE_CAP)
        assert len(elems) == p**d
        for i, m in enumerate(elems):
            digits = [(i // p ** (d - 1 - j)) % p for j in range(d)]
            want = fp.zero(alg.n)
            for c, b in zip(digits, alg.basis):
                want = fp.add(p, want, fp.scalar(p, c, b))
            assert m == want


def test_centralizer_examples(m2, f4):
    c = centralizer(m2.basis, p=2, n=2)
    assert c.dim == 1  # scalars only
    c2 = centralizer(f4.basis, p=2, n=2)
    assert c2.basis == f4.basis
    c3 = centralizer([fp.identity(2)], p=2, n=2)
    assert c3.dim == 4
    # inclusion-reversing and stable under triple application
    assert c.leq(c3)
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


def test_irreducibility(m2, f4, scal2):
    ok, w = is_irreducible(m2)
    assert ok and w is None
    ok, w = is_irreducible(scal2)
    assert not ok and w == ((1, 0),)
    ok, _ = is_irreducible(f4)
    assert ok
    assert common_invariant_subspace(m2, scal2) is None
    assert common_invariant_subspace(f4, f4) is None
    assert common_invariant_subspace(scal2, scal2) == ((1, 0),)


def test_lines_examples(m2, f4, scal2):
    ls = lines(m2)
    assert [l.subspace for l in ls] == [((0, 1),), ((1, 0),), ((1, 1),)]
    assert all(fp.column_space(2, l.witness) == l.subspace for l in ls)
    assert lines(f4) == [Line(fp.rref(2, fp.identity(2))[0], fp.identity(2))]
    lsc = lines(scal2)
    assert len(lsc) == 1 and lsc[0].dim == 2


def test_lines_beyond_cap_match_enumeration(monkeypatch):
    """Force the ideal-refinement path and compare with full enumeration."""
    inst = matrix_bimodule(2, 2, 2, 99)
    galg = centralizer(inst["delta_generators"], p=2, n=4)
    assert galg.size == 2**8
    monkeypatch.setattr(config, "CLOSURE_CAP", 100)
    capped = lines(galg)  # refinement path
    monkeypatch.setattr(config, "CLOSURE_CAP", 2**8)
    full = lines(galg)  # enumeration path
    assert [l.subspace for l in capped] == [l.subspace for l in full]
    assert len(capped) == 5  # projective line over the quartic field
    for l in capped:
        assert fp.column_space(2, l.witness) == l.subspace
    # a commutant genuinely above the default cap: all of Mat_4(F_2)
    big = centralizer([fp.identity(4)], p=2, n=4)
    assert big.size == 2**16
    monkeypatch.undo()
    capped4 = lines(big)  # default cap 20000 forces refinement
    assert len(capped4) == 15 and all(l.dim == 1 for l in capped4)
    monkeypatch.setattr(config, "CLOSURE_CAP", 2**16)
    full4 = lines(big)
    assert [l.subspace for l in capped4] == [l.subspace for l in full4]


def test_projection_and_decomposition(m2, f4, scal2):
    ls = lines(m2)
    l_e1 = next(l for l in ls if l.subspace == ((1, 0),))
    pi = projection_onto_line(l_e1, m2, scal2)
    assert pi == E(2, 0, 0)
    dec = decompose(m2, scal2)
    assert len(dec.lines) == 2
    assert fp.add(2, dec.projections[0], dec.projections[1]) == fp.identity(2)
    dec.verify(scal2)
    c2 = centralizer(f4.basis, p=2, n=2)
    dec2 = decompose(f4, c2)
    assert len(dec2.lines) == 1 and dec2.projections[0] == fp.identity(2)


def test_transporter(m2, scal2):
    ls = lines(m2)
    l_e1 = next(l for l in ls if l.subspace == ((1, 0),))
    l_e2 = next(l for l in ls if l.subspace == ((0, 1),))
    t = transporter(l_e1, l_e2, m2, scal2)
    assert t == fp.mat([[0, 1], [1, 0]], 2)  # the coordinate swap
    assert transporter(l_e1, l_e1, m2, scal2) == fp.identity(2)
    # twisted instance: postconditions hold after conjugation
    inst = matrix_bimodule(2, 1, 2, 7)
    galg = centralizer(inst["delta_generators"], p=2, n=2)
    dalg = centralizer(galg.basis, p=2, n=2)
    lt = lines(galg)
    t2 = transporter(lt[0], lt[1], galg, dalg)
    assert fp.is_invertible(2, t2)
    assert fp.column_space(2, fp.mul(2, t2, fp.transpose(lt[0].subspace))) == lt[1].subspace


def test_lift(m2, scal2):
    dec = decompose(m2, scal2)
    line = dec.lines[0]
    one = fp.identity(1)
    hat, = lift_endomorphism([one], line, dec, m2, scal2, _restricted_ideal(m2, line.subspace))
    assert hat == fp.identity(2)
    # scalar lifts to the global scalar
    inst = matrix_bimodule(3, 1, 2, 3)
    galg = centralizer(inst["delta_generators"], p=3, n=2)
    dalg = centralizer(galg.basis, p=3, n=2)
    dec3 = decompose(galg, dalg)
    two = fp.mat([[2]], 3)
    line3 = dec3.lines[0]
    gl3 = _restricted_ideal(galg, line3.subspace)
    hat1, hat3 = lift_endomorphism([fp.identity(1), two], line3, dec3, galg, dalg, gl3)
    assert hat1 == fp.identity(2)
    assert hat3 == fp.scalar(3, 2, fp.identity(2))


def test_is_field(m2, f4, scal2):
    assert is_field(scal2)
    assert is_field(f4)
    assert not is_field(m2)
    diag = algebra_closure([E(2, 0, 0)], p=2, n=2)
    assert not is_field(diag)
    f8 = algebra_closure([fp.companion(2, fp.lex_min_irreducible(2, 3))], p=2, n=3)
    assert is_field(f8) and f8.dim == 3


def _assert_joint_commutant(rep, inst):
    """Schur's lemma: the joint commutant of an irreducible action is the
    coefficient field, so the constructed field must equal it."""
    gens = list(inst["gamma_generators"]) + list(inst["delta_generators"])
    assert rep.field_algebra().basis == centralizer(gens, p=rep.p, n=rep.n).basis


def test_extract_field_ground_truths():
    cases = [(2, 1, 2, 0), (2, 2, 1, 0), (3, 1, 2, 5), (2, 1, 3, 11), (3, 3, 2, 0), (2, 4, 2, 0)]
    for p, k, m, seed in cases:
        inst = matrix_bimodule(p, k, m, seed)
        rep = extract_field(p, k * m, inst["gamma_generators"], inst["delta_generators"])
        assert rep.order == p**k and rep.vs_dimension == m
        rep.verify(inst["gamma_generators"], inst["delta_generators"])
        _assert_joint_commutant(rep, inst)


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
        gg = [fp.mul(2, fp.mul(2, g, x), gi) for x in base["gamma_generators"]]
        dd = [fp.mul(2, fp.mul(2, g, x), gi) for x in base["delta_generators"]]
        rep = extract_field(2, 2, gg, dd)
        assert (rep.order, rep.vs_dimension) == (2, 2)


def test_base_case_consistency():
    """When the commutant is a division algebra, the extracted field equals
    it, and the double commutant coincides (the opposite action is the same
    set over a finite field)."""
    inst = matrix_bimodule(2, 2, 1, 4)
    galg = centralizer(inst["delta_generators"], p=2, n=2)
    assert all(
        fp.is_invertible(2, m) for m in galg.elements(config.CLOSURE_CAP) if any(any(r) for r in m)
    )
    rep = extract_field(2, 2, inst["gamma_generators"], inst["delta_generators"])
    kalg = rep.field_algebra()
    assert kalg.basis == galg.basis
    dalg = centralizer(galg.basis, p=2, n=2)
    assert dalg.basis == galg.basis


def test_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        extract_field(2, 2, [fp.identity(2)], [fp.identity(2)])  # reducible
    a = fp.mat([[0, 1], [0, 0]], 2)
    b = fp.mat([[0, 0], [1, 0]], 2)
    with pytest.raises(HypothesisViolation):
        extract_field(2, 2, [a], [b])  # families do not commute
    with pytest.raises(InvalidInput):
        extract_field(2, 2, [], [fp.identity(2)])
