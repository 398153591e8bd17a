"""The packed matrix value and the F_p layer's reshaping operations against
the tuple code they replaced (``references``): stacking, side-by-side
joins, block products, flattening, transposition, sums, scalar multiples and
span membership, at every byte-slot prime and at 64-bit-slot primes up to
the largest below 2**20."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from endokat import fp
from endokat._kernel._matrix import pack

from references import (
    tuple_add,
    tuple_block,
    tuple_in_span,
    tuple_mat_mul,
    tuple_scalar,
    tuple_side_by_side,
    tuple_stack,
    tuple_transpose,
)

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 257, 65537, 1048573])
SEEDS = st.integers(0, 2**32 - 1)


def _rows(rng, p, r, c):
    """r rows of c entries in [0, p), each zero with probability 1/3."""
    return tuple(tuple(rng.randrange(p) if rng.random() < 2 / 3 else 0 for _ in range(c)) for _ in range(r))


@settings(max_examples=150, deadline=None)
@given(PRIMES, st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), SEEDS)
def test_reshaping_matches_tuple_code(p, r, c, count, seed):
    rng = random.Random(seed)
    mats = [_rows(rng, p, r, c) for _ in range(count)]
    packed = [pack(p, m, c) for m in mats]
    a, b = mats[0], mats[-1]
    assert fp.stack(packed).tuples() == tuple_stack(mats)
    joined = fp.side_by_side(packed)
    assert joined.ncols == count * c and joined.tuples() == tuple_side_by_side(mats)
    assert fp.transpose(packed[0]).tuples() == tuple_transpose(a, c)
    flat = fp.flatten([packed[0]])
    assert flat.tuples() == (sum(a, ()),)
    assert fp.unflatten(flat, r, c) == packed[0]
    assert fp.flatten(packed).tuples() == tuple(sum(m, ()) for m in mats)
    entries = sum(tuple_stack(mats), ())
    assert fp.unflatten(fp.stack(packed), 1, len(entries)).tuples() == (entries,)
    assert fp.unflatten(fp.flatten([fp.stack(packed)]), count * r, c) == fp.stack(packed)
    assert fp.add(p, packed[0], packed[-1]).tuples() == tuple_add(p, a, b)
    assert fp.sub(p, packed[0], packed[-1]).tuples() == tuple_add(p, a, tuple_scalar(p, -1, b))
    k = rng.randrange(-2 * p, 2 * p)
    assert fp.scalar(p, k, packed[0]).tuples() == tuple_scalar(p, k, a)
    if r:
        coeffs = [rng.randrange(p) for _ in range(r)]
        assert fp.combination(p, coeffs, packed[0]).tuples() == tuple_mat_mul(p, (tuple(coeffs),), a)


@settings(max_examples=100, deadline=None)
@given(PRIMES, st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), SEEDS)
def test_block_products_match_tuple_code(p, r, c, a_count, b_count, seed):
    """Every block of fp.products is the product of its pair, and the
    powers of a family are those of its members."""
    rng = random.Random(seed)
    xs = [_rows(rng, p, r, c) for _ in range(a_count)]
    ys = [_rows(rng, p, c, r) for _ in range(b_count)]
    got = fp.products(p, [pack(p, x) for x in xs], [pack(p, y) for y in ys])
    assert [[m.tuples() for m in row] for row in got] == [[tuple_mat_mul(p, x, y) for y in ys] for x in xs]
    whole = tuple_mat_mul(p, tuple_stack(xs), tuple_side_by_side(ys))
    assert [[tuple_block(whole, i, j, r, r) for j in range(b_count)] for i in range(a_count)] == [
        [m.tuples() for m in row] for row in got
    ]
    squares = [_rows(rng, p, r, r) for _ in range(a_count)]
    cubes = [tuple_mat_mul(p, tuple_mat_mul(p, m, m), m) for m in squares]
    assert [m.tuples() for m in fp.powers(p, [pack(p, m) for m in squares], 3)] == cubes


@settings(max_examples=150, deadline=None)
@given(PRIMES, st.integers(0, 6), st.integers(1, 8), SEEDS)
def test_in_span_matches_tuple_code(p, r, n, seed):
    """A combination of the rows lies in their span; a random vector lies
    in it exactly when the tuple code, scanning each row for its pivot,
    says so.  The pivots the echelon basis carries are those scans."""
    rng = random.Random(seed)
    basis = fp.row_space(p, pack(p, _rows(rng, p, r, n), n))
    rows = basis.tuples()
    assert basis.pivots == tuple(next(j for j, x in enumerate(row) if x) for row in rows)
    coeffs = [rng.randrange(p) for _ in rows]
    inside = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
    assert fp.in_span(p, basis, pack(p, [inside]))
    (v,) = _rows(rng, p, 1, n)
    assert fp.in_span(p, basis, pack(p, [v])) == tuple_in_span(p, rows, v)


@pytest.mark.parametrize("p", [2, 13, 17, 1048573])
def test_matrix_value(p):
    """Packing reduces every entry; equality and hashing read the packed
    rows, p and the width; the repr is the tuples'; a slice of an echelon
    basis keeps its pivots."""
    rows = ((p + 1, -1, 0), (2 * p, 3, -p - 2))
    m = fp.mat(rows, p)
    want = tuple(tuple(x % p for x in row) for row in rows)
    assert m.tuples() == want and repr(m) == repr(want)
    assert m == fp.mat(want, p) and hash(m) == hash(fp.mat(want, p)) and fp.mat(m, p) is m
    assert m != fp.mat(want, 19) and m != pack(p, [], 3) and m != want
    basis = fp.row_space(p, fp.identity(p, 3))
    assert basis[1:3].pivots == (1, 2) and basis[1:3] == fp.identity(p, 3)[1:3]
