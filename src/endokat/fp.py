"""Exact linear algebra over prime fields.

Matrices are the kernel's :class:`Matrix`, one packed int per row, from
:func:`mat` to ``Matrix.tuples``; a vector is a matrix of one row.  The
kernel supplies the hot primitives (product, reduced echelon form, spin-up)
and this layer the derived operations, by shifts, masks and whole-row int
operations: stacking, joins, block products and powers of matrix families
(one kernel call per family), nullspaces, inverses, echelon bases with their
pivots, characteristic polynomials, and small polynomial arithmetic.
"""

from __future__ import annotations

import functools
from itertools import chain, product as _iproduct, zip_longest

from ._kernel import Matrix, mat_mul, mat_vec, rref, spin
from ._kernel._matrix import combine, cut, fuse, pack, reduce, slot_bits
from .errors import InvalidInput


def mat(rows, p):
    """The packed matrix of rows of ints, reduced mod p, or a packed one as it is."""
    return rows if isinstance(rows, Matrix) else pack(p, rows)


def identity(p, n):
    return Matrix(p, n, tuple(1 << slot_bits(p) * (n - 1 - i) for i in range(n)), tuple(range(n)))


def zero(p, n, m=None):
    return Matrix(p, n if m is None else m, (0,) * n)


def add(p, a, b):
    if p == 2:
        return Matrix(p, a.ncols, tuple(x ^ y for x, y in zip(a.rows, b.rows)))
    return Matrix(p, a.ncols, tuple(reduce(p, x + y, a.ncols) for x, y in zip(a.rows, b.rows)))


def sub(p, a, b):
    return add(p, a, scalar(p, -1, b))


def scalar(p, c, a):
    return Matrix(p, a.ncols, tuple(reduce(p, c % p * x, a.ncols) for x in a.rows))


def mul(p, a, b):
    return mat_mul(p, a, b)


def matvec(p, a, v):
    return mat_vec(p, a, v)


def combination(p, coeffs, a):
    """sum_k coeffs[k] a_k over the rows a_k of a, as a vector."""
    return Matrix(p, a.ncols, tuple(combine(p, [[c % p for c in coeffs]], a.rows, a.ncols)))


def stack(mats):
    """[m_1; ...; m_a]: the matrices' rows one after another."""
    return Matrix(mats[0].p, mats[0].ncols, tuple(chain.from_iterable(m.rows for m in mats)))


def side_by_side(mats):
    """[m_1 | ... | m_b]: row r joins the r-th rows of the matrices."""
    widths = [slot_bits(mats[0].p) * m.ncols for m in mats]
    return Matrix(mats[0].p, sum(m.ncols for m in mats), tuple(fuse([m.rows for m in mats], widths)))


def _blocks(a, r, count):
    """The packed rows of a's blocks, r rows high and count across, as ``out[i][j]``."""
    fields = cut(a.rows, count, slot_bits(a.p) * (a.ncols // count))
    return [list(zip(*fields[i : i + r])) for i in range(0, len(a), r)]


def _block_rows(p, xs, ys):
    """The packed rows of every x_i y_j, as ``out[i][j]``: block (i, j) of one
    product [x_1; ...; x_a] [y_1 | ... | y_b], for xs r x c and ys c x s."""
    if not xs or not ys:
        return [[] for _ in xs]
    return _blocks(mat_mul(p, stack(xs), side_by_side(ys)), len(xs[0]), len(ys))


def products(p, xs, ys):
    """Every product x_i y_j, as ``out[i][j]``, from one kernel call."""
    return [[Matrix(p, ys[0].ncols, rows) for rows in out] for out in _block_rows(p, xs, ys)]


def noncommuting(p, xs, ys):
    """The first (i, j), j fastest, with x_i y_j != y_j x_i, or None when
    the two families commute: block (i, j) of one :func:`products` against
    block (j, i) of the other.  When xs is ys that is one product, and only
    blocks with j > i are compared: the test is symmetric in i and j and the
    diagonal commutes, so the first failing pair has i < j anyway."""
    same = xs is ys
    xy = _block_rows(p, xs, ys)
    yx = xy if same else _block_rows(p, ys, xs)
    pairs = ((i, j) for i in range(len(xs)) for j in range(i + 1 if same else 0, len(ys)))
    return next(((i, j) for i, j in pairs if xy[i][j] != yx[j][i]), None)


transpose = Matrix.transpose


def block_diagonal(mats):
    """diag(m_1, ..., m_a) for square matrices of one size."""
    p, n, count = mats[0].p, len(mats[0]), len(mats)
    shifts = [slot_bits(p) * n * (count - 1 - i) for i in range(count)]
    return Matrix(p, n * count, tuple(x << shift for shift, m in zip(shifts, mats) for x in m.rows))


def powers(p, mats, k):
    """m^k for every m of a nonempty family of n x n matrices, k >= 1, by
    square-and-multiply on diag(m_1, ..., m_a): O(log k) kernel calls for
    the whole family."""
    n, count, d = len(mats[0]), len(mats), block_diagonal(mats)
    out = None
    while True:
        if k & 1:
            out = d if out is None else mat_mul(p, out, d)
        k >>= 1
        if not k:
            break
        d = mat_mul(p, d, d)
    return [Matrix(p, n, row[i]) for i, row in enumerate(_blocks(out, n, count))]


def rank(p, a):
    return len(rref(p, a)) if len(a) else 0


def row_space(p, a):
    """Canonical (RREF) basis of the span of the rows of a, with pivots."""
    return rref(p, a) if any(a.rows) else Matrix(p, a.ncols, (), ())


def column_space(p, a):
    """Canonical basis of the column span, as RREF rows."""
    return row_space(p, transpose(a))


def in_span(p, basis, v):
    """Whether v minus the multiples of the rows of a reduced echelon basis
    given by its entries at their pivots is zero."""
    (x,), n, bits = v.rows, basis.ncols, slot_bits(p)
    mask = (1 << bits) - 1
    for row, pc in zip(basis.rows, basis.pivots):
        f = x >> bits * (n - 1 - pc) & mask
        if f:
            x = x ^ row if p == 2 else reduce(p, x + (p - f) * row, n)
    return not x


def nullspace(p, a):
    """Basis of {v : a v = 0}, one row per free column f of the echelon
    form: 1 at f, and minus column f of the echelon form at its pivots."""
    n, bits, red = a.ncols, slot_bits(p), row_space(p, a)
    mask = (1 << bits) - 1
    out = []
    for f in sorted(set(range(n)) - set(red.pivots)):
        shift = bits * (n - 1 - f)
        v = 1 << shift
        for row, pc in zip(red.rows, red.pivots):
            e = row >> shift & mask
            if e:
                v |= (p - e) << bits * (n - 1 - pc)
        out.append(v)
    return Matrix(p, n, tuple(out))


def inverse(p, a):
    """Inverse over F_p, or None if singular."""
    n = len(a)
    red = rref(p, side_by_side([a, identity(p, n)]))
    if red.pivots[:n] != tuple(range(n)):
        return None
    mask = (1 << slot_bits(p) * n) - 1
    return Matrix(p, n, tuple(x & mask for x in red.rows))


def is_invertible(p, a):
    return rank(p, a) == len(a)


def flatten(mats):
    """The matrix whose row i holds the entries of mats[i], row by row."""
    return stack(mats).reshape(len(mats), len(mats[0]) * mats[0].ncols)


def unflatten(v, n, m=None):
    """The n x m matrix of v's entries, row by row."""
    return v.reshape(n, n if m is None else m)


def spin_subspace(p, gens, seeds):
    """Canonical basis of the smallest gens-stable subspace holding the
    rows of ``seeds``."""
    return spin(p, gens, seeds)


# ---------------------------------------------------------------------------
# Polynomials over F_p: coefficient tuples, lowest degree first.


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_sub(p, a, b):
    return poly_trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def poly_mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_divmod(p, a, m):
    """Quotient and remainder of a by a nonzero m."""
    a, dm, inv = list(a), len(m) - 1, pow(m[-1], -1, p)
    q = [0] * max(len(a) - dm, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = (a[shift + dm] * inv) % p
        for i in range(dm + 1):
            a[shift + i] = (a[shift + i] - c * m[i]) % p
    return poly_trim(q), poly_trim(a[:dm])


def poly_mod(p, a, m):
    return poly_divmod(p, a, m)[1]


def poly_gcd(p, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(p, a, b)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((x * inv) % p for x in a)
    return a


def poly_powmod(p, base, e, m):
    out = (1,)
    base = poly_mod(p, base, m)
    for bit in bin(e)[2:]:
        out = poly_mod(p, poly_mul(p, out, out), m)
        if bit == "1":
            out = poly_mod(p, poly_mul(p, out, base), m)
    return out


def poly_is_irreducible(p, f):
    """Ben-Or's test: a monic f of degree d >= 1 is irreducible exactly when
    gcd(x^(p^e) - x, f) = 1 for every e <= d/2, the product of the monic
    irreducibles of degree dividing e being x^(p^e) - x."""
    f = poly_trim(f)
    x = h = (0, 1)
    for _ in range((len(f) - 1) // 2):
        h = poly_powmod(p, h, p, f)
        if poly_gcd(p, poly_sub(p, h, x), f) != (1,):
            return False
    return len(f) > 1


def poly_factors(p, f, rng):
    """(factor, multiplicity) for the monic irreducible factors of a monic f,
    sorted by degree and coefficients.  As in :func:`poly_is_irreducible`,
    gcd(x^(p^d) - x, rest) is the product of the degree-d factors of the
    rest of f; each is split off by :func:`_equal_degree` (Cantor &
    Zassenhaus 1981) and divided out, and a rest of degree below 2(d + 1)
    is 1 or irreducible."""
    out, rest = [], poly_trim(f)
    x = h = (0, 1)
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = poly_powmod(p, h, p, rest)
        g = poly_gcd(p, poly_sub(p, h, x), rest)
        for q in _equal_degree(p, g, d, rng) if len(g) > 1 else ():
            k, (quo, rem) = 0, poly_divmod(p, rest, q)
            while not rem:
                k, rest = k + 1, quo
                quo, rem = poly_divmod(p, rest, q)
            out.append((q, k))
    if len(rest) > 1:
        out.append((rest, 1))
    return sorted(out, key=lambda qk: (len(qk[0]), qk[0]))


def _equal_degree(p, g, d, rng):
    """The factors of a squarefree monic g whose factors all have degree d.
    In F_p[x]/(g), a product of fields F_(p^d), a^((p^d - 1)/2) - 1 (odd p)
    or the trace a + a^2 + ... + a^(2^(d-1)) (p = 2) of a random a is 0 in
    about half the fields, so its gcd with g splits g."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = poly_trim([rng.below(p) for _ in range(len(g) - 1)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = poly_mod(p, poly_mul(p, t, t), g)
                b = poly_sub(p, b, t)
        else:
            b = poly_sub(p, poly_powmod(p, a, (p**d - 1) // 2, g), (1,))
        c = poly_gcd(p, b, g)
        if 1 < len(c) < len(g):
            return _equal_degree(p, c, d, rng) + _equal_degree(p, poly_divmod(p, g, c)[0], d, rng)


def poly_at(p, f, a):
    """f(a) for a monic f of degree at least 1 and a square matrix a, by
    Horner's rule."""
    one = identity(p, len(a))
    out = add(p, a, scalar(p, f[-2], one))
    for c in reversed(f[:-2]):
        out = add(p, mat_mul(p, out, a), scalar(p, c, one))
    return out


def charpoly(p, a):
    """det(x I - a), lowest coefficient first, in O(n^3): a is brought to
    upper Hessenberg form h by similarities, and the leading principal
    minors of x I - h follow a recurrence along the subdiagonal (Cohen, A
    Course in Computational Algebraic Number Theory, Algorithm 2.2.9),
    on a's entries unpacked."""
    n, h = len(a), [list(row) for row in a.tuples()]
    for c in range(n - 2):
        r = c + 1
        piv = next((i for i in range(r, n) if h[i][c]), None)
        if piv is None:
            continue
        h[piv], h[r] = h[r], h[piv]
        for row in h:
            row[piv], row[r] = row[r], row[piv]
        for i in range(r + 1, n):
            u = (h[i][c] * pow(h[r][c], -1, p)) % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[r])]
                for row in h:
                    row[r] = (row[r] + u * row[i]) % p
    minors = [(1,)]
    for m in range(n):
        q = poly_mul(p, ((-h[m][m]) % p, 1), minors[m])
        t = 1
        for i in range(1, m + 1):
            t = (t * h[m - i + 1][m - i]) % p
            q = poly_sub(p, q, tuple((t * h[m - i][m] * y) % p for y in minors[m - i]))
        minors.append(q)
    return minors[n]


@functools.lru_cache(maxsize=64)
def lex_min_irreducible(p, k):
    """First monic irreducible of degree k over F_p in the deterministic
    sweep over coefficient tuples (c_0, ..., c_{k-1}), c_0 most significant.
    Fixed here so instances are reproducible across implementations.  For
    k >= 2 the sweep starts at c_0 = 1: x divides every polynomial with
    c_0 = 0, so none of the p^(k-1) of them is irreducible."""
    first = range(1 if k >= 2 else 0, p)
    for low in _iproduct(first, *(range(p) for _ in range(k - 1))):
        f = tuple(low) + (1,)
        if poly_is_irreducible(p, f):
            return f
    raise InvalidInput("no irreducible polynomial found")


def companion(p, f):
    """Companion matrix of a monic polynomial (lowest coeff first)."""
    k = len(f) - 1
    rows = []
    for i in range(k):
        row = [0] * k
        if i:
            row[i - 1] = 1
        row[k - 1] = (-f[i]) % p
        rows.append(row)
    return mat(rows, p)

