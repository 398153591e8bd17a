"""Exact linear algebra over prime fields.

Matrices are tuples of row tuples with entries in [0, p); the kernel module
supplies the hot primitives (product, reduced echelon form, spin-up) and
this layer adds the derived operations: block products and powers of
matrix families (one kernel call per family, not per member or pair),
nullspaces, inverses, canonical subspace bases, characteristic polynomials,
and small polynomial arithmetic for irreducibility tests, factorisation and
companion matrices.
"""

from __future__ import annotations

import functools
from itertools import chain, product as _iproduct, zip_longest

from ._kernel import mat_mul, mat_vec, rref, spin
from .errors import InvalidInput


def mat(rows, p):
    return tuple(tuple(int(x) % p for x in row) for row in rows)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zero(n, m=None):
    m = n if m is None else m
    return tuple((0,) * m for _ in range(n))


def add(p, a, b):
    return tuple(tuple((x + y) % p for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def sub(p, a, b):
    return tuple(tuple((x - y) % p for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def scalar(p, c, a):
    return tuple(tuple((c * x) % p for x in row) for row in a)


def mul(p, a, b):
    return mat_mul(p, a, b)


def matvec(p, a, v):
    return mat_vec(p, a, v)


def stack(mats):
    """[m_1; ...; m_a]: the matrices' rows one after another."""
    return tuple(row for m in mats for row in m)


def side_by_side(mats):
    """[m_1 | ... | m_b]: row r joins the r-th rows of the matrices."""
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*mats))


def products(p, xs, ys):
    """Every product x_i y_j, as ``out[i][j]``, from one kernel call: the
    product [x_1; ...; x_a] [y_1 | ... | y_b] holds x_i y_j as its block
    (i, j).  The xs share one shape r x c and the ys one shape c x s."""
    if not xs or not ys:
        return [[] for _ in xs]
    r, s = len(xs[0]), len(ys[0][0])
    rows = mat_mul(p, stack(xs), side_by_side(ys))
    return [
        [tuple(row[j * s : (j + 1) * s] for row in rows[i * r : (i + 1) * r]) for j in range(len(ys))]
        for i in range(len(xs))
    ]


def noncommuting(p, xs, ys):
    """The first (i, j), j fastest, with x_i y_j != y_j x_i, or None when
    the two families commute: block (i, j) of one :func:`products` against
    block (j, i) of the other, which is the same product when xs is ys."""
    xy = products(p, xs, ys)
    yx = xy if xs is ys else products(p, ys, xs)
    return next(((i, j) for i in range(len(xs)) for j in range(len(ys)) if xy[i][j] != yx[j][i]), None)


def transpose(a):
    if not a:
        return ()
    return tuple(zip(*a))


def powers(p, mats, k):
    """m^k for every m of a nonempty family of n x n matrices, k >= 1, by
    square-and-multiply on diag(m_1, ..., m_a): O(log k) kernel calls for
    the whole family."""
    n, count = len(mats[0]), len(mats)
    pad = (0,) * n
    d = tuple(pad * i + tuple(row) + pad * (count - 1 - i) for i, m in enumerate(mats) for row in m)
    out = None
    while True:
        if k & 1:
            out = d if out is None else mat_mul(p, out, d)
        k >>= 1
        if not k:
            break
        d = mat_mul(p, d, d)
    return [tuple(row[i * n : (i + 1) * n] for row in out[i * n : (i + 1) * n]) for i in range(count)]


def rank(p, a):
    if not a:
        return 0
    return len(rref(p, a)[0])


def row_space(p, rows):
    """Canonical (RREF) basis of the span of the given row vectors."""
    rows = [r for r in rows if any(x % p for x in r)]
    if not rows:
        return ()
    return rref(p, rows)[0]


def column_space(p, a):
    """Canonical basis of the column span, as RREF rows."""
    return row_space(p, transpose(a))


def in_span(p, basis_rows, v):
    """Whether v lies in the span of RREF rows."""
    w = list(x % p for x in v)
    for row in basis_rows:
        pc = next(j for j, x in enumerate(row) if x)
        if w[pc]:
            c = w[pc]
            for j in range(len(w)):
                w[j] = (w[j] - c * row[j]) % p
    return not any(w)


def nullspace(p, a):
    """Basis of the right nullspace {v : a v = 0}, as a list of vectors."""
    if not a:
        return []
    n = len(a[0])
    red, piv = rref(p, a)
    piv_set = set(piv)
    free = [j for j in range(n) if j not in piv_set]
    out = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, pc in zip(red, piv):
            v[pc] = (-row[f]) % p
        out.append(tuple(v))
    return out


def inverse(p, a):
    """Inverse over F_p, or None if singular."""
    n = len(a)
    aug = [tuple(a[i]) + tuple(int(i == j) for j in range(n)) for i in range(n)]
    red, piv = rref(p, aug)
    if list(piv[:n]) != list(range(n)) or len(piv) < n:
        return None
    return tuple(row[n:] for row in red[:n])


def is_invertible(p, a):
    return rank(p, a) == len(a)


def flatten(a):
    return tuple(x for row in a for x in row)


def unflatten(v, n, m=None):
    m = n if m is None else m
    return tuple(tuple(v[i * m + j] for j in range(m)) for i in range(n))


def spin_subspace(p, gens, seeds):
    """Canonical basis of the smallest gens-stable subspace containing the
    seed vectors."""
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
    one = identity(len(a))
    out = add(p, a, scalar(p, f[-2], one))
    for c in reversed(f[:-2]):
        out = add(p, mat_mul(p, out, a), scalar(p, c, one))
    return out


def charpoly(p, a):
    """det(x I - a), lowest coefficient first, in O(n^3): a is brought to
    upper Hessenberg form h by similarities, and the leading principal
    minors of x I - h follow a recurrence along the subdiagonal (Cohen, A
    Course in Computational Algebraic Number Theory, Algorithm 2.2.9)."""
    n, h = len(a), [list(row) for row in a]
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
        rows.append(tuple(row))
    return tuple(rows)

