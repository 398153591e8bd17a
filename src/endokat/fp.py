"""Exact linear algebra over prime fields.

Matrices are tuples of row tuples with entries in [0, p); the kernel module
supplies the hot primitives (product, reduced echelon form, spin-up) and
this layer adds the derived operations: nullspaces, inverses, canonical
subspace bases, matrix powers, and small polynomial arithmetic for
irreducibility tests and companion matrices.
"""

from __future__ import annotations

import functools
from itertools import product as _iproduct

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


def transpose(a):
    if not a:
        return ()
    return tuple(zip(*a))


def power(p, a, k):
    out = identity(len(a))
    while k:
        if k & 1:
            out = mat_mul(p, out, a)
        k >>= 1
        if k:
            a = mat_mul(p, a, a)
    return out


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


def solve(p, a, b):
    """One solution of a x = b, or None."""
    n = len(a[0]) if a else 0
    aug = [tuple(row) + (bi,) for row, bi in zip(a, b)]
    red, piv = rref(p, aug)
    x = [0] * n
    for row, pc in zip(red, piv):
        if pc == n:
            return None
        x[pc] = row[n]
    return tuple(x)


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


def all_vectors(p, n):
    """All vectors, first coordinate varying fastest (so e_1 precedes e_2)."""
    for t in _iproduct(*(range(p) for _ in range(n))):
        yield t[::-1]


def projective_vectors(p, n):
    """One representative per 1-dimensional subspace: first nonzero entry 1."""
    for v in all_vectors(p, n):
        j = next((i for i, x in enumerate(v) if x), None)
        if j is not None and v[j] == 1:
            yield v


# ---------------------------------------------------------------------------
# Polynomials over F_p: coefficient tuples, lowest degree first.


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(p, a, m):
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv) % p
        shift = len(a) - 1 - dm
        for i, x in enumerate(m):
            a[shift + i] = (a[shift + i] - c * x) % p
        a.pop()
    return poly_trim(a)


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
    while e:
        if e & 1:
            out = poly_mod(p, poly_mul(p, out, base), m)
        base = poly_mod(p, poly_mul(p, base, base), m)
        e >>= 1
    return out


def poly_is_irreducible(p, f):
    """Rabin's test: x^(p^d) = x mod f and gcd(x^(p^(d/q)) - x, f) = 1 for
    every prime q dividing d."""
    f = poly_trim(f)
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    x = (0, 1)
    xp = poly_powmod(p, x, p**d, f)
    if poly_trim([(a - b) % p for a, b in zip_pad(xp, x)]) != ():
        return False
    qs = set()
    dd = d
    q = 2
    while q * q <= dd:
        if dd % q == 0:
            qs.add(q)
            while dd % q == 0:
                dd //= q
        q += 1
    if dd > 1:
        qs.add(dd)
    for q in qs:
        xq = poly_powmod(p, x, p ** (d // q), f)
        diff = poly_trim([(a - b) % p for a, b in zip_pad(xq, x)])
        if poly_gcd(p, diff, f) != (1,):
            return False
    return True


def zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(tuple(a) + (0,) * (n - len(a)), tuple(b) + (0,) * (n - len(b)))


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

