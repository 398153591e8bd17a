"""Pure-Python kernel: integer column reduction and F_p matrix primitives.

The F_p primitives run under either backend.  The lattice primitives are
the reference for the compiled extension ``_core.c``, which returns the same
values; they are selected at import when the extension is unavailable (or
when ENDOKAT_PURE=1), and called by the compiled backend for inputs beyond
its word-size margin.

The integer primitives work on lattices L with diag(d) * Z^r <= L <= Z^r,
where d[i] is the order of the i-th cyclic coordinate of a finite abelian
group.  ``hnf_kernel`` is the Hermite form modulo the determinant (Domich,
Kannan & Trotter 1987; Cohen 1993, Alg. 2.4.8): one elimination pass per
row, in which each column with a nonzero entry at that row is combined with
the pivot by the unimodular transform of one extended gcd, instead of a
Euclid loop over all the columns.  Because the relation vectors d[k]*e_k
always lie in L, adding a multiple of one to a column leaves L unchanged, so
after every combination the entries at each later row k are reduced into
[0, d[k]); the entries at row i are gcds of entries already in [0, d[i]),
and each Bezout coefficient is below d[i] in absolute value.  Entries
therefore never grow: they stay machine-word sized for group orders within
the configured cap, whatever the input columns.

The F_p primitives take and return the packed matrices of ``_matrix`` at
every p: a row operation is one int operation and one reduction.
"""

from math import gcd
from operator import mod

from ._matrix import Matrix, combine, reduce, slot_bits, unpack


def hnf_kernel(mods, cols):
    """Canonical column Hermite form of span(cols) + diag(mods)*Z^r.

    ``cols`` is a sequence of integer columns, each read up to length r =
    len(mods) (a shorter one raises IndexError).  Returns the r x r
    lower-triangular basis as a tuple of row tuples (positive diagonal,
    entries left of each pivot reduced into [0, pivot)).

    One elimination pass per row i.  The first working column with a
    nonzero entry at row i becomes the pivot, and every later such column
    is combined with it by the 2 x 2 unimodular transform of the extended
    gcd of the two entries (a subtraction when one divides the other),
    which clears the column at row i.  The relation column mods[i]*e_i is
    folded in the same way: the pivot's entry becomes its gcd with
    mods[i], and (mods[i]/gcd) times the old pivot, zero from row i up,
    stays a working column.  Columns that become zero are dropped.
    """
    r = len(mods)
    if r == 1:
        # The lattice is gcd(mods[0], c_1, c_2, ...) Z.
        return ((gcd(mods[0], *[c[0] for c in cols]),),)
    work = []
    for col in cols:
        c = list(map(mod, col, mods))
        if len(c) < r:
            raise IndexError(f"column of length {len(c)} for {r} moduli")
        if any(c):
            work.append(c)

    pivots = []
    for i in range(r):
        below = range(i + 1, r)
        piv = None
        rest = []
        for c in work:
            b = c[i]
            if not b:
                rest.append(c)
                continue
            if piv is None:
                piv = c
                continue
            a = piv[i]
            if a % b == 0:
                piv, c, a, b = c, piv, b, a
            if b % a == 0:
                q = b // a
                for k in below:
                    c[k] = (c[k] - q * piv[k]) % mods[k]
            else:
                # x a + y b = g: the transform [[x, y], [b/g, -a/g]] of
                # (piv, c) has determinant -1.
                g = gcd(a, b)
                ag, bg = a // g, b // g
                x = pow(ag, -1, bg)
                y = (1 - x * ag) // bg
                piv[i] = g
                for k in below:
                    m, u, v = mods[k], piv[k], c[k]
                    piv[k] = (x * u + y * v) % m
                    c[k] = (bg * u - ag * v) % m
            c[i] = 0
            if any(c):
                rest.append(c)
        d = mods[i]
        if piv is None:
            piv = [0] * r
            piv[i] = d
        else:
            # The same transform with d e_i, which is zero off row i: the
            # pivot becomes x piv + y d e_i, and the other column (d/g) piv.
            a = piv[i]
            g = gcd(a, d)
            q = d // g
            c = [0] * r
            for k in below:
                c[k] = q * piv[k] % mods[k]
            if g != a:
                x = pow(a // g, -1, q)
                piv[i] = g
                for k in below:
                    piv[k] = x * piv[k] % mods[k]
            if any(c):
                rest.append(c)
        pivots.append(piv)
        work = rest

    # Off-diagonal normalization: entries of earlier pivot columns at row i
    # are reduced into [0, pivots[i][i]).
    for i in range(r):
        pi = pivots[i]
        hii = pi[i]
        for j in range(i):
            pj = pivots[j]
            q = pj[i] // hii
            if q:
                pj[i] -= q * hii
                for k in range(i + 1, r):
                    pj[k] = (pj[k] - q * pi[k]) % mods[k]

    return tuple(zip(*pivots))


def box_reduce(mods, hrows, vec):
    """Canonical representative of ``vec``'s coset modulo the lattice with
    basis ``hrows``: the unique member of the box prod_i [0, hrows[i][i])."""
    r = len(mods)
    w = [vec[i] % mods[i] for i in range(r)]
    for i in range(r):
        q = w[i] // hrows[i][i]
        if q:
            w[i] -= q * hrows[i][i]
            for k in range(i + 1, r):
                w[k] = (w[k] - q * hrows[k][i]) % mods[k]
    return tuple(w)


# ---------------------------------------------------------------------------
# F_p matrix primitives on packed matrices (``_matrix``).


def _insert(p, basis, rows, n):
    """Add packed rows of n entries to ``basis``, {shift of a pivot slot:
    echelon row with 1 there}, until it spans F_p^n; returns the rows that
    enlarged it.  A row is cleared at its leading slot by that pivot's row,
    r - f b = r + (p - f) b (slots below (p - 1) + (p - 1)^2) and a reduction
    (p = 2: r ^ b), until it is zero or leads at a new pivot."""
    bits = slot_bits(p)
    new = []
    for w in rows:
        if len(basis) == n:
            break
        v = w
        while v:
            s = (v.bit_length() - 1) // bits * bits
            row = basis.get(s)
            if row is None:
                lead = v >> s
                basis[s] = v if lead == 1 else reduce(p, v * pow(lead, -1, p), n)
                new.append(w)
                break
            v = v ^ row if p == 2 else reduce(p, v + (p - (v >> s)) * row, n)
    return new


def _echelon(p, basis, n):
    """The reduced echelon matrix of an echelon basis, pivots cleared upwards, last first."""
    shifts, bits = sorted(basis), slot_bits(p)
    rows, mask = [basis[s] for s in shifts], (1 << bits) - 1
    for i, s in enumerate(shifts):
        row = rows[i]
        for j in range(i + 1, len(rows)):
            f = rows[j] >> s & mask
            if f:
                rows[j] = rows[j] ^ row if p == 2 else reduce(p, rows[j] + (p - f) * row, n)
    return Matrix(p, n, tuple(reversed(rows)), tuple([n - 1 - s // bits for s in reversed(shifts)]))


def mat_mul(p, a, b):
    return Matrix(p, b.ncols, tuple(combine(p, unpack(p, a.rows, a.ncols), b.rows, b.ncols)))


def mat_vec(p, a, v):
    """a v as a one-row matrix: the combination of a's columns by v."""
    return Matrix(p, len(a), tuple(combine(p, unpack(p, v.rows, v.ncols), a.transpose().rows, len(a))))


def rref(p, a):
    """Reduced row echelon form over F_p: the nonzero rows, with pivots."""
    basis = {}
    _insert(p, basis, a.rows, a.ncols)
    return _echelon(p, basis, a.ncols)


def spin(p, gens, seeds):
    """Smallest subspace holding the rows of ``seeds``, closed under every g
    in ``gens`` (v maps to the combination of g's columns by v), as its
    reduced echelon basis; stops as soon as the span is the whole space."""
    n, basis, cols = seeds.ncols, {}, [g.transpose().rows for g in gens]
    queue = _insert(p, basis, seeds.rows, n)
    while queue and len(basis) < n:
        v = unpack(p, [queue.pop()], n)
        queue += _insert(p, basis, [combine(p, v, c, n)[0] for c in cols], n)
    return _echelon(p, basis, n)
