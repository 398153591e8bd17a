"""Pure-Python kernel: integer column reduction and F_p matrix primitives.

The F_p primitives run under either backend.  The lattice primitives are
the reference for the compiled extension ``_core.c``, which returns the same
values; they are selected at import when the extension is unavailable (or
when ENDOKAT_PURE=1), and called by the compiled backend for inputs beyond
its word-size margin.

The integer primitive works on lattices L with diag(d) * Z^r <= L <= Z^r,
where d[i] is the order of the i-th cyclic coordinate of a finite abelian
group.  Because the relation vectors d[i]*e_i always lie in L, every entry in
row i may be kept reduced into [0, d[i]) throughout; entries therefore stay
machine-word sized for group orders within the configured cap.

The F_p primitives take and return the packed matrices of ``_matrix`` at
every p: a row operation is one int operation and one reduction.
"""

from ._matrix import Matrix, combine, reduce, slot_bits, unpack


def hnf_kernel(mods, cols):
    """Canonical column Hermite form of span(cols) + diag(mods)*Z^r.

    ``cols`` is a sequence of integer columns of length r.  Returns the
    r x r lower-triangular basis as a tuple of row tuples (positive
    diagonal, entries left of each pivot reduced into [0, pivot)).
    """
    r = len(mods)
    work = []
    for col in cols:
        c = list(col)
        for k in range(r):
            c[k] %= mods[k]
        if any(c):
            work.append(c)

    pivots = []
    for i in range(r):
        d = mods[i]
        fresh = [0] * r
        fresh[i] = d
        work.append(fresh)
        while True:
            live = [c for c in work if c[i]]
            if len(live) <= 1:
                break
            m = min(live, key=lambda c: c[i])
            mi = m[i]
            for c in live:
                if c is m:
                    continue
                q = c[i] // mi
                c[i] -= q * mi
                for k in range(i + 1, r):
                    c[k] = (c[k] - q * m[k]) % mods[k]
        piv = None
        for c in work:
            if c[i]:
                piv = c
                break
        work.remove(piv)
        for k in range(i + 1, r):
            piv[k] %= mods[k]
        pivots.append(piv)

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

    return tuple(zip(*pivots))[:r]


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
