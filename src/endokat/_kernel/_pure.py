"""Pure-Python kernel: integer column reduction and F_p matrix primitives.

The reference for the compiled extension ``_core.c``, which returns the same
values; selected at import when the extension is unavailable (or when
ENDOKAT_PURE=1), and called by the compiled backend for inputs beyond its
word-size margin.

The integer primitive works on lattices L with diag(d) * Z^r <= L <= Z^r,
where d[i] is the order of the i-th cyclic coordinate of a finite abelian
group.  Because the relation vectors d[i]*e_i always lie in L, every entry in
row i may be kept reduced into [0, d[i]) throughout; entries therefore stay
machine-word sized for group orders within the configured cap.

For p <= 13, ``mat_mul``, ``rref`` and ``spin`` pack each row over F_p into
one int with one byte per entry, as the MeatAxe and M4RI pack rows into
machine words.  A row operation is then one int operation (XOR for p = 2,
r + (p - f) * b otherwise) and one ``bytes.translate`` through a 256-byte
mod-p table.  A slot holds at most (p - 1) + (p - 1)^2 before it is reduced,
which is below 256 exactly while p <= 13.  Larger p take the tuple code,
entry by entry, as does ``mat_vec`` at every p: for one product, transposing
and packing the matrix costs more than the product itself.
"""


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
# F_p matrix primitives.  Matrices are tuples of row tuples.  A packed row is
# one int with one byte slot per entry, entry 0 most significant.

# The mod-p table of each byte-slot prime, for bytes.translate.
_TABLES = {q: bytes(x % q for x in range(256)) for q in (2, 3, 5, 7, 11, 13)}


def _pack(p, rows):
    """Each row as one int of byte slots, reduced mod p."""
    table = _TABLES[p]
    try:
        return [int.from_bytes(bytes(row).translate(table), "big") for row in rows]
    except ValueError:  # an entry outside [0, 256)
        return [int.from_bytes(bytes(x % p for x in row), "big") for row in rows]


def _reduce(table, x, n):
    """Every slot of a packed row of n entries reduced by ``table``."""
    return int.from_bytes(x.to_bytes(n, "big").translate(table), "big")


def _products(p, a, rows, n):
    """For each coefficient row c of ``a``, sum_k c[k] * rows[k] over packed
    rows of n entries, as reduced bytes.  A term adds at most (p - 1)^2 to a
    slot that holds at most p - 1 after a reduction, so the sum is reduced
    every (256 - p) // (p - 1)^2 terms, before a slot can pass 255."""
    out = []
    if p == 2:
        for coeffs in a:
            acc = 0
            for c, row in zip(coeffs, rows):
                if c & 1:
                    acc ^= row
            out.append(acc.to_bytes(n, "big"))
        return out
    table = _TABLES[p]
    step = (256 - p) // (p - 1) ** 2
    for coeffs in a:
        acc, left = 0, step
        for c, row in zip(coeffs, rows):
            c %= p
            if c:
                acc += c * row
                left -= 1
                if not left:
                    acc, left = _reduce(table, acc, n), step
        out.append(acc.to_bytes(n, "big").translate(table))
    return out


def _insert(p, basis, rows, n):
    """Add packed rows of n entries to ``basis``, a reduced echelon basis
    kept as {bit shift of the pivot slot: packed row}, until it spans F_p^n;
    returns the rows that enlarged its span.  A row operation r - f * b is
    r + (p - f) * b, whose slots stay below (p - 1) + (p - 1)^2 < 256, then
    one reduction; for p = 2 it is r ^ b."""
    table = _TABLES[p]
    new = []
    for w in rows:
        if len(basis) == n:
            break
        v = w
        for s, row in basis.items():
            f = v >> s & 255
            if f:
                v = v ^ row if p == 2 else _reduce(table, v + (p - f) * row, n)
        if not v:
            continue
        s = (v.bit_length() - 1) & ~7
        lead = v >> s
        if lead != 1:
            v = _reduce(table, v * pow(lead, -1, p), n)
        for t, row in basis.items():
            f = row >> s & 255
            if f:
                basis[t] = row ^ v if p == 2 else _reduce(table, row + (p - f) * v, n)
        basis[s] = v
        new.append(w)
    return new


def _rows(basis, n):
    """The rows and pivot columns of a packed basis, pivot ascending."""
    shifts = sorted(basis, reverse=True)
    return tuple([tuple(basis[s].to_bytes(n, "big")) for s in shifts]), tuple([n - 1 - s // 8 for s in shifts])


def mat_mul(p, a, b):
    n = len(a)
    m = len(b[0]) if b else 0
    if p in _TABLES:
        return tuple(map(tuple, _products(p, a, _pack(p, b), m)))
    inner = len(b)
    out = []
    for i in range(n):
        ai = a[i]
        row = [0] * m
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(m):
                    row[j] += aik * bk[j]
        out.append(tuple(v % p for v in row))
    return tuple(out)


def mat_vec(p, a, v):
    out = []
    for row in a:
        s = 0
        for x, y in zip(row, v):
            s += x * y
        out.append(s % p)
    return tuple(out)


def rref(p, rows):
    """Reduced row echelon form over F_p.  Returns (nonzero rows, pivot cols)."""
    if p in _TABLES:
        n = len(rows[0]) if rows else 0
        basis = {}
        _insert(p, basis, _pack(p, rows), n)
        return _rows(basis, n)
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    piv_cols = []
    rank = 0
    for c in range(ncols):
        pr = None
        for i in range(rank, nrows):
            if mat[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c] % p, -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][c] % p:
                f = mat[i][c] % p
                mi = mat[i]
                mr = mat[rank]
                mat[i] = [(x - f * y) % p for x, y in zip(mi, mr)]
        piv_cols.append(c)
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(r) for r in mat[:rank]), tuple(piv_cols)


def spin(p, gens, seeds):
    """Smallest subspace containing ``seeds`` and closed under every matrix
    in ``gens``; returns its canonical RREF basis.  Stops as soon as the
    span is the whole space."""
    if not seeds:
        return ()
    n = len(seeds[0])
    if p in _TABLES:
        cols = [_pack(p, list(zip(*g))) for g in gens]
        basis = {}
        queue = _insert(p, basis, _pack(p, seeds), n)
        while queue and len(basis) < n:
            v = (queue.pop().to_bytes(n, "big"),)
            images = [int.from_bytes(_products(p, v, packed, n)[0], "big") for packed in cols]
            queue += _insert(p, basis, images, n)
        return _rows(basis, n)[0]
    basis = []  # echelon rows, pivot ascending, not yet fully reduced
    pivots = []

    def insert(v):
        w = list(v)
        for row, pc in zip(basis, pivots):
            x = w[pc] % p
            if x:
                for j in range(n):
                    w[j] = (w[j] - x * row[j]) % p
        for j in range(n):
            if w[j] % p:
                inv = pow(w[j] % p, -1, p)
                wn = tuple((x * inv) % p for x in w)
                k = 0
                while k < len(pivots) and pivots[k] < j:
                    k += 1
                basis.insert(k, wn)
                pivots.insert(k, j)
                return True
        return False

    queue = []
    for s in seeds:
        if insert(s):
            queue.append(tuple(x % p for x in s))
    while queue and len(basis) < n:
        v = queue.pop()
        for g in gens:
            w = mat_vec(p, g, v)
            if insert(w):
                queue.append(w)
                if len(basis) == n:
                    break
    return rref(p, tuple(basis))[0] if basis else ()
