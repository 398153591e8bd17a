"""Pure-Python kernel: integer column reduction and F_p matrix primitives.

Mirrors the compiled extension `_core` exactly; selected at import when the
extension is unavailable (or when ENDOKAT_PURE=1).

The integer primitive works on lattices L with diag(d) * Z^r <= L <= Z^r,
where d[i] is the order of the i-th cyclic coordinate of a finite abelian
group.  Because the relation vectors d[i]*e_i always lie in L, every entry in
row i may be kept reduced into [0, d[i]) throughout; entries therefore stay
machine-word sized for group orders within the configured cap.
"""

BACKEND = "pure"


def hnf_kernel(mods, cols, nbottom, bottom_mod):
    """Canonical column Hermite form of span(cols) + diag(mods)*Z^r.

    ``cols`` is a sequence of integer columns of length r + nbottom; the
    trailing ``nbottom`` entries of each column are carried along unchanged
    by the column operations (reduced mod ``bottom_mod``) and do not take
    part in pivoting.

    Returns ``(H, kernels)`` where ``H`` is the r x r lower-triangular basis
    as a tuple of row tuples (positive diagonal, entries left of each pivot
    reduced into [0, pivot)), and ``kernels`` lists the carried blocks of the
    columns whose lattice part vanished, i.e. generators of
    ``{x : cols * x == 0 mod diag(mods)}`` pushed through the carried block.
    The package itself passes ``nbottom == 0`` (see
    ``groups.Subgroup.pushforward``); the carried block is kept as the
    reference that the tests compare it with.
    """
    r = len(mods)
    nb = nbottom
    bm = bottom_mod if bottom_mod > 0 else 1
    total = r + nb

    work = []
    for col in cols:
        c = list(col)
        for k in range(r):
            c[k] %= mods[k]
        for k in range(r, total):
            c[k] %= bm
        if any(c):
            work.append(c)

    pivots = []
    for i in range(r):
        d = mods[i]
        fresh = [0] * total
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
                for k in range(r, total):
                    c[k] = (c[k] - q * m[k]) % bm
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

    H = tuple(zip(*pivots))[:r]
    kernels = []
    if nb:
        for c in work:
            bot = tuple(c[r:])
            if any(bot):
                kernels.append(bot)
    return H, kernels


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
# F_p matrix primitives.  Matrices are tuples of row tuples.


def mat_mul(p, a, b):
    n = len(a)
    m = len(b[0]) if b else 0
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


def spin(p, gens, seeds, limit):
    """Smallest subspace containing ``seeds`` and closed under every matrix
    in ``gens``; returns its canonical RREF basis.  Stops early (returning
    the full space marker) once the dimension reaches ``limit``."""
    basis = []  # echelon rows, pivot ascending, not yet fully reduced
    pivots = []

    def insert(v):
        w = list(v)
        n = len(w)
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
    while queue and len(basis) < limit:
        v = queue.pop()
        for g in gens:
            w = mat_vec(p, g, v)
            if insert(w):
                queue.append(w)
                if len(basis) >= limit:
                    break
    return rref(p, tuple(basis))[0] if basis else ()
