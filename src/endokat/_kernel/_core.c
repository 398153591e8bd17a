/* Compiled kernel: integer column reduction and F_p matrix primitives.
 *
 * Same functions and results as _pure.py, written against the CPython C API.
 * Every entry is kept reduced by its row modulus (lattice primitives) or by
 * p (F_p primitives), so with moduli and p at most MOD_LIMIT = 2**20 every
 * product fits in 40 bits and every accumulated sum in 64.  An input outside
 * that margin (a larger modulus or p, a ragged matrix) raises NeedsBigInts,
 * and a Python int beyond 64 bits raises OverflowError; the package's
 * wrapper in _kernel/__init__.py answers both by calling _pure instead.
 *
 * Build: python3 setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MOD_LIMIT (1LL << 20)
/* Terms of one F_p dot product: (MOD_LIMIT - 1)**2 * MAX_INNER < 2**63. */
#define MAX_INNER (1LL << 22)

typedef long long ll;

static PyObject *NeedsBigInts;

static int
bail(const char *why)
{
    PyErr_SetString(NeedsBigInts, why);
    return -1;
}

static ll
mod(ll a, ll m)
{
    ll r = a % m;
    return r < 0 ? r + m : r;
}

/* Python int -> ll; -1 with OverflowError (or TypeError) set on failure. */
static int
as_ll(PyObject *o, ll *out)
{
    ll v = PyLong_AsLongLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* A modulus (or p) within the word-size margin. */
static int
as_modulus(PyObject *o, ll *out)
{
    if (as_ll(o, out) < 0)
        return -1;
    if (*out < 1 || *out > MOD_LIMIT)
        return bail("modulus outside the compiled kernel's word-size margin");
    return 0;
}

/* PySequence_Fast of o whose length is at least len (exactly len when
 * exact is set); NULL with an exception set otherwise. */
static PyObject *
fast_seq(PyObject *o, Py_ssize_t len, int exact)
{
    PyObject *f = PySequence_Fast(o, "expected a sequence");
    if (f == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(f);
    if (n < len || (exact && n != len)) {
        Py_DECREF(f);
        bail("sequence of unexpected length");
        return NULL;
    }
    return f;
}

/* Load len entries of the sequence o as they are. */
static int
load_row(PyObject *o, Py_ssize_t len, int exact, ll *out)
{
    PyObject *f = fast_seq(o, len, exact);
    if (f == NULL)
        return -1;
    PyObject **items = PySequence_Fast_ITEMS(f);
    for (Py_ssize_t k = 0; k < len; k++)
        if (as_ll(items[k], &out[k]) < 0) {
            Py_DECREF(f);
            return -1;
        }
    Py_DECREF(f);
    return 0;
}

static PyObject *
tuple_of(const ll *v, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *x = PyLong_FromLongLong(v[k]);
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, k, x);
    }
    return t;
}

/* Tuple of nrows row tuples of a row-major nrows x ncols buffer. */
static PyObject *
rows_of(const ll *m, Py_ssize_t nrows, Py_ssize_t ncols)
{
    PyObject *t = PyTuple_New(nrows);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < nrows; i++) {
        PyObject *row = tuple_of(m + i * ncols, ncols);
        if (row == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, row);
    }
    return t;
}

static void *
alloc(Py_ssize_t count, size_t size)
{
    void *p = PyMem_Malloc((count > 0 ? (size_t)count : 1) * size);
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

static int
check_nargs(Py_ssize_t nargs, Py_ssize_t want, const char *name)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* ------------------------------------------------------------------------
 * Lattice primitives.  A lattice L with diag(mods) Z^r <= L <= Z^r is kept
 * as integer columns whose entry k is reduced into [0, mods[k]).
 */

PyDoc_STRVAR(hnf_kernel_doc,
"hnf_kernel(mods, cols)\n--\n\n"
"Canonical column Hermite form of span(cols) + diag(mods) Z^r, as the\n"
"r x r lower-triangular basis: a tuple of row tuples.");

static PyObject *
hnf_kernel(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs(nargs, 2, "hnf_kernel") < 0)
        return NULL;
    PyObject *result = NULL, *mods_f = NULL, *cols_f = NULL;
    ll *dmod = NULL, *buf = NULL, *h = NULL;
    Py_ssize_t *live = NULL, *piv = NULL;

    mods_f = PySequence_Fast(args[0], "mods must be a sequence");
    cols_f = mods_f ? PySequence_Fast(args[1], "cols must be a sequence") : NULL;
    if (cols_f == NULL)
        goto done;
    Py_ssize_t r = PySequence_Fast_GET_SIZE(mods_f);
    Py_ssize_t ncols = PySequence_Fast_GET_SIZE(cols_f);
    Py_ssize_t cap = ncols + r;
    dmod = alloc(r, sizeof(ll));
    buf = alloc(cap * r, sizeof(ll));
    live = alloc(cap, sizeof(Py_ssize_t));
    piv = alloc(r, sizeof(Py_ssize_t));
    if (!dmod || !buf || !live || !piv)
        goto done;
    for (Py_ssize_t k = 0; k < r; k++)
        if (as_modulus(PySequence_Fast_GET_ITEM(mods_f, k), &dmod[k]) < 0)
            goto done;

    /* Working columns: the nonzero reduced inputs, in input order. */
    Py_ssize_t nlive = 0, used = 0;
    for (Py_ssize_t c = 0; c < ncols; c++) {
        ll *col = buf + used * r;
        if (load_row(PySequence_Fast_GET_ITEM(cols_f, c), r, 1, col) < 0)
            goto done;
        for (Py_ssize_t k = 0; k < r; k++)
            col[k] = mod(col[k], dmod[k]);
        for (Py_ssize_t k = 0; k < r; k++)
            if (col[k]) {
                live[nlive++] = used++;
                break;
            }
    }

    for (Py_ssize_t i = 0; i < r; i++) {
        /* Add the relation column mods[i] e_i, then run Euclid on row i:
         * subtract multiples of the column with the smallest nonzero entry
         * (the first such) until one nonzero entry is left. */
        ll *fresh = buf + used * r;
        memset(fresh, 0, r * sizeof(ll));
        fresh[i] = dmod[i];
        live[nlive++] = used++;
        for (;;) {
            Py_ssize_t cnt = 0, mpos = -1;
            ll mv = 0;
            for (Py_ssize_t j = 0; j < nlive; j++) {
                ll v = buf[live[j] * r + i];
                if (v) {
                    cnt++;
                    if (mpos < 0 || v < mv) {
                        mpos = j;
                        mv = v;
                    }
                }
            }
            if (cnt <= 1)
                break;
            const ll *m = buf + live[mpos] * r;
            for (Py_ssize_t j = 0; j < nlive; j++) {
                ll *c = buf + live[j] * r;
                if (j == mpos || c[i] == 0)
                    continue;
                ll q = c[i] / mv;
                c[i] -= q * mv;
                for (Py_ssize_t k = i + 1; k < r; k++)
                    c[k] = mod(c[k] - q * m[k], dmod[k]);
            }
        }
        /* The pivot is the first live column with a nonzero entry in row i;
         * it leaves the working set, which keeps its order. */
        Py_ssize_t mpos = 0;
        while (buf[live[mpos] * r + i] == 0)
            mpos++;
        piv[i] = live[mpos];
        memmove(live + mpos, live + mpos + 1, (nlive - mpos - 1) * sizeof(Py_ssize_t));
        nlive--;
    }

    /* Reduce the entries left of each pivot into [0, pivot). */
    for (Py_ssize_t i = 0; i < r; i++) {
        const ll *pi = buf + piv[i] * r;
        for (Py_ssize_t j = 0; j < i; j++) {
            ll *pj = buf + piv[j] * r;
            ll q = pj[i] / pi[i];
            if (q) {
                pj[i] -= q * pi[i];
                for (Py_ssize_t k = i + 1; k < r; k++)
                    pj[k] = mod(pj[k] - q * pi[k], dmod[k]);
            }
        }
    }

    /* H has the pivot columns as its columns. */
    if ((h = alloc(r * r, sizeof(ll))) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < r; i++)
        for (Py_ssize_t j = 0; j < r; j++)
            h[i * r + j] = buf[piv[j] * r + i];
    result = rows_of(h, r, r);
done:
    Py_XDECREF(mods_f);
    Py_XDECREF(cols_f);
    PyMem_Free(dmod);
    PyMem_Free(buf);
    PyMem_Free(live);
    PyMem_Free(piv);
    PyMem_Free(h);
    return result;
}

PyDoc_STRVAR(box_reduce_doc,
"box_reduce(mods, hrows, vec)\n--\n\n"
"Canonical representative of vec's coset modulo the lattice with basis\n"
"hrows: the unique member of the box prod_i [0, hrows[i][i]).");

static PyObject *
box_reduce(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs(nargs, 3, "box_reduce") < 0)
        return NULL;
    PyObject *result = NULL, *mods_f = NULL, *h_f = NULL;
    ll *dmod = NULL, *h = NULL, *w = NULL;

    mods_f = PySequence_Fast(args[0], "mods must be a sequence");
    if (mods_f == NULL)
        goto done;
    Py_ssize_t r = PySequence_Fast_GET_SIZE(mods_f);
    dmod = alloc(r, sizeof(ll));
    h = alloc(r * r, sizeof(ll));
    w = alloc(r, sizeof(ll));
    if (!dmod || !h || !w)
        goto done;
    for (Py_ssize_t k = 0; k < r; k++)
        if (as_modulus(PySequence_Fast_GET_ITEM(mods_f, k), &dmod[k]) < 0)
            goto done;
    if ((h_f = fast_seq(args[1], r, 0)) == NULL)
        goto done;
    /* Row k of the basis is read up to its diagonal.  Entries left of the
     * diagonal only enter mod mods[k]; the diagonal divides as it is. */
    for (Py_ssize_t k = 0; k < r; k++) {
        ll *hk = h + k * r;
        if (load_row(PySequence_Fast_GET_ITEM(h_f, k), k + 1, 0, hk) < 0)
            goto done;
        for (Py_ssize_t i = 0; i < k; i++)
            hk[i] = mod(hk[i], dmod[k]);
        if (hk[k] < 1 || hk[k] > MOD_LIMIT) {
            bail("basis diagonal outside the compiled kernel's word-size margin");
            goto done;
        }
    }
    if (load_row(args[2], r, 0, w) < 0)
        goto done;
    for (Py_ssize_t k = 0; k < r; k++)
        w[k] = mod(w[k], dmod[k]);
    for (Py_ssize_t i = 0; i < r; i++) {
        ll q = w[i] / h[i * r + i];
        if (q) {
            w[i] -= q * h[i * r + i];
            for (Py_ssize_t k = i + 1; k < r; k++)
                w[k] = mod(w[k] - q * h[k * r + i], dmod[k]);
        }
    }
    result = tuple_of(w, r);
done:
    Py_XDECREF(mods_f);
    Py_XDECREF(h_f);
    PyMem_Free(dmod);
    PyMem_Free(h);
    PyMem_Free(w);
    return result;
}

/* ------------------------------------------------------------------------
 * F_p primitives.  Matrices are tuples of row tuples; entries are reduced
 * into [0, p) as they are loaded, so a product of two is below 2**40 and a
 * dot product of at most MAX_INNER terms stays below 2**63.
 */

static int
load_vec(PyObject *o, Py_ssize_t len, int exact, ll p, ll *out)
{
    if (load_row(o, len, exact, out) < 0)
        return -1;
    for (Py_ssize_t j = 0; j < len; j++)
        out[j] = mod(out[j], p);
    return 0;
}

/* Load the nrows x ncols matrix o, each row ncols long, reduced mod p. */
static int
load_matrix(PyObject *o, Py_ssize_t nrows, Py_ssize_t ncols, ll p, ll *out)
{
    PyObject *f = fast_seq(o, nrows, 1);
    if (f == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < nrows; i++)
        if (load_vec(PySequence_Fast_GET_ITEM(f, i), ncols, 1, p, out + i * ncols) < 0) {
            Py_DECREF(f);
            return -1;
        }
    Py_DECREF(f);
    return 0;
}

/* p and the size of the inner dimension within the word-size margin. */
static int
check_fp(PyObject *po, Py_ssize_t inner, ll *p)
{
    if (as_modulus(po, p) < 0)
        return -1;
    if (inner > MAX_INNER)
        return bail("dimension outside the compiled kernel's word-size margin");
    return 0;
}

static ll
inv_mod(ll a, ll p)
{
    ll r0 = a, r1 = p, x0 = 1, x1 = 0;
    while (r1) {
        ll q = r0 / r1, t = r0 - q * r1;
        r0 = r1;
        r1 = t;
        t = x0 - q * x1;
        x0 = x1;
        x1 = t;
    }
    return mod(x0, p);
}

/* out = a v for the n x m matrix a and the vector v, both reduced. */
static void
apply(const ll *a, const ll *v, Py_ssize_t n, Py_ssize_t m, ll p, ll *out)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        ll s = 0;
        for (Py_ssize_t k = 0; k < m; k++)
            s += a[i * m + k] * v[k];
        out[i] = s % p;
    }
}

/* Reduced row echelon form of the nrows x ncols matrix m in place; writes
 * the pivot columns to piv and returns the rank. */
static Py_ssize_t
echelon(ll *m, Py_ssize_t nrows, Py_ssize_t ncols, ll p, Py_ssize_t *piv)
{
    Py_ssize_t rank = 0;
    for (Py_ssize_t c = 0; c < ncols && rank < nrows; c++) {
        Py_ssize_t pr = rank;
        while (pr < nrows && m[pr * ncols + c] == 0)
            pr++;
        if (pr == nrows)
            continue;
        ll *top = m + rank * ncols;
        if (pr != rank)
            for (Py_ssize_t j = 0; j < ncols; j++) {
                ll t = top[j];
                top[j] = m[pr * ncols + j];
                m[pr * ncols + j] = t;
            }
        ll inv = inv_mod(top[c], p);
        for (Py_ssize_t j = 0; j < ncols; j++)
            top[j] = top[j] * inv % p;
        for (Py_ssize_t i = 0; i < nrows; i++) {
            ll *row = m + i * ncols, f = row[c];
            if (i != rank && f)
                for (Py_ssize_t j = 0; j < ncols; j++)
                    row[j] = mod(row[j] - f * top[j], p);
        }
        piv[rank++] = c;
    }
    return rank;
}

PyDoc_STRVAR(mat_mul_doc, "mat_mul(p, a, b)\n--\n\nThe product a b over F_p.");

static PyObject *
mat_mul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs(nargs, 3, "mat_mul") < 0)
        return NULL;
    PyObject *result = NULL;
    ll *a = NULL, *b = NULL, *out = NULL, p;
    Py_ssize_t n = PyObject_Length(args[1]), inner = PyObject_Length(args[2]), m = 0;
    if (n < 0 || inner < 0)
        return NULL;
    if (inner) {
        PyObject *b0 = PySequence_GetItem(args[2], 0);
        if (b0 == NULL)
            return NULL;
        m = PyObject_Length(b0);
        Py_DECREF(b0);
        if (m < 0)
            return NULL;
    }
    if (check_fp(args[0], inner, &p) < 0)
        return NULL;
    a = alloc(n * inner, sizeof(ll));
    b = alloc(inner * m, sizeof(ll));
    out = alloc(n * m, sizeof(ll));
    if (!a || !b || !out || load_matrix(args[1], n, inner, p, a) < 0
        || load_matrix(args[2], inner, m, p, b) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        ll *o = out + i * m;
        memset(o, 0, m * sizeof(ll));
        for (Py_ssize_t k = 0; k < inner; k++) {
            ll aik = a[i * inner + k];
            if (aik)
                for (Py_ssize_t j = 0; j < m; j++)
                    o[j] += aik * b[k * m + j];
        }
        for (Py_ssize_t j = 0; j < m; j++)
            o[j] %= p;
    }
    result = rows_of(out, n, m);
done:
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(out);
    return result;
}

PyDoc_STRVAR(mat_vec_doc, "mat_vec(p, a, v)\n--\n\nThe product a v over F_p.");

static PyObject *
mat_vec(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs(nargs, 3, "mat_vec") < 0)
        return NULL;
    PyObject *result = NULL;
    ll *a = NULL, *v = NULL, *out = NULL, p;
    Py_ssize_t n = PyObject_Length(args[1]), m = PyObject_Length(args[2]);
    if (n < 0 || m < 0 || check_fp(args[0], m, &p) < 0)
        return NULL;
    a = alloc(n * m, sizeof(ll));
    v = alloc(m, sizeof(ll));
    out = alloc(n, sizeof(ll));
    if (!a || !v || !out || load_matrix(args[1], n, m, p, a) < 0 || load_vec(args[2], m, 1, p, v) < 0)
        goto done;
    apply(a, v, n, m, p, out);
    result = tuple_of(out, n);
done:
    PyMem_Free(a);
    PyMem_Free(v);
    PyMem_Free(out);
    return result;
}

PyDoc_STRVAR(rref_doc,
"rref(p, rows)\n--\n\n"
"Reduced row echelon form over F_p: (nonzero rows, pivot columns).");

static PyObject *
rref(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs(nargs, 2, "rref") < 0)
        return NULL;
    PyObject *result = NULL;
    ll *m = NULL, p;
    Py_ssize_t *piv = NULL, nrows = PyObject_Length(args[1]), ncols = 0;
    if (nrows < 0)
        return NULL;
    if (nrows) {
        PyObject *r0 = PySequence_GetItem(args[1], 0);
        if (r0 == NULL)
            return NULL;
        ncols = PyObject_Length(r0);
        Py_DECREF(r0);
        if (ncols < 0)
            return NULL;
    }
    if (as_modulus(args[0], &p) < 0)
        return NULL;
    m = alloc(nrows * ncols, sizeof(ll));
    piv = alloc(ncols, sizeof(Py_ssize_t));
    if (!m || !piv || load_matrix(args[1], nrows, ncols, p, m) < 0)
        goto done;
    Py_ssize_t rank = echelon(m, nrows, ncols, p, piv);
    PyObject *rows = rows_of(m, rank, ncols), *cols = PyTuple_New(rank);
    for (Py_ssize_t i = 0; cols && i < rank; i++) {
        PyObject *x = PyLong_FromSsize_t(piv[i]);
        if (x == NULL)
            Py_CLEAR(cols);
        else
            PyTuple_SET_ITEM(cols, i, x);
    }
    if (rows && cols)
        result = PyTuple_Pack(2, rows, cols);
    Py_XDECREF(rows);
    Py_XDECREF(cols);
done:
    PyMem_Free(m);
    PyMem_Free(piv);
    return result;
}

/* Reduce the reduced vector w (length n) against the echelon rows of basis
 * (nb rows, leading 1 at pivots[i], pivots ascending).  If something is
 * left, scale it to a leading 1, insert it in pivot order and return 1. */
static int
insert(ll *w, ll *basis, Py_ssize_t *pivots, Py_ssize_t *nb, Py_ssize_t n, ll p)
{
    for (Py_ssize_t i = 0; i < *nb; i++) {
        ll x = w[pivots[i]];
        if (x)
            for (Py_ssize_t j = 0; j < n; j++)
                w[j] = mod(w[j] - x * basis[i * n + j], p);
    }
    Py_ssize_t lead = 0;
    while (lead < n && w[lead] == 0)
        lead++;
    if (lead == n)
        return 0;
    ll inv = inv_mod(w[lead], p);
    Py_ssize_t k = 0;
    while (k < *nb && pivots[k] < lead)
        k++;
    memmove(basis + (k + 1) * n, basis + k * n, (*nb - k) * n * sizeof(ll));
    memmove(pivots + k + 1, pivots + k, (*nb - k) * sizeof(Py_ssize_t));
    for (Py_ssize_t j = 0; j < n; j++)
        basis[k * n + j] = w[j] * inv % p;
    pivots[k] = lead;
    (*nb)++;
    return 1;
}

PyDoc_STRVAR(spin_doc,
"spin(p, gens, seeds)\n--\n\n"
"Smallest subspace containing seeds and closed under every matrix in gens,\n"
"as its canonical RREF basis.  Stops as soon as the span is the whole space.");

static PyObject *
spin(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs(nargs, 3, "spin") < 0)
        return NULL;
    PyObject *result = NULL, *gens_f = NULL, *seeds_f = NULL;
    ll *g = NULL, *basis = NULL, *stack = NULL, *cur = NULL, *w = NULL, p;
    Py_ssize_t *pivots = NULL, nb = 0, top = 0;

    seeds_f = PySequence_Fast(args[2], "seeds must be a sequence");
    gens_f = seeds_f ? PySequence_Fast(args[1], "gens must be a sequence") : NULL;
    if (gens_f == NULL)
        goto done;
    Py_ssize_t nseeds = PySequence_Fast_GET_SIZE(seeds_f), ngens = PySequence_Fast_GET_SIZE(gens_f);
    if (nseeds == 0) {
        result = PyTuple_New(0);
        goto done;
    }
    Py_ssize_t n = PyObject_Length(PySequence_Fast_GET_ITEM(seeds_f, 0));
    if (n < 0 || check_fp(args[0], n, &p) < 0)
        goto done;
    g = alloc(ngens * n * n, sizeof(ll));
    basis = alloc(n * n, sizeof(ll));
    pivots = alloc(n, sizeof(Py_ssize_t));
    stack = alloc(n * n, sizeof(ll));
    cur = alloc(n, sizeof(ll));
    w = alloc(n, sizeof(ll));
    if (!g || !basis || !pivots || !stack || !cur || !w)
        goto done;
    for (Py_ssize_t t = 0; t < ngens; t++)
        if (load_matrix(PySequence_Fast_GET_ITEM(gens_f, t), n, n, p, g + t * n * n) < 0)
            goto done;

    /* Every vector that enlarges the basis is pushed, so at most n are. */
    for (Py_ssize_t s = 0; s < nseeds; s++) {
        if (load_vec(PySequence_Fast_GET_ITEM(seeds_f, s), n, 1, p, cur) < 0)
            goto done;
        memcpy(w, cur, n * sizeof(ll));
        if (insert(w, basis, pivots, &nb, n, p))
            memcpy(stack + top++ * n, cur, n * sizeof(ll));
    }
    while (top && nb < n) {
        memcpy(cur, stack + --top * n, n * sizeof(ll));
        for (Py_ssize_t t = 0; t < ngens && nb < n; t++) {
            ll *img = stack + top * n;
            apply(g + t * n * n, cur, n, n, p, img);
            memcpy(w, img, n * sizeof(ll));
            if (insert(w, basis, pivots, &nb, n, p))
                top++;
        }
    }
    result = rows_of(basis, echelon(basis, nb, n, p, pivots), n);
done:
    Py_XDECREF(seeds_f);
    Py_XDECREF(gens_f);
    PyMem_Free(g);
    PyMem_Free(basis);
    PyMem_Free(pivots);
    PyMem_Free(stack);
    PyMem_Free(cur);
    PyMem_Free(w);
    return result;
}

static PyMethodDef methods[] = {
    {"hnf_kernel", (PyCFunction)(void (*)(void))hnf_kernel, METH_FASTCALL, hnf_kernel_doc},
    {"box_reduce", (PyCFunction)(void (*)(void))box_reduce, METH_FASTCALL, box_reduce_doc},
    {"mat_mul", (PyCFunction)(void (*)(void))mat_mul, METH_FASTCALL, mat_mul_doc},
    {"mat_vec", (PyCFunction)(void (*)(void))mat_vec, METH_FASTCALL, mat_vec_doc},
    {"rref", (PyCFunction)(void (*)(void))rref, METH_FASTCALL, rref_doc},
    {"spin", (PyCFunction)(void (*)(void))spin, METH_FASTCALL, spin_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled kernel: integer column reduction and F_p matrix primitives.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    NeedsBigInts = PyErr_NewExceptionWithDoc(
        "endokat._kernel._core.NeedsBigInts",
        "An input lies outside the compiled kernel's word-size margin.", NULL, NULL);
    if (NeedsBigInts == NULL || PyModule_AddObjectRef(m, "NeedsBigInts", NeedsBigInts) < 0
        || PyModule_AddIntConstant(m, "MOD_LIMIT", MOD_LIMIT) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
