/* Compiled kernel: the two lattice primitives, integer column reduction.
 *
 * hnf_kernel and box_reduce, with the same results as _pure.py, written
 * against the CPython C API.  The F_p primitives have no compiled version:
 * they run on _pure's packed rows under either backend.  Every entry is kept
 * reduced by its row modulus, so with moduli at most MOD_LIMIT = 2**20 every
 * product fits in 40 bits and every accumulated sum in 64.  An input outside
 * that margin (a larger modulus, a column of the wrong length) raises
 * NeedsBigInts, and a Python int beyond 64 bits raises OverflowError; the
 * package's wrapper in _kernel/__init__.py answers both by calling _pure
 * instead.
 *
 * Build: python3 setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MOD_LIMIT (1LL << 20)

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

/* A modulus within the word-size margin. */
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

static PyMethodDef methods[] = {
    {"hnf_kernel", (PyCFunction)(void (*)(void))hnf_kernel, METH_FASTCALL, hnf_kernel_doc},
    {"box_reduce", (PyCFunction)(void (*)(void))box_reduce, METH_FASTCALL, box_reduce_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled kernel: the lattice primitives hnf_kernel and box_reduce.",
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
