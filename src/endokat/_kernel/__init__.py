"""Kernel backend selection.

Two backends expose the same six primitives with the same results: the
compiled extension ``_core`` (one hand-written C file, ``_core.c``, built by
``setup.py``), preferred when importable, and the pure reference ``_pure``,
which ENDOKAT_PURE=1 forces.  The F_p primitives take and return the packed
:class:`Matrix` of ``_matrix``; :func:`primitives` adapts ``_core``'s at this
one boundary (unpack, call, pack).  The compiled ones work on machine words:
an input beyond their margin raises ``NeedsBigInts`` (or ``OverflowError``
for an int beyond 64 bits), and the wrapper below answers it with ``_pure``.
"""

import os

from . import _pure
from ._matrix import Matrix, join, unpack

PRIMITIVES = ("hnf_kernel", "box_reduce", "mat_mul", "mat_vec", "rref", "spin")


def _with_fallback(fast, slow, fallback):
    def primitive(*args):
        try:
            return fast(*args)
        except fallback:
            return slow(*args)

    primitive.__name__ = primitive.__qualname__ = slow.__name__
    primitive.__doc__ = slow.__doc__
    return primitive


def _packed(c):
    """The compiled module c's F_p primitives on packed matrices (rows go in as bytes)."""

    def entries(*mats):
        return [unpack(m.p, m.rows, m.ncols) for m in mats]

    def rows(p, out):
        return tuple([join(p, row) for row in out])

    def echelon(p, n, out):
        basis, pivots = c.rref(p, out)
        return Matrix(p, n, rows(p, basis), pivots)

    return {
        "mat_mul": lambda p, a, b: Matrix(p, b.ncols, rows(p, c.mat_mul(p, *entries(a, b)))),
        "mat_vec": lambda p, a, v: Matrix(p, len(a), rows(p, [c.mat_vec(p, *entries(a), entries(v)[0][0])])),
        "rref": lambda p, a: echelon(p, a.ncols, *entries(a)),
        "spin": lambda p, gens, v: echelon(p, v.ncols, c.spin(p, entries(*gens), *entries(v))),
    }


def primitives(compiled):
    """The primitives in ``PRIMITIVES`` order: ``_pure``'s when ``compiled`` is
    None, else ``compiled``'s, each falling back to ``_pure`` beyond its margin."""
    if compiled is None:
        return tuple(getattr(_pure, name) for name in PRIMITIVES)
    fallback = (compiled.NeedsBigInts, OverflowError)
    fast = {name: getattr(compiled, name) for name in PRIMITIVES} | _packed(compiled)
    return tuple(_with_fallback(fast[name], getattr(_pure, name), fallback) for name in PRIMITIVES)


_compiled = None
if not os.environ.get("ENDOKAT_PURE"):
    try:
        from . import _core as _compiled
    except ImportError:
        pass

hnf_kernel, box_reduce, mat_mul, mat_vec, rref, spin = primitives(_compiled)
_BACKEND = "pure" if _compiled is None else "compiled"


def backend_name():
    return _BACKEND
