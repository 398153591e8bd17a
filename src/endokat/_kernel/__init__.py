"""Kernel backend selection.

The package calls six primitives from here.  The two lattice primitives
have two backends with the same results: the compiled extension ``_core``
(one hand-written C file, ``_core.c``, built by ``setup.py``), preferred
when importable, and the pure reference ``_pure``, which ENDOKAT_PURE=1
forces.  The four F_p primitives are ``_pure``'s under either backend: they
take and return the packed :class:`Matrix` of ``_matrix``, which only
``_pure`` works on.  The compiled lattice primitives work on machine words:
an input beyond their margin raises ``NeedsBigInts`` (or ``OverflowError``
for an int beyond 64 bits), and the wrapper below answers it with ``_pure``.
"""

import os

from . import _pure
from ._matrix import Matrix

PRIMITIVES = ("hnf_kernel", "box_reduce", "mat_mul", "mat_vec", "rref", "spin")
COMPILED = ("hnf_kernel", "box_reduce")


def _with_fallback(fast, slow, fallback):
    def primitive(*args):
        try:
            return fast(*args)
        except fallback:
            return slow(*args)

    primitive.__name__ = primitive.__qualname__ = slow.__name__
    primitive.__doc__ = slow.__doc__
    return primitive


def primitives(compiled):
    """The primitives in ``PRIMITIVES`` order: ``_pure``'s, except that when
    ``compiled`` is not None its ``COMPILED`` ones answer first, each
    falling back to ``_pure`` beyond its margin."""
    chosen = {name: getattr(_pure, name) for name in PRIMITIVES}
    if compiled is not None:
        fallback = (compiled.NeedsBigInts, OverflowError)
        for name in COMPILED:
            chosen[name] = _with_fallback(getattr(compiled, name), chosen[name], fallback)
    return tuple(chosen.values())


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
