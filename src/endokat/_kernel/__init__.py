"""Kernel backend selection.

Two backends expose the same six primitives with the same results: the
compiled extension ``_core`` (one hand-written C file, ``_core.c``, built by
``setup.py``) and the pure-Python ``_pure``, which is the reference.  For
p <= 13, ``_pure`` packs each row over F_p into one int of byte slots, so
that ``mat_mul``, ``rref`` and ``spin`` work a row at a time, not an entry
at a time.  The extension is preferred when importable; ENDOKAT_PURE=1
forces ``_pure``.
The compiled primitives work on machine words: an input beyond their margin
raises ``NeedsBigInts`` (or ``OverflowError`` for an int beyond 64 bits),
and the wrapper below answers it with the ``_pure`` primitive instead.
"""

import os

from . import _pure

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


def primitives(compiled):
    """The primitives in ``PRIMITIVES`` order: ``_pure``'s when ``compiled``
    is None, else those of the module ``compiled``, each falling back to
    ``_pure`` on an input beyond its word-size margin."""
    if compiled is None:
        return tuple(getattr(_pure, name) for name in PRIMITIVES)
    fallback = (compiled.NeedsBigInts, OverflowError)
    return tuple(
        _with_fallback(getattr(compiled, name), getattr(_pure, name), fallback) for name in PRIMITIVES
    )


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
