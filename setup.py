"""Build script for the optional compiled kernel.

The extension is built from ``src/endokat/_kernel/_core.c``, a hand-written
C file against the CPython C API; nothing is generated and only a C compiler
is needed.  It holds the two lattice primitives, ``hnf_kernel`` and
``box_reduce``, which the law audits spend their kernel time in; the F_p
primitives are pure Python under either backend.

The extension is optional: without a C compiler the build goes on and the
package runs on its pure-Python fallback, which ``ENDOKAT_PURE=1`` also
forces at run time.  README.md gives the end-to-end speed of both backends.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("endokat._kernel._core", ["src/endokat/_kernel/_core.c"], optional=True)])
