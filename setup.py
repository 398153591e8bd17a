"""Build script for the optional compiled kernel.

The extension is built from the committed ``src/endokat/_kernel/_core.c``
with the C compiler alone; Cython is not needed.  ``_core.c`` is Cython's
output for ``_core.pyx``: whenever ``_core.pyx`` changes, rerun
``cython -3 src/endokat/_kernel/_core.pyx`` and commit the new ``_core.c``.

The extension is optional: without a C compiler the build goes on and the
package runs on its pure-Python fallback, which ``ENDOKAT_PURE=1`` also
forces at run time.  End to end the compiled kernel runs the benchmark
workloads 1.1-2.8x faster (see README.md).
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("endokat._kernel._core", ["src/endokat/_kernel/_core.c"], optional=True)])
