"""Build script for the optional compiled kernel.

The package works without the extension (a pure-Python fallback is selected
at import time).  The compiled primitives are several times faster, but end to
end the benchmark workloads gain only 1.1-2.5x (see README.md).  Set
ENDOKAT_SKIP_EXT=1 to force a pure build.
"""

import os

from setuptools import setup

ext_modules = []
if not os.environ.get("ENDOKAT_SKIP_EXT"):
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            ["src/endokat/_kernel/_core.pyx"],
            compiler_directives={"language_level": "3"},
        )
    except ImportError:
        ext_modules = []

setup(ext_modules=ext_modules)
