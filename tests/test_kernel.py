"""Backend cross-validation and normal-form properties of the kernel.

The compiled backend is checked against ``_pure`` through the same fallback
wrapper the package uses.  The ``core`` fixture compiles ``_core.c`` once per
session into a temporary directory with the interpreter's C compiler, so no
prior build is needed; it skips only when there is no C compiler.
"""

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from endokat import _kernel
from endokat._kernel import _pure

CORE_C = Path(_kernel.__file__).with_name("_core.c")

MODULI = st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 16]), min_size=0, max_size=5)

# Primes inside and beyond the compiled kernel's word-size margin (2**20).
PRIMES = [2, 3, 5, 1048573, 2**31 - 1, 2**61 - 1]


@pytest.fixture(scope="session")
def core(tmp_path_factory):
    """The compiled kernel module, built from ``_core.c`` for this session."""
    # The interpreter's own extension link line (LDSHARED) with its
    # position-independent flags (CCSHARED) compiles and links in one step.
    ld = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if shutil.which(ld[0]) is None:
        pytest.skip(f"no C compiler: {ld[0]!r} (the interpreter's LDSHARED) is not installed")
    out = tmp_path_factory.mktemp("core") / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = sysconfig.get_paths()["include"]
    pic = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    cmd = ld + pic + ["-O2", "-Wall", "-Werror", f"-I{include}", str(CORE_C), "-o", str(out)]
    built = subprocess.run(cmd, capture_output=True, text=True)
    if built.returncode:
        pytest.fail(f"{' '.join(cmd)} failed:\n{built.stderr}")
    spec = importlib.util.spec_from_file_location("_core", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled(core):
    """The compiled primitives behind the package's fallback wrapper."""
    return dict(zip(_kernel.PRIMITIVES, _kernel.primitives(core)))


@st.composite
def hnf_inputs(draw):
    mods = draw(MODULI)
    ncols = draw(st.integers(0, 6))
    cols = [[draw(st.integers(-40, 40)) for _ in mods] for _ in range(ncols)]
    return mods, cols


@settings(max_examples=60, deadline=None)
@given(hnf_inputs())
def test_hnf_canonical_shape(data):
    mods, cols = data
    h = _pure.hnf_kernel(mods, [list(c) for c in cols])
    r = len(mods)
    for i in range(r):
        assert h[i][i] > 0
        assert mods[i] % h[i][i] == 0
        for j in range(r):
            if j > i:
                assert h[i][j] == 0
            elif j < i:
                assert 0 <= h[i][j] < h[i][i]


@settings(max_examples=60, deadline=None)
@given(hnf_inputs())
def test_hnf_generator_invariance(data):
    """The canonical basis does not depend on generator order or redundancy."""
    mods, cols = data
    h1 = _pure.hnf_kernel(mods, [list(c) for c in cols])
    doubled = [list(c) for c in cols] + [list(c) for c in reversed(cols)]
    h2 = _pure.hnf_kernel(mods, doubled)
    assert h1 == h2


@settings(max_examples=120, deadline=None)
@given(hnf_inputs(), st.data())
def test_backends_identical_hnf(core, compiled, data, extra):
    mods, cols = data
    h = _pure.hnf_kernel(mods, [list(c) for c in cols])
    # Moduli within the margin: the compiled code itself answers.
    assert core.hnf_kernel(mods, [list(c) for c in cols]) == h
    assert compiled["hnf_kernel"](mods, [list(c) for c in cols]) == h
    vec = tuple(extra.draw(st.integers(-100, 100)) for _ in mods)
    assert core.box_reduce(mods, h, vec) == compiled["box_reduce"](mods, h, vec) == _pure.box_reduce(mods, h, vec)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 6), st.data())
def test_backends_identical_fp(core, compiled, p, n, data):
    def entry():
        return data.draw(st.integers(0, p - 1))

    a = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
    b = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
    v = tuple(entry() for _ in range(n))
    calls = {
        "mat_mul": (p, a, b),
        "mat_vec": (p, a, v),
        "rref": (p, a),
        "spin": (p, [a, b], [v]),
    }
    for name, args in calls.items():
        expected = getattr(_pure, name)(*args)
        assert compiled[name](*args) == expected
        if p <= core.MOD_LIMIT:
            # Within the margin the compiled code itself answers.
            assert getattr(core, name)(*args) == expected
        else:
            with pytest.raises(core.NeedsBigInts):
                getattr(core, name)(*args)


def test_box_reduce_membership():
    mods = [2, 4, 8]
    h = _pure.hnf_kernel(mods, [[1, 2, 4]])
    # (1,2,4) and its multiples reduce to zero; others do not
    assert _pure.box_reduce(mods, h, (1, 2, 4)) == (0, 0, 0)
    assert _pure.box_reduce(mods, h, (0, 0, 0)) == (0, 0, 0)
    assert any(_pure.box_reduce(mods, h, (1, 0, 0)))


def test_bigint_fallback(core, compiled):
    """Moduli beyond the compiled word-size margin, and entries beyond 64
    bits, still work through the wrapper."""
    big = 2**19
    with pytest.raises(core.NeedsBigInts):
        core.hnf_kernel([big * 4], [[big]])
    with pytest.raises(OverflowError):
        core.hnf_kernel([4], [[2**70]])
    for hnf_kernel in (_kernel.hnf_kernel, compiled["hnf_kernel"]):
        assert hnf_kernel([big * 4], [[big]]) == ((big,),)
        assert hnf_kernel([4], [[2**70 + 2]]) == ((2,),)
