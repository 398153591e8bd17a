"""Shared fixtures: small groups, and the compiled lattice primitives built
from ``_core.c`` for the session, alone (``core``), behind the package's
fallback wrapper (``compiled``), or swapped into the package for a test
(``lattice_backend``, once per backend)."""

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from endokat import _kernel, endogeny, groups
from endokat.groups import canonicalize_group

CORE_C = Path(_kernel.__file__).with_name("_core.c")


@pytest.fixture
def z4():
    return canonicalize_group([4])


@pytest.fixture
def z2z4():
    return canonicalize_group([2, 4])


@pytest.fixture
def z2z2():
    return canonicalize_group([2, 2])


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


@pytest.fixture(params=["pure", "compiled"])
def lattice_backend(request, monkeypatch):
    """Runs the test with each backend's lattice primitives, swapped in
    where ``groups`` and ``endogeny`` bind them; returns the backend name."""
    backend = request.getfixturevalue("core") if request.param == "compiled" else None
    for name, primitive in zip(_kernel.PRIMITIVES, _kernel.primitives(backend)):
        for module in (groups, endogeny):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, primitive)
    return request.param
