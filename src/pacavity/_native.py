"""The compiled leapfrog step: _leapfrog.c, built on first use and cached.

load() compiles the C file with the C compiler (cc, or $CC when set, as
build tools read it) into the package's __pycache__, as Python caches
bytecode there.  The library's name carries a hash of the source and the
flags, the interpreter's cache tag and the machine, so a changed source or
another interpreter builds its own copy.  A build writes into a temporary
directory and renames the library into place, so a process never loads a
half-written library, however many build at once.

Any failure returns None: no compiler, a failed build, a directory that
cannot be written, a library that does not load.  fdtd then marches with
its numpy step, which gives the same bits.  Nothing here runs at import:
load() imports ctypes, and a build subprocess, only when called.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

SOURCE = Path(__file__).with_name("_leapfrog.c")
CACHE = Path(__file__).with_name("__pycache__")
# no -ffast-math and no -march=native: the loop must round as numpy does,
# and the library may be loaded on another CPU of the same machine type
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


def load():
    """The C function leapfrog_step, built into CACHE unless a copy is there
    already, or None when it cannot be built or loaded."""
    import ctypes
    import platform
    from importlib.util import source_hash  # the key of hash-based .pyc files

    try:
        key = source_hash(SOURCE.read_bytes() + repr(FLAGS).encode()).hex()
        tag = f"{sys.implementation.cache_tag}-{platform.machine()}"
        lib = CACHE / f"_leapfrog.{tag}-{key}.so"
        if not (lib.exists() or _build(lib)):
            return None
        step = ctypes.CDLL(str(lib)).leapfrog_step
    except (OSError, AttributeError):
        return None
    step.restype = None
    # out, cur, prev, coef, centre, coef's stride (0 or 1), n
    step.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_ssize_t] * 2
    return step


def _build(lib: Path) -> bool:
    """Compile SOURCE into lib through a temporary directory in CACHE; False
    when the compiler fails.  A compiler that cannot be run, or a directory
    that cannot be written, raises OSError.  The library is made afresh in
    that directory, so it takes the umask's mode like any compiler output."""
    import shlex
    import subprocess
    import tempfile

    CACHE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        built = os.path.join(tmp, lib.name)
        try:
            cc = shlex.split(os.environ.get("CC") or "cc")
            subprocess.run([*cc, *FLAGS, "-o", built, str(SOURCE)], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        except (ValueError, subprocess.SubprocessError):
            return False
        os.replace(built, lib)
    return True
