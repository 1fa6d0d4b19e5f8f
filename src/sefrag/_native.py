"""Build, cache and load the native kernel in ``_kernel.c``; ``load``
alone decides whether it or its pure-Python counterpart runs.

The first process that needs the kernel compiles it with the system C
compiler against libcrypto, in well under a second, into
``~/.cache/sefrag/`` (created mode 0700), under a name hashed from the
C source, the compile command and the machine type: each source
version is built once, then loaded by every later process.  The
compiler writes to a temp name renamed into place, so concurrent first
uses are safe.  A failed build (no compiler, no OpenSSL headers, an
unwritable cache) leaves no library; its first error line is recorded
under the same name, no later process retries (delete the cache
directory to retry), and ``load`` returns a ``PythonKernel``, which
gives the same bytes.  Both kernels have ``protect``, ``recover``,
``derive``, ``cbc`` and a ``name``: ``native (<library>)`` or
``python (<why>)``.
Nothing here runs at import; ``load`` runs once per process.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path

from .container import _cbc, _check_cbc, atomic_write
from .core import (REMAINDER_LEN, SUB_LEN, UNIT_LEN, _check_protect, _check_recover, _derive, _protect_chunk,
                   _recover_chunk)

SOURCE = Path(__file__).with_name("_kernel.c")
# The compile command, less its "-o <library> <source>" part.
COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-Wno-deprecated-declarations")
LIBS = ("-lcrypto",)
BUILD_TIMEOUT = 120  # seconds

_BYTES = ctypes.c_char_p
_SIGNATURES = {
    "sefrag_protect": (_BYTES, ctypes.c_size_t, _BYTES, ctypes.c_uint64, _BYTES, _BYTES),
    "sefrag_recover": (_BYTES, _BYTES, ctypes.c_size_t, _BYTES, ctypes.c_uint64, _BYTES),
    "sefrag_derive": (_BYTES, ctypes.c_size_t, ctypes.c_uint64, _BYTES),
    "sefrag_cbc": (_BYTES, _BYTES, _BYTES, ctypes.c_size_t, ctypes.c_int, _BYTES),
}


def _raise_on_failure(status, fn, args):
    if status != 0:
        raise RuntimeError(f"a libcrypto call failed in {fn.__name__}")


class Kernel:
    """The loaded library, its calls wrapped with the length checks that
    keep the C code inside its buffers."""

    def __init__(self, path: Path):
        self.path = path
        self.name = f"native ({path})"
        self._lib = ctypes.CDLL(str(path))
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(self._lib, name)
            fn.argtypes, fn.restype, fn.errcheck = argtypes, ctypes.c_int, _raise_on_failure

    def protect(self, units: bytes, count: int, key: bytes, first: int) -> tuple[bytes, bytes]:
        """``count`` units from index ``first``: ``(protected remainders,
        picked sub-fragments)``."""
        _check_protect(units, count, key, first)
        pub = ctypes.create_string_buffer(REMAINDER_LEN * count)
        picked = ctypes.create_string_buffer(SUB_LEN * count)
        self._lib.sefrag_protect(units, count, key, first, pub, picked)
        return pub.raw, picked.raw

    def recover(self, public: bytes, picked: bytes, count: int, key: bytes, first: int) -> bytes:
        """``count`` units from index ``first`` whose protected remainders
        are ``public``."""
        _check_recover(public, picked, count, key, first)
        units = ctypes.create_string_buffer(UNIT_LEN * count)
        self._lib.sefrag_recover(public, picked, count, key, first, units)
        return units.raw

    def derive(self, suffix: bytes, iterations: int) -> bytes:
        """x <- SHA-256(x || suffix) ``iterations`` times from an empty x."""
        if iterations < 1:
            raise ValueError("iterations must be positive")
        out = ctypes.create_string_buffer(32)
        self._lib.sefrag_derive(suffix, len(suffix), iterations, out)
        return out.raw

    def cbc(self, key: bytes, iv: bytes, data: bytes, encrypt: bool) -> bytes:
        """AES-128-CBC over ``data``, whole blocks, no padding."""
        _check_cbc(key, iv, data)
        out = ctypes.create_string_buffer(len(data))
        self._lib.sefrag_cbc(key, iv, data, len(data), encrypt, out)
        return out.raw


class PythonKernel:
    """The pure-Python counterparts of the C functions, run where the
    library cannot be built: same arguments, same checks, same bytes."""

    protect = staticmethod(_protect_chunk)
    recover = staticmethod(_recover_chunk)
    derive = staticmethod(_derive)
    cbc = staticmethod(_cbc)

    def __init__(self, reason: str):
        self.name = f"python ({reason})"


def cache_dir() -> Path:
    return Path.home() / ".cache" / "sefrag"


def _first_error(text: str) -> str:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return next((line for line in lines if "error" in line), lines[0] if lines else "")


def _build(lib: Path) -> str | None:
    """Compile the kernel into ``lib``; return None, or why it failed."""
    import subprocess  # only a build needs it; a load from the cache does not

    tmp = lib.with_name(f".{lib.name}.{os.urandom(8).hex()}.tmp")
    try:
        proc = subprocess.run([*COMPILE, "-o", str(tmp), str(SOURCE), *LIBS],
                              capture_output=True, text=True, timeout=BUILD_TIMEOUT)
        if proc.returncode:
            return _first_error(proc.stderr) or f"compiler exited with status {proc.returncode}"
        os.replace(tmp, lib)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)
    finally:
        tmp.unlink(missing_ok=True)


@functools.cache
def load() -> Kernel | PythonKernel:
    """The kernel this process runs, decided once: the native one, built
    first if this source version has none yet, or the pure-Python one."""
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        return PythonKernel(f"no kernel source: {exc}")
    key = hashlib.sha256(b"\0".join([source, " ".join(COMPILE + LIBS).encode(),
                                     os.uname().machine.encode()])).hexdigest()[:16]
    root = cache_dir()
    lib, failed = root / f"kernel-{key}.so", root / f"kernel-{key}.failed"
    try:
        root.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = root.stat()
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return PythonKernel(f"cache directory {root} is not private to this user")
        if failed.exists():
            return PythonKernel(failed.read_text().strip())
        if not lib.exists():
            reason = _build(lib)
            if reason is not None:
                with atomic_write(failed) as write:
                    write(reason.encode() + b"\n")
                return PythonKernel(reason)
        return Kernel(lib)
    except OSError as exc:
        return PythonKernel(str(exc))
