"""The kernel: the C library in ``_kernel.c``, its pure-Python
counterpart, and the length checks both run before they touch a buffer;
``load`` alone decides which one runs.  Beside them, ``cbc`` is the one
AES-128-CBC stream for either kernel, over libcrypto through ``ctypes``,
and ``other_cpus`` names the CPUs a pass's digest helper thread may run
on, through glibc's ``sched_getcpu``.

The first process that needs the kernel compiles it with the system C
compiler against libcrypto, in well under a second, into
``~/.cache/sefrag/`` (created mode 0700), under a name hashed from the
C source, the compile command and the machine type: each source version
is built once, then loaded by every later process.  The compiler writes
to a temp name renamed into place, so concurrent first uses are safe.
A failed build (no compiler, no OpenSSL headers, an unwritable cache)
leaves no library; its first error line is recorded under the same
name, no later process retries (delete the cache directory to retry),
and ``load`` returns a ``PythonKernel``, which gives the same bytes.
Both kernels have ``protect``, ``recover``, ``derive`` and a ``name``:
``native (<library>, 16 lanes)`` where the library hashes 16 units'
keystreams at once (on a CPU with AVX-512F and AVX-512VL), ``native
(<library>, 1 lane)`` where it hashes one at a time, or ``python
(<why>)``.  The native ``protect`` and ``recover``, and each ``cbc``
update, return ``bytes`` that C code filled in, each byte written once.
Importing this module builds and loads nothing.

``PythonKernel`` moves 4-byte words with strided memoryview copies and
chooses between them with big-integer masks, so the keystream hash is
its only per-unit Python work, and a chunk's buffers (about 1 MiB at
4,096 units) do not grow with the content.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import struct
import weakref
from pathlib import Path

from .container import atomic_write
from .core import KEY_LEN, REMAINDER_LEN, SUB_LEN, SUBS_PER_UNIT, UNIT_LEN, _selectors

SOURCE = Path(__file__).with_name("_kernel.c")
# The compile command, less its "-o <library> <source>" part.
COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-Wno-deprecated-declarations")
LIBS = ("-lcrypto",)
BUILD_TIMEOUT = 120  # seconds

_BYTES, _SIZE, _U64, _INT, _PTR = ctypes.c_char_p, ctypes.c_size_t, ctypes.c_uint64, ctypes.c_int, ctypes.c_void_p
# Each C function's result type and argument types.
_SIGNATURES = {
    "sefrag_protect": (None, (_BYTES, _SIZE, _BYTES, _U64, _BYTES, _BYTES)),
    "sefrag_recover": (None, (_BYTES, _BYTES, _SIZE, _BYTES, _U64, _BYTES)),
    "sefrag_derive": (_INT, (_BYTES, _SIZE, _U64, _BYTES)),
    "sefrag_lanes": (_INT, ()),
}
# The same for the libcrypto calls ``cbc`` makes.
_EVP_SIGNATURES = {
    "EVP_CIPHER_CTX_new": (_PTR, ()),
    "EVP_CIPHER_CTX_free": (None, (_PTR,)),
    "EVP_aes_128_cbc": (_PTR, ()),
    "EVP_CipherInit_ex": (_INT, (_PTR, _PTR, _PTR, _BYTES, _BYTES, _INT)),
    "EVP_CIPHER_CTX_set_padding": (_INT, (_PTR, _INT)),
    "EVP_CipherUpdate": (_INT, (_PTR, _BYTES, ctypes.POINTER(_INT), _BYTES, _INT)),
}
# Calls that return 0 or NULL when libcrypto fails: sefrag_derive and each EVP call with a result.
_FALLIBLE = {"sefrag_derive", *_EVP_SIGNATURES} - {"EVP_CIPHER_CTX_free"}

# PyBytes_FromStringAndSize(NULL, n): a new bytes object of n bytes left
# unset, which a C function then fills in whole through its c_char_p
# argument (ctypes passes a bytes object's own buffer).  Nothing else holds
# it yet, nor its hash, and at n = 0 the C code writes nothing.  So each
# output is written once, neither zeroed first nor copied out.
_uninitialised_bytes = ctypes.pythonapi.PyBytes_FromStringAndSize
_uninitialised_bytes.restype, _uninitialised_bytes.argtypes = ctypes.py_object, (_BYTES, ctypes.c_ssize_t)

# _AFTER[k] maps a selector to 0xff when it picks a word after word k.
_AFTER = [bytes(0xFF if s > k else 0 for s in range(256)) for k in range(SUBS_PER_UNIT - 1)]


def _check_protect(units: bytes, count: int, key: bytes, first: int) -> None:
    # Unit indices are u64 in C: both kernels refuse what would wrap there.
    if len(units) != UNIT_LEN * count or len(key) != KEY_LEN or not 0 <= first <= 2**64 - count:
        raise ValueError(f"need {UNIT_LEN} bytes for each of {count} units from index {first} below 2**64"
                         f" and a {KEY_LEN}-byte key")


def _check_recover(public: bytes, picked: bytes, count: int, key: bytes, first: int) -> None:
    if len(picked) != SUB_LEN * count or len(public) != REMAINDER_LEN * count or len(key) != KEY_LEN \
            or not 0 <= first <= 2**64 - count:
        raise ValueError(f"need {SUB_LEN} picked and {REMAINDER_LEN} remainder bytes for each of {count} units"
                         f" from index {first} below 2**64 and a {KEY_LEN}-byte key")


def _check_derive(iterations: int) -> None:
    if iterations < 1:
        raise ValueError("iterations must be positive")


def _raise_on_failure(status, fn, args):
    if not status:
        raise RuntimeError(f"a libcrypto call failed in {fn.__name__}")
    return status


def _bind(path: str, signatures: dict) -> ctypes.CDLL:
    """The library at ``path`` with the functions ``signatures`` names typed."""
    lib = ctypes.CDLL(path)
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
        if name in _FALLIBLE:
            fn.errcheck = _raise_on_failure
    return lib


@functools.cache
def _libcrypto() -> ctypes.CDLL:
    """The libcrypto ``hashlib`` maps: a handle on ``_hashlib`` resolves its EVP calls."""
    try:
        import _hashlib
        return _bind(_hashlib.__file__, _EVP_SIGNATURES)
    except (ImportError, AttributeError, OSError) as exc:
        raise OSError(f"no libcrypto for AES-128-CBC through Python's _hashlib module: {exc}") from None


def cbc(key: bytes, iv: bytes, encrypt: bool):
    """``update(data)``: one AES-128-CBC stream, no padding, whose libcrypto
    context, freed with ``update``, carries the chain.  Each update ciphers
    the whole blocks completed so far and keeps the partial block here, so
    EVP buffers none and writes exactly the bytes reserved for it."""
    if len(key) != KEY_LEN or len(iv) != 16:
        raise ValueError(f"need a 16-byte key and IV, got {len(key)} and {len(iv)} bytes")
    lib, pending, outl = _libcrypto(), b"", _INT()

    def update(data: bytes) -> bytes:
        nonlocal pending
        # EVP takes the length as a C int: refuse what would not fit.
        if len(pending) + len(data) >= 2**31:
            raise ValueError(f"an AES update takes fewer than 2**31 bytes, got {len(pending) + len(data)}")
        data = pending + data
        n = len(data) - len(data) % 16
        out, pending = _uninitialised_bytes(None, n), data[n:]
        lib.EVP_CipherUpdate(ctx, out, outl, data, n)
        return out

    ctx = lib.EVP_CIPHER_CTX_new()
    weakref.finalize(update, lib.EVP_CIPHER_CTX_free, ctx)
    lib.EVP_CipherInit_ex(ctx, lib.EVP_aes_128_cbc(), None, key, iv, encrypt)
    lib.EVP_CIPHER_CTX_set_padding(ctx, 0)
    return update


@functools.cache
def _sched_getcpu():
    """glibc's ``sched_getcpu``, whose C int result is ctypes' default, or None."""
    return getattr(ctypes.CDLL(None), "sched_getcpu", None)


def other_cpus() -> set[int]:
    """The CPUs this process may run on, less the one the calling thread
    runs on now; empty where the platform cannot tell."""
    if not hasattr(os, "sched_getaffinity") or _sched_getcpu() is None:
        return set()
    return os.sched_getaffinity(0) - {_sched_getcpu()()}


class Kernel:
    """The loaded library, its calls wrapped with the length checks that
    keep the C code inside its buffers."""

    def __init__(self, path: Path):
        self.path = path
        self._lib = _bind(str(path), _SIGNATURES)
        lanes = self._lib.sefrag_lanes()
        self.name = f"native ({path}, {lanes} lane{'s' if lanes > 1 else ''})"

    def protect(self, units: bytes, count: int, key: bytes, first: int) -> tuple[bytes, bytes]:
        """``count`` units from index ``first``: ``(protected remainders,
        picked sub-fragments)``."""
        _check_protect(units, count, key, first)
        pub, picked = _uninitialised_bytes(None, REMAINDER_LEN * count), _uninitialised_bytes(None, SUB_LEN * count)
        self._lib.sefrag_protect(units, count, key, first, pub, picked)
        return pub, picked

    def recover(self, public: bytes, picked: bytes, count: int, key: bytes, first: int) -> bytes:
        """``count`` units from index ``first`` whose protected remainders
        are ``public``."""
        _check_recover(public, picked, count, key, first)
        units = _uninitialised_bytes(None, UNIT_LEN * count)
        self._lib.sefrag_recover(public, picked, count, key, first, units)
        return units

    def derive(self, suffix: bytes, iterations: int) -> bytes:
        """x <- SHA-256(x || suffix) ``iterations`` times from an empty x."""
        _check_derive(iterations)
        out = _uninitialised_bytes(None, 32)
        self._lib.sefrag_derive(suffix, len(suffix), iterations, out)
        return out


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _words(buf) -> memoryview:
    """``buf`` as a view of 4-byte words (sub-fragments); a C unsigned int
    is 4 bytes on every platform CPython supports."""
    return memoryview(buf).cast("I")


def _columns(buf, width: int) -> list[memoryview]:
    """Word k of every ``width``-word row of ``buf``, for each k."""
    words = _words(buf)
    return [words[k::width] for k in range(width)]


def _rows(columns: list[memoryview]) -> bytes:
    """Inverse of ``_columns``: rows made of one word from each column."""
    out = bytearray(SUB_LEN * len(columns) * len(columns[0]))
    words = _words(out)
    for k, column in enumerate(columns):
        words[k::len(columns)] = column
    return bytes(out)


def _int(buf) -> int:
    return int.from_bytes(buf, "little")


def _column(value: int, count: int) -> memoryview:
    return _words(value.to_bytes(SUB_LEN * count, "little"))


def _after_masks(selectors: bytes) -> list[int]:
    """For k in 0..6, a word mask set in each unit whose selector is above k."""
    wide = bytearray(SUB_LEN * len(selectors))
    for b in range(SUB_LEN):
        wide[b::SUB_LEN] = selectors
    return [_int(wide.translate(table)) for table in _AFTER]


def _keystream(picked: bytes, key: bytes, first: int) -> bytes:
    """Joined 28-byte keystreams of units ``first``, ``first + 1``, ...
    whose selected sub-fragments are ``picked``.

    Unit i's keystream is SHA-256(selected || key || LE64(i)) truncated to
    match its seven remaining sub-fragments.  The index term forces
    distinct keystreams even for identical units.
    """
    count = len(picked) // SUB_LEN
    indices = struct.pack(f"<{count}Q", *range(first, first + count))
    messages = _rows([
        _words(picked), *_columns(key * count, KEY_LEN // SUB_LEN), *_columns(indices, 2),
    ])
    message_len = SUB_LEN + KEY_LEN + 8
    sha = hashlib.sha256
    digests = b"".join([sha(m).digest() for m in struct.unpack(f"{message_len}s" * count, messages)])
    return _rows(_columns(digests, SUBS_PER_UNIT)[:-1])


class PythonKernel:
    """The pure-Python counterparts of the C functions, run where the
    library cannot be built: same arguments, same checks, same bytes."""

    def __init__(self, reason: str):
        self.name = f"python ({reason})"

    def protect(self, units: bytes, count: int, key: bytes, first: int) -> tuple[bytes, bytes]:
        _check_protect(units, count, key, first)
        after = _after_masks(_selectors(key, first, first + count))
        w = [_int(column) for column in _columns(units, SUBS_PER_UNIT)]
        # Remainder word k is unit word k before the pick and word k + 1 from it on.
        remainders = [w[k + 1] ^ ((w[k] ^ w[k + 1]) & after[k]) for k in range(SUBS_PER_UNIT - 1)]
        p = w[-1]
        for k in reversed(range(SUBS_PER_UNIT - 1)):
            p = w[k] ^ ((p ^ w[k]) & after[k])
        picked = p.to_bytes(SUB_LEN * count, "little")
        return _xor(_rows([_column(r, count) for r in remainders]), _keystream(picked, key, first)), picked

    def recover(self, public: bytes, picked: bytes, count: int, key: bytes, first: int) -> bytes:
        _check_recover(public, picked, count, key, first)
        after = _after_masks(_selectors(key, first, first + count))
        p = _int(picked)
        remainders = _xor(public, _keystream(picked, key, first))
        r = [_int(column) for column in _columns(remainders, SUBS_PER_UNIT - 1)]
        units = []
        for k in range(SUBS_PER_UNIT):
            # Unit word k is remainder word k before the pick, the pick itself,
            # then remainder word k - 1.
            word = p if k == 0 else r[k - 1] ^ ((p ^ r[k - 1]) & after[k - 1])
            if k < SUBS_PER_UNIT - 1:
                word ^= (r[k] ^ word) & after[k]
            units.append(_column(word, count))
        return _rows(units)

    def derive(self, suffix: bytes, iterations: int) -> bytes:
        _check_derive(iterations)
        x = b""
        for _ in range(iterations):
            x = hashlib.sha256(x + suffix).digest()
        return x


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
