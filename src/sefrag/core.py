"""Fragment/protect/recover engine.

Content is processed as 256-bit (32-byte) units.  Each unit is cut into
eight 4-byte sub-fragments; a key-driven selector picks one sub-fragment
per unit as private material, and the remaining 28 bytes are XORed with
a keystream hashed from (selected sub-fragment, key, unit index).  The
concatenated protected remainders form the public payload; the selected
sub-fragments, the sub-unit tail, and a content digest form the private
stream.  Without the private stream the keystreams cannot be recomputed
directly.  The public payload plus the key is still not safe: an
attacker can recover each unit by trying the 2^32 values of its
selected sub-fragment and keeping the one whose unit looks plausible.

``protect_chunks`` and ``recover_chunks`` are the one streaming pass:
they read the content (or the two streams) through ``read(n)``
callables and yield their output chunk by chunk, at most
``CHUNK_UNITS`` units at a time, while the SHA-256 content digest
advances with them in ``hashlib``.  Each chunk, like
``container.derive_key``'s loop, is one call to the kernel
``_kernel()`` returns, which ``sefrag._native.load`` picks: the native
one (``_kernel.c``, built on first use) or, where it cannot be built,
the pure-Python ``_protect_chunk``, ``_recover_chunk`` and ``_derive``:
same arguments, same length checks, same bytes.  A chunk call derives
its own selectors from the key and the index of its first unit, so each
chunk is a pure function of its bytes, the key and that index.  The
chunk functions move 4-byte words with strided memoryview copies and
choose between them with big-integer masks, so the keystream hash is
the only per-unit Python work.  A chunk's working buffers, about 1 MiB
at 4,096 units, do not grow with the content length.  ``protect`` and
``recover`` run the same pass over bytes held in memory.

Apart from the ``read`` callables the streaming pass consumes and the
kernel's one-time build, all functions are pure; keys and streams are
plain immutable bytes, so concurrent use is safe.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from collections import namedtuple

from .errors import IntegrityFailure, LengthMismatch

KEY_LEN = 16
UNIT_LEN = 32
SUB_LEN = 4
SUBS_PER_UNIT = UNIT_LEN // SUB_LEN
REMAINDER_LEN = UNIT_LEN - SUB_LEN
DIGEST_LEN = 32

# Domain separator for selector derivation; one hash yields 32 selectors.
_SELECTOR_DOMAIN = b"FRAG-SEL"
SELECTORS_PER_BLOCK = 32

# Units per pipeline pass: 128 KiB of content.
CHUNK_UNITS = 4096

# A hash byte reduces to a selector mod 8, without bias since 256 % 8 == 0.
_MOD8 = bytes(b % SUBS_PER_UNIT for b in range(256))
# _AFTER[k] maps a selector to 0xff when it picks a word after word k.
_AFTER = [bytes(0xFF if s > k else 0 for s in range(256)) for k in range(SUBS_PER_UNIT - 1)]


def _fromhex(text: str, length: int, what: str) -> bytes:
    """``length`` bytes written as exactly ``2 * length`` hex digits."""
    try:
        value = bytes.fromhex(text)
    except ValueError:
        raise ValueError(f"{what} must be hex, got {text!r}") from None
    # bytes.fromhex skips whitespace, so the text's own length is checked too.
    if len(value) != length or len(text) != 2 * length:
        raise ValueError(f"{what} must be {2 * length} hex chars")
    return value


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


class ProtectionKey:
    """128-bit secret driving fragment selection, keystreams, and AES;
    immutable, equal by value, and its repr hides the key."""

    __slots__ = ("bytes",)

    def __init__(self, bytes: bytes):
        if len(bytes) != KEY_LEN:
            raise ValueError(f"protection key must be {KEY_LEN} bytes, got {len(bytes)}")
        object.__setattr__(self, "bytes", bytes)

    def __setattr__(self, name, value):
        raise AttributeError("ProtectionKey is immutable")

    def __eq__(self, other):
        return self.bytes == other.bytes if isinstance(other, ProtectionKey) else NotImplemented

    def __repr__(self) -> str:
        return "ProtectionKey(<secret>)"

    @classmethod
    def from_hex(cls, text: str) -> "ProtectionKey":
        return cls(_fromhex(text, KEY_LEN, "protection key"))

    @classmethod
    def random(cls) -> "ProtectionKey":
        return cls(os.urandom(KEY_LEN))


# Output of ``protect``: the public payload, and the private stream that must
# go on to cipher protection, selected sub-fragments ++ tail ++ SHA-256(content).
ProtectedStreams = namedtuple("ProtectedStreams", "puf_payload prf_plain")


def selector_stream(key: ProtectionKey, unit_count: int) -> bytes:
    """Return one selector in [0, 7] per unit, derived from the key alone.

    Block t of 32 selectors is SHA-256(key || "FRAG-SEL" || LE64(t)); each
    byte reduces mod 8 without bias (256 % 8 == 0).  Deterministic, so the
    recovering side regenerates the identical sequence, and bulk-generable
    so every chunk of units can be processed independently.
    """
    if unit_count < 0:
        raise ValueError("unit_count must be non-negative")
    return _selectors(key.bytes, 0, unit_count)


def _selectors(key: bytes, start: int, stop: int) -> bytes:
    """Selectors of units ``start`` to ``stop - 1``, cut from the blocks
    that hold them; ``start`` need not begin a block."""
    sha = hashlib.sha256
    prefix = key + _SELECTOR_DOMAIN
    blocks = b"".join([
        sha(prefix + t.to_bytes(8, "little")).digest()
        for t in range(start // SELECTORS_PER_BLOCK, -(-stop // SELECTORS_PER_BLOCK))
    ])
    skip = start % SELECTORS_PER_BLOCK
    return blocks[skip:skip + stop - start].translate(_MOD8)


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


def _chunks(unit_count: int):
    for start in range(0, unit_count, CHUNK_UNITS):
        yield start, min(start + CHUNK_UNITS, unit_count)


def _kernel():
    """The kernel ``sefrag._native.load`` chose for this process; tests
    patch this attribute to pin one."""
    from . import _native

    return _native.load()


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


def _protect_chunk(units: bytes, count: int, key: bytes, first: int) -> tuple[bytes, bytes]:
    """Pure-Python counterpart of ``sefrag_protect``: the ``(protected
    remainders, picked sub-fragments)`` of ``count`` units from index
    ``first``."""
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


def _recover_chunk(public: bytes, picked: bytes, count: int, key: bytes, first: int) -> bytes:
    """Pure-Python counterpart of ``sefrag_recover``: the ``count`` units
    from index ``first`` whose protected remainders are ``public``."""
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


def _derive(suffix: bytes, iterations: int) -> bytes:
    """Pure-Python counterpart of ``sefrag_derive``, as ``Kernel.derive``."""
    if iterations < 1:
        raise ValueError("iterations must be positive")
    x = b""
    for _ in range(iterations):
        x = hashlib.sha256(x + suffix).digest()
    return x


def protect_chunks(read, content_len: int, key: ProtectionKey):
    """Protect ``content_len`` bytes of content that ``read(n)`` hands
    over in order, one chunk at a time.

    Yields ``(public, private)`` per chunk of units: the chunk's
    protected remainders and its selected sub-fragments.  Then one last
    pair ``(b"", tail + SHA-256(content))``: the tail (content length
    mod 32) goes verbatim into the private stream, never keystream
    protected, so sub-unit files end up fully cipher-protected.
    """
    unit_count, tail_len = divmod(content_len, UNIT_LEN)
    digest = hashlib.sha256()
    protect_chunk = _kernel().protect
    for start, stop in _chunks(unit_count):
        units = read(UNIT_LEN * (stop - start))
        digest.update(units)
        yield protect_chunk(units, stop - start, key.bytes, start)
    tail = read(tail_len)
    digest.update(tail)
    yield b"", tail + digest.digest()


def recover_chunks(read_public, read_private, content_len: int, key: ProtectionKey):
    """Inverse of ``protect_chunks``: yield the content chunk by chunk,
    reading each chunk's public remainders and selected sub-fragments
    in lockstep, then the tail.

    Raises IntegrityFailure after the last piece when the content does
    not match the digest that ends the private stream: wrong key,
    corrupted fragment, or a mismatched pair.
    """
    unit_count, tail_len = divmod(content_len, UNIT_LEN)
    digest = hashlib.sha256()
    recover_chunk = _kernel().recover
    for start, stop in _chunks(unit_count):
        picked = read_private(SUB_LEN * (stop - start))
        public = read_public(REMAINDER_LEN * (stop - start))
        units = recover_chunk(public, picked, stop - start, key.bytes, start)
        digest.update(units)
        yield units
    tail = read_private(tail_len)
    digest.update(tail)
    yield tail
    if digest.digest() != read_private(DIGEST_LEN):
        raise IntegrityFailure("content digest mismatch")


def protect(content: bytes, key: ProtectionKey) -> ProtectedStreams:
    """Split content into protected public and private streams: the
    chunks of ``protect_chunks`` joined in memory.  The CLI and
    ``sefrag bench`` run the streaming pass through
    ``container.seal_stream`` instead."""
    publics, privates = zip(*protect_chunks(io.BytesIO(content).read, len(content), key))
    return ProtectedStreams(b"".join(publics), b"".join(privates))


def recover(puf_payload: bytes, prf_plain: bytes, key: ProtectionKey) -> bytes:
    """Rebuild content from the two streams in memory and verify its digest.

    Raises LengthMismatch when the stream lengths cannot belong to one
    protection pass, and IntegrityFailure when the digest check fails.
    No attempted output is kept; a caller that wants the unverified
    pieces iterates ``recover_chunks``, which yields them before it
    raises.
    """
    unit_count, extra = divmod(len(puf_payload), REMAINDER_LEN)
    tail_len = len(prf_plain) - SUB_LEN * unit_count - DIGEST_LEN
    if extra or not 0 <= tail_len < UNIT_LEN:
        raise LengthMismatch("stream lengths cannot come from one protection pass")
    content_len = UNIT_LEN * unit_count + tail_len
    return b"".join(recover_chunks(io.BytesIO(puf_payload).read, io.BytesIO(prf_plain).read, content_len, key))
