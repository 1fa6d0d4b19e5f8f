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
advances with them in ``hashlib``.  Each chunk is one call to the
kernel ``_kernel()`` returns (``sefrag._native``: the C library or its
pure-Python counterpart, same bytes), which derives the chunk's
selectors from the key and the index of its first unit, so each chunk
is a pure function of its bytes, the key and that index.  This module
holds the format the kernel computes: the key, the selector stream and
the pass.  ``protect`` and ``recover`` run the same pass over bytes
held in memory.

Apart from the ``read`` callables the streaming pass consumes and the
kernel's one-time build, all functions are pure; keys and streams are plain immutable bytes, so
concurrent use is safe.
"""

from __future__ import annotations

import hashlib
import io
import os
from collections import namedtuple

from .errors import FormatError, IntegrityFailure

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


class ProtectionKey(namedtuple("ProtectionKey", "bytes")):
    """128-bit secret driving fragment selection, keystreams, and AES;
    immutable, equal by value, and its repr hides the key."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's, which _replace calls, skips __new__

    def __new__(cls, bytes: bytes):
        if len(bytes) != KEY_LEN:
            raise ValueError(f"protection key must be {KEY_LEN} bytes, got {len(bytes)}")
        return super().__new__(cls, bytes)

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


def _chunks(unit_count: int):
    for start in range(0, unit_count, CHUNK_UNITS):
        yield start, min(start + CHUNK_UNITS, unit_count)


def _kernel():
    """The kernel ``sefrag._native.load`` chose for this process; tests
    patch this attribute to pin one."""
    from . import _native

    return _native.load()


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

    Raises FormatError when the stream lengths cannot belong to one
    protection pass, and IntegrityFailure when the digest check fails.
    No attempted output is kept; a caller that wants the unverified
    pieces iterates ``recover_chunks``, which yields them before it
    raises.
    """
    unit_count, extra = divmod(len(puf_payload), REMAINDER_LEN)
    tail_len = len(prf_plain) - SUB_LEN * unit_count - DIGEST_LEN
    if extra or not 0 <= tail_len < UNIT_LEN:
        raise FormatError("stream lengths cannot come from one protection pass")
    content_len = UNIT_LEN * unit_count + tail_len
    return b"".join(recover_chunks(io.BytesIO(puf_payload).read, io.BytesIO(prf_plain).read, content_len, key))
