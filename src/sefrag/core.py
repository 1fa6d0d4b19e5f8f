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
``CHUNK_UNITS`` units at a time, while the selectors and the SHA-256
content digest advance with them.  Per chunk, ``gather`` splits the
units into their picked sub-fragments and 28-byte remainders,
``keystream`` joins the units' 28-byte digests, one whole-chunk XOR
applies it, and on the way back ``scatter``, the exact inverse of
``gather``, rebuilds the units.  gather and scatter move 4-byte words
with strided memoryview copies and choose between them with big-integer
masks, so the keystream hash is the only per-unit Python work.  A
chunk's working buffers, about 1 MiB at 4,096 units, do not grow with
the content length.  ``protect`` and ``recover`` run the same pass over
bytes held in memory.

Apart from the ``read`` callables the streaming pass consumes, all
functions are pure; keys and streams are plain immutable bytes, so
concurrent use is safe.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from dataclasses import dataclass

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
    if selectors and max(selectors) >= SUBS_PER_UNIT:
        raise ValueError(f"selectors must be in [0, {SUBS_PER_UNIT - 1}]")
    wide = bytearray(SUB_LEN * len(selectors))
    for b in range(SUB_LEN):
        wide[b::SUB_LEN] = selectors
    return [_int(wide.translate(table)) for table in _AFTER]


@dataclass(frozen=True)
class ProtectionKey:
    """128-bit secret driving fragment selection, keystreams, and AES."""

    bytes: bytes

    def __post_init__(self):
        if len(self.bytes) != KEY_LEN:
            raise ValueError(f"protection key must be {KEY_LEN} bytes, got {len(self.bytes)}")

    @classmethod
    def from_hex(cls, text: str) -> "ProtectionKey":
        return cls(bytes.fromhex(text))

    @classmethod
    def random(cls) -> "ProtectionKey":
        return cls(os.urandom(KEY_LEN))


@dataclass(frozen=True)
class ProtectedStreams:
    """Output of ``protect``: the public payload and the private stream.

    ``prf_plain`` is selected sub-fragments ++ tail ++ SHA-256(content);
    it is the part that must go on to cipher protection.
    """

    puf_payload: bytes
    prf_plain: bytes


def selector_stream(key: ProtectionKey, unit_count: int) -> bytes:
    """Return one selector in [0, 7] per unit, derived from the key alone.

    Block t of 32 selectors is SHA-256(key || "FRAG-SEL" || LE64(t)); each
    byte reduces mod 8 without bias (256 % 8 == 0).  Deterministic, so the
    recovering side regenerates the identical sequence, and bulk-generable
    so every chunk of units can be processed independently.
    """
    if unit_count < 0:
        raise ValueError("unit_count must be non-negative")
    return _selectors(key, 0, unit_count)


def _selectors(key: ProtectionKey, start: int, stop: int) -> bytes:
    """Selectors of units ``start`` to ``stop - 1``; ``start`` is a whole
    number of blocks."""
    sha = hashlib.sha256
    prefix = key.bytes + _SELECTOR_DOMAIN
    blocks = b"".join([
        sha(prefix + t.to_bytes(8, "little")).digest()
        for t in range(start // SELECTORS_PER_BLOCK, -(-stop // SELECTORS_PER_BLOCK))
    ])
    return blocks[:stop - start].translate(_MOD8)


def gather(units: bytes, selectors: bytes) -> tuple[bytes, bytes]:
    """Split whole units into ``(picked, remainders)``.

    ``picked`` holds the 4-byte sub-fragment each unit's selector names;
    ``remainders`` the other seven of each unit in their original order,
    28 bytes per unit.
    """
    count = len(selectors)
    if len(units) != UNIT_LEN * count:
        raise ValueError(f"units must be {UNIT_LEN} bytes per selector")
    after = _after_masks(selectors)
    w = [_int(column) for column in _columns(units, SUBS_PER_UNIT)]
    # Remainder word k is unit word k before the pick and word k + 1 from it on.
    remainders = [w[k + 1] ^ ((w[k] ^ w[k + 1]) & after[k]) for k in range(SUBS_PER_UNIT - 1)]
    picked = w[-1]
    for k in reversed(range(SUBS_PER_UNIT - 1)):
        picked = w[k] ^ ((picked ^ w[k]) & after[k])
    return picked.to_bytes(SUB_LEN * count, "little"), _rows([_column(r, count) for r in remainders])


def scatter(picked: bytes, remainders: bytes, selectors: bytes) -> bytes:
    """Inverse of ``gather``: put each picked sub-fragment back in its unit."""
    count = len(selectors)
    if len(picked) != SUB_LEN * count or len(remainders) != REMAINDER_LEN * count:
        raise ValueError(f"need {SUB_LEN} picked and {REMAINDER_LEN} remainder bytes per selector")
    after = _after_masks(selectors)
    p = _int(picked)
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


def keystream(picked: bytes, key: ProtectionKey, first: int = 0) -> bytes:
    """Joined 28-byte keystreams of units ``first``, ``first + 1``, ...
    whose selected sub-fragments are ``picked``.

    Unit i's keystream is SHA-256(selected || key || LE64(i)) truncated to
    match its seven remaining sub-fragments.  The index term forces
    distinct keystreams even for identical units.
    """
    if len(picked) % SUB_LEN:
        raise ValueError(f"picked sub-fragments must be a multiple of {SUB_LEN} bytes")
    if first < 0:
        raise ValueError("first unit index must be non-negative")
    count = len(picked) // SUB_LEN
    indices = struct.pack(f"<{count}Q", *range(first, first + count))
    messages = _rows([
        _words(picked), *_columns(key.bytes * count, KEY_LEN // SUB_LEN), *_columns(indices, 2),
    ])
    message_len = SUB_LEN + KEY_LEN + 8
    sha = hashlib.sha256
    digests = b"".join([sha(m).digest() for m in struct.unpack(f"{message_len}s" * count, messages)])
    return _rows(_columns(digests, SUBS_PER_UNIT)[:-1])


def _chunks(unit_count: int):
    for start in range(0, unit_count, CHUNK_UNITS):
        yield start, min(start + CHUNK_UNITS, unit_count)


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
    for start, stop in _chunks(unit_count):
        units = read(UNIT_LEN * (stop - start))
        digest.update(units)
        picked, remainders = gather(units, _selectors(key, start, stop))
        yield _xor(remainders, keystream(picked, key, start)), picked
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
    for start, stop in _chunks(unit_count):
        picked = read_private(SUB_LEN * (stop - start))
        remainders = _xor(read_public(REMAINDER_LEN * (stop - start)), keystream(picked, key, start))
        units = scatter(picked, remainders, _selectors(key, start, stop))
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
