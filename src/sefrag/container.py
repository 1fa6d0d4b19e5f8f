"""On-disk container formats and the seal/open pipeline.

Two containers, both little-endian throughout:

``.puf`` (public fragment, safe on untrusted storage)::

    "PUF1" | version u8 | flags u8 | file_id 16B | header_len u32
    | original_content_len u64 | unit_count u64 | head | puf_payload

``.prf`` (private fragment, stays on the trusted device)::

    "PRF1" | version u8 | file_id 16B | kdf_salt 16B | iv 16B
    | ct_len u64 | ciphertext

The private stream is AES-128-CBC encrypted with PKCS#7 padding and a
fresh random IV; authenticity comes from the digest inside the stream,
so no MAC is layered on top.  ``file_id`` is random per seal and shared
by the pair.  The file header (stored plaintext by design) lives in the
public container; flag bit 0 marks it stripped for anonymized release.

``seal_stream`` and ``open_stream`` are one pass over binary files,
``core.CHUNK_UNITS`` units at a time, so their memory does not grow with
the file.  Both call ``key_for(kdf_salt)`` only once the input's
structure is checked, and then return a callable that runs the pass into
the writers it is given: the kernel's ``seal_pass`` or ``open_pass``
where it is native and the input and writers are files (``atomic_write``
gives its descriptor), else ``core.protect_chunks`` or
``recover_chunks``; same bytes.  The headers go out first: the ``.puf``
header needs only the head and the content length, which the input's
size gives, and the ``.prf`` header's ``ct_len`` follows from the
content length (``_private_sizes``): the private stream is 4 bytes per
unit, the tail and a 32-byte digest, PKCS#7-padded.  The padding, here,
and AES-CBC, one ``sefrag._native.cbc`` stream per pass, run
incrementally over each chunk's picked bytes (the picks of chunk k
start at plaintext offset 4 * CHUNK_UNITS * k).
``open_stream`` checks the pairing and ``ct_len`` before it asks for the
key.  Its one stream decrypts the padding block first, so a wrong key
fails before any work, then the private stream; the content digest is
checked after the last piece.  Its output written through
``atomic_write`` is therefore renamed into place only once verified.
``seal`` and ``open`` run the same pass over bytes in memory, on
``PufContainer`` and ``PrfContainer``; ``put``, ``request``, ``entropy``
and ``pdf`` keep sealed containers as bytes and parse only their
headers (``pair_id``, ``_strip_head``, ``body``).
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from collections import namedtuple
from pathlib import Path

from . import core
from .core import ProtectionKey
from .errors import FormatError, IntegrityFailure

PUF_MAGIC = b"PUF1"
PRF_MAGIC = b"PRF1"
VERSION = 1
FILE_ID_LEN = 16
FLAG_HEADER_STRIPPED = 0x01

DICOM_PREAMBLE_LEN = 132  # 128-byte preamble + "DICM"

_PUF_HEADER = struct.Struct("<4sBB16sIQQ")
_PRF_HEADER = struct.Struct("<4sB16s16s16sQ")

KDF_ITERATIONS = 100_000
ZERO_SALT = bytes(16)  # marks a raw (non-derived) key


def _read_exact(src, n: int) -> bytes:
    data = src.read(n)
    if len(data) != n:
        raise FormatError(f"input ended {n - len(data)} bytes early")
    return data


def _size(src) -> int:
    """Length of a seekable binary file; leaves it at its start."""
    size = src.seek(0, os.SEEK_END)
    src.seek(0)
    return size


def _read_head(src, size: int, mode: str) -> bytes:
    """Read the plaintext head ``mode`` names from the start of ``src``,
    a file of ``size`` bytes, leaving ``src`` at the protectable content.

    Modes: ``raw`` (no head), ``fixed:<n>`` (first n bytes), ``dicom``
    (132-byte preamble ending in "DICM").
    """
    if mode == "raw":
        return b""
    if mode == "dicom":
        head = src.read(DICOM_PREAMBLE_LEN)
        if len(head) < DICOM_PREAMBLE_LEN or head[128:132] != b"DICM":
            raise FormatError("no DICM marker at offset 128")
        return head
    if mode.startswith("fixed:"):
        digits = mode[len("fixed:"):]
        # ASCII digits only: int() also takes "+5", " 5", "1_0" and Arabic-Indic digits.
        if not (digits.isascii() and digits.isdigit()):
            raise FormatError(f"bad fixed header length in mode {mode!r}")
        n = int(digits)
        if n > size:
            raise FormatError(f"input is {size} bytes, fixed header wants {n}")
        return _read_exact(src, n)
    raise FormatError(f"unknown header mode {mode!r}")


def _puf_header(file_id: bytes, head: bytes, content_len: int, flags: int = 0) -> bytes:
    return _PUF_HEADER.pack(
        PUF_MAGIC, VERSION, flags, file_id, len(head), content_len, content_len // core.UNIT_LEN,
    ) + head


def _read_puf_header(src, size: int) -> tuple[int, bytes, bytes, int]:
    """Parse the header and head of a ``.puf`` file of ``size`` bytes from
    its start; returns ``(flags, file_id, head, content_len)`` and leaves
    ``src`` at the payload."""
    if size < _PUF_HEADER.size:
        raise FormatError("public container truncated")
    magic, version, flags, file_id, header_len, content_len, unit_count = \
        _PUF_HEADER.unpack(_read_exact(src, _PUF_HEADER.size))
    if magic != PUF_MAGIC:
        raise FormatError(f"bad public container magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported public container version {version}")
    if unit_count != content_len // core.UNIT_LEN:
        raise FormatError("unit count inconsistent with content length")
    if size - _PUF_HEADER.size != header_len + core.REMAINDER_LEN * unit_count:
        raise FormatError("public container body length mismatch")
    return flags, file_id, _read_exact(src, header_len), content_len


def _prf_header(file_id: bytes, kdf_salt: bytes, iv: bytes, ct_len: int) -> bytes:
    return _PRF_HEADER.pack(PRF_MAGIC, VERSION, file_id, kdf_salt, iv, ct_len)


def _read_prf_header(src, size: int) -> tuple[bytes, bytes, bytes, int]:
    """Parse the header of a ``.prf`` file of ``size`` bytes from its
    start; returns ``(file_id, kdf_salt, iv, ct_len)`` and leaves ``src``
    at the ciphertext."""
    if size < _PRF_HEADER.size:
        raise FormatError("private container truncated")
    magic, version, file_id, kdf_salt, iv, ct_len = _PRF_HEADER.unpack(_read_exact(src, _PRF_HEADER.size))
    if magic != PRF_MAGIC:
        raise FormatError(f"bad private container magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported private container version {version}")
    if size - _PRF_HEADER.size != ct_len:
        raise FormatError("private container body length mismatch")
    if ct_len % 16 or ct_len == 0:
        raise FormatError("ciphertext length must be a non-empty multiple of 16")
    return file_id, kdf_salt, iv, ct_len


def pair_id(puf: bytes, prf: bytes) -> bytes:
    """The file id that the sealed ``.puf`` and ``.prf`` bytes share, read
    from their headers: FormatError for a malformed container,
    IntegrityFailure for fragments of two records."""
    puf_id = _read_puf_header(io.BytesIO(puf), len(puf))[1]
    if puf_id != _read_prf_header(io.BytesIO(prf), len(prf))[0]:
        raise IntegrityFailure("public and private containers carry different file ids")
    return puf_id


def body(raw: bytes) -> memoryview:
    """The protected part of ``raw``: a view of a ``.puf``'s payload or a
    ``.prf``'s ciphertext after its checked header, or of all of ``raw``
    when it is neither."""
    src = io.BytesIO(raw)
    read_header = {PUF_MAGIC: _read_puf_header, PRF_MAGIC: _read_prf_header}.get(raw[:4])
    if read_header is not None:
        read_header(src, len(raw))
    return memoryview(raw)[src.tell():]


def _strip_head(puf: bytes) -> bytes:
    """The ``.puf`` bytes ``puf`` anonymized: no head, flagged as stripped."""
    flags, file_id, head, content_len = _read_puf_header(io.BytesIO(puf), len(puf))
    header = _puf_header(file_id, b"", content_len, flags | FLAG_HEADER_STRIPPED)
    # The payload follows the fixed-size header and the head: one copy.
    return header + memoryview(puf)[len(header) + len(head):]


# The in-memory pair of ``seal`` and ``open``.  Only ``from_bytes`` builds
# them here, after the header parser has checked every field.
class PufContainer(namedtuple("PufContainer", "file_id original_content_len puf_payload head flags")):
    __slots__ = ()

    def to_bytes(self) -> bytes:
        return _puf_header(self.file_id, self.head, self.original_content_len, self.flags) + self.puf_payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PufContainer":
        src = io.BytesIO(raw)
        flags, file_id, head, content_len = _read_puf_header(src, len(raw))
        return cls(file_id, content_len, src.read(), head, flags)


class PrfContainer(namedtuple("PrfContainer", "file_id kdf_salt iv ciphertext")):
    __slots__ = ()

    def to_bytes(self) -> bytes:
        return _prf_header(self.file_id, self.kdf_salt, self.iv, len(self.ciphertext)) + self.ciphertext

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PrfContainer":
        src = io.BytesIO(raw)
        file_id, kdf_salt, iv, _ = _read_prf_header(src, len(raw))
        return cls(file_id=file_id, kdf_salt=kdf_salt, iv=iv, ciphertext=src.read())


def _filenos(*streams) -> list[int] | None:
    """The descriptors of ``streams`` (files, ``atomic_write`` writers), or None."""
    try:
        return [stream.fileno() for stream in streams]
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return None


def _private_sizes(content_len: int) -> tuple[int, int]:
    """Ciphertext length and PKCS#7 pad count (1-16) of the private stream:
    4 picked bytes per unit, the tail, the digest, padded to whole blocks."""
    units, tail = divmod(content_len, core.UNIT_LEN)
    plain_len = core.SUB_LEN * units + tail + core.DIGEST_LEN
    pad = 16 - plain_len % 16
    return plain_len + pad, pad


def seal_stream(src, key_for, mode: str = "raw", kdf_salt: bytes = ZERO_SALT):
    """Seal the seekable binary file ``src`` in one streaming pass.

    Returns the new pair's file id and ``seal(write_puf, write_prf)``,
    which runs the pass: each writer gets its container's header, then
    its pieces in order, and ``seal`` returns once all are written, with
    the number of workers the pass ran on (2 where the native pass ran
    its second worker, else 1).
    The head is checked before ``key_for(kdf_salt)`` gives the key, both
    before this returns.  ``kdf_salt`` records how the key was derived
    so the recovering side can repeat the derivation; all zeros means a
    raw key was supplied.
    """
    size = _size(src)
    head = _read_head(src, size, mode)
    key = key_for(kdf_salt)
    content_len = size - len(head)
    ct_len, pad = _private_sizes(content_len)
    file_id = os.urandom(FILE_ID_LEN)
    iv = os.urandom(16)

    def seal(write_puf, write_prf):
        from ._native import cbc  # _native imports this module
        write_puf(_puf_header(file_id, head, content_len))
        write_prf(_prf_header(file_id, kdf_salt, iv, ct_len))
        encrypt = cbc(key.bytes, iv, True)
        seal_pass, fds = getattr(core._kernel(), "seal_pass", None), _filenos(src, write_puf, write_prf)
        workers = 1
        if seal_pass and fds:  # the private stream's unciphered end: last picks, tail, digest
            end, workers = seal_pass((fds[0], src.tell()), *fds[1:], content_len, key.bytes, encrypt)
            write_prf(encrypt(end))
        else:
            core.protect_chunks(lambda n: _read_exact(src, n), content_len, key, write_puf,
                                lambda private: write_prf(encrypt(private)))
        write_prf(encrypt(bytes([pad]) * pad))
        return workers

    return file_id, seal


def open_stream(puf_src, prf_src, key_for):
    """Open the pair of seekable ``.puf``/``.prf`` binary files in one
    streaming pass; ``key_for(kdf_salt)`` gives the key.

    Both headers, the pairing and the private stream's length are
    checked before ``key_for`` is called; one AES stream then checks the
    padding block and decrypts the pass.  Returns ``recover(write)``,
    which runs the pass: ``write`` gets the head, then the content chunk
    by chunk, then the tail.  IntegrityFailure for foreign
    pairs, a wrong length, or a wrong key caught by the padding check;
    ``recover`` raises it after its last piece for anything that slips
    past them.
    """
    _, file_id, head, content_len = _read_puf_header(puf_src, _size(puf_src))
    prf_id, kdf_salt, iv, ct_len = _read_prf_header(prf_src, _size(prf_src))
    if file_id != prf_id:
        raise IntegrityFailure(
            f"public fragment {file_id.hex()} does not pair with private fragment {prf_id.hex()}"
        )
    expected, pad = _private_sizes(content_len)
    if ct_len != expected:
        raise IntegrityFailure(f"private stream is {ct_len} cipher bytes, pair expects {expected}")
    key = key_for(kdf_salt)
    from ._native import cbc  # _native imports this module
    # One stream, chained from the second-to-last cipher block (ct_len >= 48),
    # decrypts the last, which holds the padding: a wrong key fails here,
    # before any work.  CBC chains each block to the cipher block before
    # it, so decrypting iv next, its output dropped, restarts the chain at iv.
    body = prf_src.tell()
    prf_src.seek(body + ct_len - 32)
    prev, last = _read_exact(prf_src, 16), _read_exact(prf_src, 16)
    decrypt = cbc(key.bytes, prev, False)
    if decrypt(last)[-pad:] != bytes([pad]) * pad:
        raise IntegrityFailure("private stream padding invalid (wrong key?)")
    decrypt(iv)
    prf_src.seek(body)
    held = b""

    def read_private(n: int) -> bytes:
        # Decrypt whole blocks, as many as the next n plaintext bytes need.
        nonlocal held
        need = n - len(held)
        if need > 0:
            held += decrypt(_read_exact(prf_src, -(-need // 16) * 16))
        piece, held = held[:n], held[n:]
        return piece

    def recover(write):
        write(head)
        open_pass, fds = getattr(core._kernel(), "open_pass", None), _filenos(puf_src, prf_src, write)
        if open_pass and fds:
            core._check_digest(*open_pass((fds[0], puf_src.tell()), (fds[1], body), fds[2], content_len, key.bytes,
                                          iv, decrypt))
        else:
            core.recover_chunks(lambda n: _read_exact(puf_src, n), read_private, content_len, key, write)

    return recover


def seal(
    data: bytes,
    key: ProtectionKey,
    mode: str = "raw",
    kdf_salt: bytes = ZERO_SALT,
) -> tuple[PufContainer, PrfContainer]:
    """``seal_stream`` over bytes in memory: a public/private container pair."""
    _, run = seal_stream(io.BytesIO(data), lambda _salt: key, mode, kdf_salt)
    puf, prf = [], []
    run(puf.append, prf.append)
    return PufContainer.from_bytes(b"".join(puf)), PrfContainer.from_bytes(b"".join(prf))


def open(puf: PufContainer, prf: PrfContainer, key: ProtectionKey) -> bytes:
    """Inverse of ``seal``: ``open_stream`` over the pair in memory;
    returns head + content, or raises as ``open_stream`` does."""
    pieces = []
    open_stream(io.BytesIO(puf.to_bytes()), io.BytesIO(prf.to_bytes()), lambda _salt: key)(pieces.append)
    return b"".join(pieces)


@contextlib.contextmanager
def atomic_write(path: str | Path):
    """Context manager yielding ``write(data)``, which appends to a sibling
    temp file that is renamed to ``path`` when the block ends cleanly, so
    a failed or interrupted write leaves ``path`` absent or as it was.

    The temp file is created mode 0600 and removed on failure; every
    write is complete or raises. ``write.fileno()`` is the temp file's
    descriptor, for a pass that writes at offsets of its own. No fsync:
    this guards against process crashes and full disks, not power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)

    def write(data: bytes):
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    write.fileno = lambda: fd
    try:
        try:
            yield write
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def derive_key(passphrase: bytes, salt: bytes) -> ProtectionKey:
    """Stretch a passphrase into a protection key.

    Iterates x <- SHA-256(x || passphrase || salt) 100000 times from an
    empty x, in the kernel, and keeps the first 16 bytes.  Raises
    ``ValueError`` for an empty passphrase or a salt of another length.
    """
    if not passphrase:
        raise ValueError("passphrase must not be empty")
    if len(salt) != 16:
        raise ValueError("salt must be 16 bytes")
    return ProtectionKey(core._kernel().derive(passphrase + salt, KDF_ITERATIONS)[:16])
