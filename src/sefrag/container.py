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
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import core
from .core import ProtectionKey
from .errors import (
    BadPadding,
    EmptyPassphrase,
    FormatError,
    IntegrityFailure,
    NotDicom,
    PairMismatch,
    TooShort,
)

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


def split_header(data: bytes, mode: str = "raw") -> tuple[bytes, bytes]:
    """Split input losslessly into ``(head, content)``: a plaintext head
    and the protectable content.

    Modes: ``raw`` (no head), ``fixed:<n>`` (first n bytes), ``dicom``
    (132-byte preamble ending in "DICM").
    """
    if mode == "raw":
        return b"", data
    if mode == "dicom":
        if len(data) < DICOM_PREAMBLE_LEN or data[128:132] != b"DICM":
            raise NotDicom("no DICM marker at offset 128")
        return data[:DICOM_PREAMBLE_LEN], data[DICOM_PREAMBLE_LEN:]
    if mode.startswith("fixed:"):
        try:
            n = int(mode.split(":", 1)[1])
        except ValueError:
            raise FormatError(f"bad fixed header length in mode {mode!r}") from None
        if n < 0:
            raise FormatError("fixed header length must be non-negative")
        if n > len(data):
            raise TooShort(f"input is {len(data)} bytes, fixed header wants {n}")
        return data[:n], data[n:]
    raise FormatError(f"unknown header mode {mode!r}")


@dataclass(frozen=True)
class PufContainer:
    file_id: bytes
    original_content_len: int
    puf_payload: bytes
    head: bytes = b""
    flags: int = 0

    def __post_init__(self):
        if len(self.file_id) != FILE_ID_LEN:
            raise ValueError("file_id must be 16 bytes")
        if len(self.puf_payload) != core.REMAINDER_LEN * self.unit_count:
            raise ValueError("public payload length inconsistent with content length")

    @property
    def unit_count(self) -> int:
        return self.original_content_len // core.UNIT_LEN

    @property
    def tail_len(self) -> int:
        return self.original_content_len % core.UNIT_LEN

    def to_bytes(self) -> bytes:
        return _PUF_HEADER.pack(
            PUF_MAGIC, VERSION, self.flags, self.file_id,
            len(self.head), self.original_content_len, self.unit_count,
        ) + self.head + self.puf_payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PufContainer":
        if len(raw) < _PUF_HEADER.size:
            raise FormatError("public container truncated")
        magic, version, flags, file_id, header_len, content_len, unit_count = \
            _PUF_HEADER.unpack_from(raw)
        if magic != PUF_MAGIC:
            raise FormatError(f"bad public container magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported public container version {version}")
        if unit_count != content_len // core.UNIT_LEN:
            raise FormatError("unit count inconsistent with content length")
        body = raw[_PUF_HEADER.size:]
        if len(body) != header_len + core.REMAINDER_LEN * unit_count:
            raise FormatError("public container body length mismatch")
        return cls(
            file_id=file_id,
            original_content_len=content_len,
            puf_payload=body[header_len:],
            head=body[:header_len],
            flags=flags,
        )


@dataclass(frozen=True)
class PrfContainer:
    file_id: bytes
    kdf_salt: bytes
    iv: bytes
    ciphertext: bytes

    def __post_init__(self):
        if len(self.file_id) != FILE_ID_LEN:
            raise ValueError("file_id must be 16 bytes")
        if len(self.kdf_salt) != 16 or len(self.iv) != 16:
            raise ValueError("kdf_salt and iv must be 16 bytes")
        if len(self.ciphertext) % 16 or not self.ciphertext:
            raise ValueError("ciphertext must be a non-empty multiple of 16 bytes")

    def to_bytes(self) -> bytes:
        return _PRF_HEADER.pack(
            PRF_MAGIC, VERSION, self.file_id, self.kdf_salt, self.iv,
            len(self.ciphertext),
        ) + self.ciphertext

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PrfContainer":
        if len(raw) < _PRF_HEADER.size:
            raise FormatError("private container truncated")
        magic, version, file_id, kdf_salt, iv, ct_len = _PRF_HEADER.unpack_from(raw)
        if magic != PRF_MAGIC:
            raise FormatError(f"bad private container magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported private container version {version}")
        ciphertext = raw[_PRF_HEADER.size:]
        if len(ciphertext) != ct_len:
            raise FormatError("private container body length mismatch")
        if ct_len % 16 or ct_len == 0:
            raise FormatError("ciphertext length must be a non-empty multiple of 16")
        return cls(file_id=file_id, kdf_salt=kdf_salt, iv=iv, ciphertext=ciphertext)


def _encrypt_private_stream(prf_plain: bytes, key: ProtectionKey, iv: bytes) -> bytes:
    padder = padding.PKCS7(128).padder()
    padded = padder.update(prf_plain) + padder.finalize()
    enc = Cipher(algorithms.AES(key.bytes), modes.CBC(iv)).encryptor()
    return enc.update(padded) + enc.finalize()


def _decrypt_private_stream(ciphertext: bytes, key: ProtectionKey, iv: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key.bytes), modes.CBC(iv)).decryptor()
    padded = dec.update(ciphertext) + dec.finalize()
    unpadder = padding.PKCS7(128).unpadder()
    try:
        return unpadder.update(padded) + unpadder.finalize()
    except ValueError as exc:
        raise BadPadding("private stream padding invalid (wrong key?)") from exc


def seal(
    data: bytes,
    key: ProtectionKey,
    mode: str = "raw",
    kdf_salt: bytes = ZERO_SALT,
) -> tuple[PufContainer, PrfContainer]:
    """Protect a file into a public/private container pair.

    ``kdf_salt`` records how the key was derived so the recovering side
    can repeat the derivation; all zeros means a raw key was supplied.
    """
    head, content = split_header(data, mode)
    streams = core.protect(content, key)
    file_id = os.urandom(FILE_ID_LEN)
    iv = os.urandom(16)
    puf = PufContainer(
        file_id=file_id,
        original_content_len=len(content),
        puf_payload=streams.puf_payload,
        head=head,
    )
    prf = PrfContainer(
        file_id=file_id,
        kdf_salt=kdf_salt,
        iv=iv,
        ciphertext=_encrypt_private_stream(streams.prf_plain, key, iv),
    )
    return puf, prf


def open(puf: PufContainer, prf: PrfContainer, key: ProtectionKey) -> bytes:
    """Inverse of ``seal``: returns head + content, or raises.

    PairMismatch for foreign pairs, BadPadding for a wrong key caught by
    the cipher layer, IntegrityFailure for anything that slips past it.
    """
    if puf.file_id != prf.file_id:
        raise PairMismatch(
            f"public fragment {puf.file_id.hex()} does not pair with private fragment {prf.file_id.hex()}"
        )
    prf_plain = _decrypt_private_stream(prf.ciphertext, key, prf.iv)
    expected = core.SUB_LEN * puf.unit_count + puf.tail_len + core.DIGEST_LEN
    if len(prf_plain) != expected:
        raise IntegrityFailure(
            f"private stream is {len(prf_plain)} bytes, pair expects {expected}"
        )
    content = core.recover(puf.puf_payload, prf_plain, key)
    return puf.head + content


def strip_header(puf: PufContainer) -> PufContainer:
    """Copy of the container with its plaintext head removed (anonymized)."""
    return dataclasses.replace(puf, head=b"", flags=puf.flags | FLAG_HEADER_STRIPPED)


def atomic_write(path: str | Path, data: bytes):
    """Write ``data`` to ``path`` through a sibling temp file and a rename,
    so a failed or interrupted write leaves ``path`` absent or as it was.

    The temp file is created mode 0600 and removed on failure. No fsync:
    this guards against process crashes and full disks, not power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
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
    empty x and keeps the first 16 bytes.
    """
    if not passphrase:
        raise EmptyPassphrase("passphrase must not be empty")
    if len(salt) != 16:
        raise ValueError("salt must be 16 bytes")
    x = b""
    suffix = passphrase + salt
    for _ in range(KDF_ITERATIONS):
        x = hashlib.sha256(x + suffix).digest()
    return ProtectionKey(x[:16])
