"""Fragment placement across storage backends.

Blobs are content addressed: the id of a blob is SHA-256 of its bytes,
which ``BlobRef.check`` recomputes on every read, so silent corruption
on any backend surfaces as ``IntegrityFailure``.  Two interchangeable
backends: a local directory (two-level fan-out by the first two hex
chars of the id, atomic write via temp file + rename), and a remote
client speaking the wire protocol below.

Wire protocol, one TCP connection carrying any number of requests::

    request:  opcode u8 | id 32B | (PUT only: length u64 LE | payload)
    response: status u8 | (GET, status OK only: length u64 LE | payload)

    opcodes: 0x01 PUT, 0x02 GET, 0x03 DELETE
    status:  0x00 OK, 0x01 NOT_FOUND, 0x02 ERROR

The server checks a PUT payload and a stored blob against their ids
and answers ERROR on a mismatch, as it does when its own store fails;
the connection is then served on.  ERROR carries no reason, so the
client cannot tell a corrupt blob from a failed store: a PUT answered
ERROR raises ``BackendUnavailable`` (exit 6) and a GET answered ERROR
raises ``IntegrityFailure`` (exit 4), whatever went wrong on the
server.  Payloads are capped at 1 GiB.  An unknown opcode gets ERROR and a closed
connection: its frame length is unknown.
A connection whose client sends nothing, or stops partway through a
frame, for ``REMOTE_TIMEOUT`` seconds (10) is closed by the server.

Both ends read frames through buffered socket files, so the server
holds a PUT payload once and the client a GET body once; reading an
announced length reserves that many bytes up front, but pages are
touched only as bytes arrive.  The GET reply and the client's PUT frame
are still built whole by concatenation, and no payload is streamed.

``disperse`` enforces the placement rule: the public fragment goes to
the untrusted (cloud) backend, the private fragment to the device
backend; the two must carry one file id and never share a backend.
Neither store alone opens a record, but the cloud store plus the key is
not safe: an attacker can recover each 32-byte unit by trying the 2^32
values of its selected 4-byte sub-fragment.

``PlacementIndex`` is an append-only JSONL file, one placement per
line, where the last line for a record wins.  Both readers map the file
read-only and take it from its end.  ``lookup`` searches the mapping
backwards for the record id's hex and parses only the line a hit lands
in, so a recent record costs one short search however long the index
grows; a hit inside another line's blob id is skipped by checking that
line's ``record_id``.  A line counts only once its newline is written:
a torn final fragment is ignored, ``record`` starts a new line after
one, and a line that does not parse as a placement (such a fragment,
once terminated) is skipped.  Only ``record`` writes the index, and
always by appending, so a mapped page never disappears under a reader;
truncating the index while a reader runs is unsupported.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import socket
import socketserver
import struct
import threading
from collections import namedtuple
from pathlib import Path

from .container import atomic_write, pair_id
from .core import _fromhex
from .errors import BackendUnavailable, FormatError, IntegrityFailure, NotFound

MAX_PAYLOAD = 1 << 30

OP_PUT = 0x01
OP_GET = 0x02
OP_DELETE = 0x03

ST_OK = 0x00
ST_NOT_FOUND = 0x01
ST_ERROR = 0x02

_LEN = struct.Struct("<Q")

# Seconds each socket operation may block, on either end of a connection.
REMOTE_TIMEOUT = 10.0


class BlobRef(namedtuple("BlobRef", "id")):
    """32-byte content address of a stored blob."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's, which _replace calls, skips __new__

    def __new__(cls, id: bytes):
        if len(id) != 32:
            raise ValueError("blob id must be 32 bytes")
        return super().__new__(cls, id)

    @classmethod
    def for_payload(cls, payload: bytes) -> "BlobRef":
        return cls(hashlib.sha256(payload).digest())

    @classmethod
    def from_hex(cls, text: str) -> "BlobRef":
        return cls(_fromhex(text, 32, "blob id"))

    @property
    def hex(self) -> str:
        return self.id.hex()

    def check(self, payload: bytes) -> bytes:
        """``payload``, once it is known to hash to this id."""
        if hashlib.sha256(payload).digest() != self.id:
            raise IntegrityFailure(f"blob {self.hex} fails its hash check")
        return payload


class DirectoryBackend:
    def __init__(self, root: str | Path, name: str | None = None):
        self.root = Path(root)
        self.name = name if name is not None else str(self.root)

    def _path(self, ref: BlobRef) -> Path:
        return self.root / ref.hex[:2] / ref.hex

    def put(self, payload: bytes) -> BlobRef:
        ref = BlobRef.for_payload(payload)
        # Written whole even when present, which also heals a corrupted
        # copy; readers never observe a partial blob.
        with atomic_write(self._path(ref)) as write:
            write(payload)
        return ref

    def get(self, ref: BlobRef) -> bytes:
        path = self._path(ref)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no blob {ref.hex}") from None
        return ref.check(payload)

    def delete(self, ref: BlobRef) -> bool:
        try:
            self._path(ref).unlink()
            return True
        except FileNotFoundError:
            return False


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) < n:
        raise ConnectionError("peer closed mid-frame")
    return data


class RemoteBackend:
    """Client for a blob server; one connection per call."""

    def __init__(self, host: str, port: int, name: str | None = None):
        self.host = host
        self.port = port
        self.name = name if name is not None else f"remote:{host}:{port}"

    def _request(self, opcode: int, ref: BlobRef, payload: bytes | None = None) -> tuple[int, bytes]:
        frame = bytes([opcode]) + ref.id
        if payload is not None:
            frame += _LEN.pack(len(payload)) + payload
        try:
            with socket.create_connection((self.host, self.port), timeout=REMOTE_TIMEOUT) as sock, \
                    sock.makefile("rb") as replies:
                sock.sendall(frame)
                status = _read_exact(replies, 1)[0]
                body = b""
                if opcode == OP_GET and status == ST_OK:
                    (length,) = _LEN.unpack(_read_exact(replies, 8))
                    if length > MAX_PAYLOAD:
                        raise FormatError("server announced an oversized payload")
                    body = _read_exact(replies, length)
                return status, body
        except OSError as exc:
            raise BackendUnavailable(f"{self.name}: {exc}") from exc

    def put(self, payload: bytes) -> BlobRef:
        if len(payload) > MAX_PAYLOAD:
            raise ValueError("payload exceeds the 1 GiB protocol cap")
        ref = BlobRef.for_payload(payload)
        status, _ = self._request(OP_PUT, ref, payload)
        if status != ST_OK:
            raise BackendUnavailable(f"{self.name}: server refused put (status {status})")
        return ref

    def get(self, ref: BlobRef) -> bytes:
        status, body = self._request(OP_GET, ref)
        if status == ST_NOT_FOUND:
            raise NotFound(f"no blob {ref.hex}")
        if status != ST_OK:
            raise IntegrityFailure(f"server could not produce a valid blob {ref.hex}")
        return ref.check(body)

    def delete(self, ref: BlobRef) -> bool:
        status, _ = self._request(OP_DELETE, ref)
        return status == ST_OK


def _reply(backend: DirectoryBackend, opcode: int, ref: BlobRef, payload: bytes | None) -> bytes:
    """The response to one whole request frame.

    A storage failure (full disk, unwritable root, a blob path that is a
    directory) gets ERROR like a blob that fails its hash check: the
    frame was read whole, so the connection stays in sync and is served on.
    """
    try:
        if opcode == OP_PUT:
            backend.put(ref.check(payload))
            return bytes([ST_OK])
        if opcode == OP_GET:
            payload = backend.get(ref)
            return bytes([ST_OK]) + _LEN.pack(len(payload)) + payload
        return bytes([ST_OK if backend.delete(ref) else ST_NOT_FOUND])
    except NotFound:
        return bytes([ST_NOT_FOUND])
    except (IntegrityFailure, OSError):
        return bytes([ST_ERROR])


class _BlobRequestHandler(socketserver.StreamRequestHandler):
    server: BlobServer
    timeout = REMOTE_TIMEOUT  # a client that sends nothing, or stops mid-frame, is dropped

    def handle(self):
        # Every OSError here is the client's socket: storage errors are
        # answered inside ``_reply``.
        try:
            while op_raw := self.rfile.read(1):
                opcode = op_raw[0]
                if opcode not in (OP_PUT, OP_GET, OP_DELETE):
                    # Frame sync is lost: hang up.
                    self.wfile.write(bytes([ST_ERROR]))
                    return
                ref = BlobRef(_read_exact(self.rfile, 32))
                payload = None
                if opcode == OP_PUT:
                    (length,) = _LEN.unpack(_read_exact(self.rfile, 8))
                    if length > MAX_PAYLOAD:
                        # Framing can't be trusted past an oversize claim.
                        self.wfile.write(bytes([ST_ERROR]))
                        return
                    payload = _read_exact(self.rfile, length)
                self.wfile.write(_reply(self.server.backend, opcode, ref, payload))
        except OSError:
            return


class BlobServer(socketserver.ThreadingTCPServer):
    """Wire-protocol server over a directory store; ``with`` serves it
    from a background thread and shuts it down on exit."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str, port: int, root: str | Path):
        Path(root).mkdir(parents=True, exist_ok=True)  # an unusable root fails here, not on a PUT
        self.backend = DirectoryBackend(root)
        try:
            super().__init__((host, port), _BlobRequestHandler)
        except OSError as exc:
            raise BackendUnavailable(f"cannot bind {host}:{port}: {exc}") from exc

    def __enter__(self) -> "BlobServer":
        self._thread = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)


class Placement(namedtuple("Placement", "record_id puf_ref puf_backend prf_ref prf_backend")):
    """Where one record's fragments live: the record id, and each
    fragment's ``BlobRef`` and backend name."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "record_id": self.record_id.hex(),
            "puf": {"id": self.puf_ref.hex, "backend": self.puf_backend},
            "prf": {"id": self.prf_ref.hex, "backend": self.prf_backend},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Placement":
        return cls(
            record_id=bytes.fromhex(obj["record_id"]),
            puf_ref=BlobRef.from_hex(obj["puf"]["id"]),
            puf_backend=obj["puf"]["backend"],
            prf_ref=BlobRef.from_hex(obj["prf"]["id"]),
            prf_backend=obj["prf"]["backend"],
        )


class PlacementIndex:
    """Append-only JSONL record of placements; last write wins per record."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def record(self, placement: Placement):
        line = json.dumps(placement.to_json()).encode() + b"\n"
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o600)
        except FileNotFoundError:  # the store's first record
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o600)
        try:
            end = os.lseek(fd, 0, os.SEEK_END)
            if end and os.pread(fd, 1, end - 1) != b"\n":
                line = b"\n" + line  # close a torn append first
            if os.write(fd, line) != len(line):
                raise OSError(f"short write to {self.path}")
        finally:
            os.close(fd)

    def _mapped(self) -> mmap.mmap | None:
        """The index mapped read-only, or None when it is absent or empty."""
        try:
            f = self.path.open("rb")
        except FileNotFoundError:
            return None
        with f:
            if os.fstat(f.fileno()).st_size == 0:  # mmap refuses an empty file
                return None
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)

    @staticmethod
    def _parse(line: bytes) -> Placement | None:
        try:
            return Placement.from_json(json.loads(line))
        except (ValueError, KeyError, TypeError, RecursionError):
            return None

    def records(self) -> dict[bytes, Placement]:
        mapped = self._mapped()
        if mapped is None:
            return {}
        with mapped:
            lines = mapped[: mapped.rfind(b"\n") + 1].split(b"\n")
        out: dict[bytes, Placement] = {}
        for line in reversed(lines):
            placement = self._parse(line)
            if placement is not None:
                out.setdefault(placement.record_id, placement)
        return out

    def lookup(self, record_id: bytes) -> Placement | None:
        mapped = self._mapped()
        if mapped is None:
            return None
        needle = record_id.hex().encode()
        with mapped:
            # Past the last newline lies at most a torn fragment.
            hit = mapped.rfind(needle, 0, mapped.rfind(b"\n") + 1)
            while hit >= 0:
                start = mapped.rfind(b"\n", 0, hit) + 1
                placement = self._parse(mapped[start : mapped.find(b"\n", hit)])
                if placement is not None and placement.record_id == record_id:
                    return placement
                hit = mapped.rfind(needle, 0, start)
        return None


def disperse(
    puf: bytes,
    prf: bytes,
    device_backend: DirectoryBackend | RemoteBackend,
    cloud_backend: DirectoryBackend | RemoteBackend,
    index: PlacementIndex,
) -> Placement:
    """Store the sealed pair, given as container bytes, per the
    dispersion rule and record the placement.

    Only the two headers are parsed, to check that the pair shares one
    file id (``container.pair_id``); the bytes are stored as given.  The
    public fragment goes to the cloud first; the private fragment is
    stored only after that succeeds, so a cloud failure leaves no partial
    placement behind.  If the device then fails, the cloud blob is
    deleted again (best effort) unless the index already records it for
    this record, and the device's error propagates.
    """
    if device_backend is cloud_backend or device_backend.name == cloud_backend.name:
        raise IntegrityFailure(
            f"public and private fragments must not share backend {cloud_backend.name!r}"
        )
    record_id = pair_id(puf, prf)
    puf_ref = cloud_backend.put(puf)
    try:
        prf_ref = device_backend.put(prf)
    except Exception:
        prior = index.lookup(record_id)
        if prior is None or prior.puf_ref != puf_ref:
            try:
                cloud_backend.delete(puf_ref)
            except (BackendUnavailable, OSError):
                pass
        raise
    placement = Placement(
        record_id=record_id,
        puf_ref=puf_ref,
        puf_backend=cloud_backend.name,
        prf_ref=prf_ref,
        prf_backend=device_backend.name,
    )
    index.record(placement)
    return placement
