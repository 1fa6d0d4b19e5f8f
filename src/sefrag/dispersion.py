"""Fragment placement across storage backends.

Blobs are content addressed: the id of a blob is SHA-256 of its bytes,
recomputed and checked on every read, so silent corruption on any
backend surfaces as ``CorruptBlob``.  Two interchangeable backends: a
local directory (two-level fan-out by the first two hex chars of the
id, atomic write via temp file + rename), and a remote client speaking
the wire protocol below.

Wire protocol, one TCP connection carrying any number of requests::

    request:  opcode u8 | id 32B | (PUT only: length u64 LE | payload)
    response: status u8 | (GET, status OK only: length u64 LE | payload)

    opcodes: 0x01 PUT, 0x02 GET, 0x03 DELETE
    status:  0x00 OK, 0x01 NOT_FOUND, 0x02 ERROR

The server re-verifies that a PUT id matches the payload hash and
answers ERROR otherwise, as it does when its own store fails; the
connection is then served on.  Payloads are capped at 1 GiB.  An unknown
opcode gets ERROR and a closed connection: its frame length is unknown.
A connection whose client sends nothing, or stops partway through a
frame, for ``REMOTE_TIMEOUT`` seconds (10) is closed by the server.

``disperse`` enforces the placement rule: the public fragment goes to
the untrusted (cloud) backend, the private fragment to the device
backend, and the two must never share a backend.  Neither store alone
opens a record, but the cloud store plus the key is not safe: an
attacker can recover each 32-byte unit by trying the 2^32 values of its
selected 4-byte sub-fragment.

``PlacementIndex`` is an append-only JSONL file, one placement per
line, where the last line for a record wins.  Both readers take the
file backwards from its end, ``LOOKUP_BLOCK`` bytes of whole lines at a
time.  ``lookup`` searches each block for the record id's hex and
parses only the line a hit lands in, so a recent record costs one block
however long the index grows; a hit inside another line's blob id is
skipped by checking that line's ``record_id``.  A line counts only once
its newline is written: a torn final fragment is ignored, ``record``
starts a new line after one, and a line that does not parse as a
placement (such a fragment, once terminated) is skipped.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from .container import PrfContainer, PufContainer, atomic_write
from .errors import (
    BackendUnavailable,
    BindError,
    CorruptBlob,
    FormatError,
    NotFound,
    SameBackend,
)

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

# Bytes the index readers take per step back from the end of the index.
LOOKUP_BLOCK = 1 << 16


@dataclass(frozen=True)
class BlobRef:
    """32-byte content address of a stored blob."""

    id: bytes

    def __post_init__(self):
        if len(self.id) != 32:
            raise ValueError("blob id must be 32 bytes")

    @classmethod
    def for_payload(cls, payload: bytes) -> "BlobRef":
        return cls(hashlib.sha256(payload).digest())

    @classmethod
    def from_hex(cls, text: str) -> "BlobRef":
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return self.id.hex()


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
        if BlobRef.for_payload(payload) != ref:
            raise CorruptBlob(f"blob {ref.hex} fails its hash check")
        return payload

    def delete(self, ref: BlobRef) -> bool:
        try:
            self._path(ref).unlink()
            return True
        except FileNotFoundError:
            return False


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        buf += chunk
    return bytes(buf)


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
            with socket.create_connection((self.host, self.port), timeout=REMOTE_TIMEOUT) as sock:
                sock.sendall(frame)
                status = _recv_exact(sock, 1)[0]
                body = b""
                if opcode == OP_GET and status == ST_OK:
                    (length,) = _LEN.unpack(_recv_exact(sock, 8))
                    if length > MAX_PAYLOAD:
                        raise FormatError("server announced an oversized payload")
                    body = _recv_exact(sock, length)
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
            raise CorruptBlob(f"server could not produce a valid blob {ref.hex}")
        if BlobRef.for_payload(body) != ref:
            raise CorruptBlob(f"blob {ref.hex} fails its hash check")
        return body

    def delete(self, ref: BlobRef) -> bool:
        status, _ = self._request(OP_DELETE, ref)
        return status == ST_OK


def _reply(backend: DirectoryBackend, opcode: int, ref: BlobRef, payload: bytes | None) -> bytes:
    """The response to one whole request frame.

    A storage failure (full disk, unwritable root, a blob path that is a
    directory) gets ERROR like a corrupt blob: the frame was read whole,
    so the connection stays in sync and is served on.
    """
    try:
        if opcode == OP_PUT:
            if BlobRef.for_payload(payload) != ref:
                return bytes([ST_ERROR])
            backend.put(payload)
            return bytes([ST_OK])
        if opcode == OP_GET:
            payload = backend.get(ref)
            return bytes([ST_OK]) + _LEN.pack(len(payload)) + payload
        return bytes([ST_OK if backend.delete(ref) else ST_NOT_FOUND])
    except NotFound:
        return bytes([ST_NOT_FOUND])
    except (CorruptBlob, OSError):
        return bytes([ST_ERROR])


class _BlobRequestHandler(socketserver.BaseRequestHandler):
    def handle(self):
        backend: DirectoryBackend = self.server.backend  # type: ignore[attr-defined]
        sock = self.request
        # A client that sends nothing, or stops mid-frame, is dropped.
        sock.settimeout(REMOTE_TIMEOUT)
        # Every OSError here is the client's socket: storage errors are
        # answered inside ``_reply``.
        try:
            while op_raw := sock.recv(1):
                opcode = op_raw[0]
                if opcode not in (OP_PUT, OP_GET, OP_DELETE):
                    # Frame sync is lost: hang up.
                    sock.sendall(bytes([ST_ERROR]))
                    return
                ref = BlobRef(_recv_exact(sock, 32))
                payload = None
                if opcode == OP_PUT:
                    (length,) = _LEN.unpack(_recv_exact(sock, 8))
                    if length > MAX_PAYLOAD:
                        # Framing can't be trusted past an oversize claim.
                        sock.sendall(bytes([ST_ERROR]))
                        return
                    payload = _recv_exact(sock, length)
                sock.sendall(_reply(backend, opcode, ref, payload))
        except OSError:
            return


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class BlobServer:
    """Wire-protocol server over a directory store."""

    def __init__(self, host: str, port: int, root: str | Path):
        Path(root).mkdir(parents=True, exist_ok=True)  # an unusable root fails here, not on a PUT
        try:
            self._server = _ThreadingServer((host, port), _BlobRequestHandler)
        except OSError as exc:
            raise BindError(f"cannot bind {host}:{port}: {exc}") from exc
        self._server.backend = DirectoryBackend(root)  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self):
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        self._thread.start()

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "BlobServer":
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()


@dataclass(frozen=True)
class Placement:
    """Where one record's fragments live."""

    record_id: bytes
    puf_ref: BlobRef
    puf_backend: str
    prf_ref: BlobRef
    prf_backend: str

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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            end = os.lseek(fd, 0, os.SEEK_END)
            if end and os.pread(fd, 1, end - 1) != b"\n":
                line = b"\n" + line  # close a torn append first
            if os.write(fd, line) != len(line):
                raise OSError(f"short write to {self.path}")
        finally:
            os.close(fd)

    def _blocks(self):
        """Yield the index's complete lines in blocks, last block first;
        each block is whole lines, each ending in a newline.  A line cut by
        a block edge goes whole into the next block yielded, and a torn
        final fragment (no newline yet) into none."""
        try:
            f = self.path.open("rb")
        except FileNotFoundError:
            return
        with f:
            pos = f.seek(0, os.SEEK_END)
            carry = b""  # bytes after pos not yielded yet: a line cut by a block edge
            while pos:
                step = min(pos, LOOKUP_BLOCK)
                pos -= step
                f.seek(pos)
                data = f.read(step) + carry
                # What precedes the block's first newline may continue further left.
                first = data.find(b"\n")
                if pos and first < 0:
                    carry = data
                    continue
                cut = first + 1 if pos else 0
                yield data[cut : data.rfind(b"\n") + 1]
                carry = data[:cut]

    @staticmethod
    def _parse(line: bytes) -> Placement | None:
        try:
            return Placement.from_json(json.loads(line))
        except (ValueError, KeyError, TypeError, RecursionError):
            return None

    def records(self) -> dict[bytes, Placement]:
        out: dict[bytes, Placement] = {}
        for lines in self._blocks():
            for line in reversed(lines.split(b"\n")):
                placement = self._parse(line)
                if placement is not None:
                    out.setdefault(placement.record_id, placement)
        return out

    def lookup(self, record_id: bytes) -> Placement | None:
        needle = record_id.hex().encode()
        for lines in self._blocks():
            hit = lines.rfind(needle)
            while hit >= 0:
                start = lines.rfind(b"\n", 0, hit) + 1
                placement = self._parse(lines[start : lines.index(b"\n", hit)])
                if placement is not None and placement.record_id == record_id:
                    return placement
                hit = lines.rfind(needle, 0, start)
        return None


def disperse(
    puf: PufContainer,
    prf: PrfContainer,
    device_backend: DirectoryBackend | RemoteBackend,
    cloud_backend: DirectoryBackend | RemoteBackend,
    index: PlacementIndex,
) -> Placement:
    """Store the pair per the dispersion rule and record the placement.

    The public fragment goes to the cloud first; the private fragment is
    stored only after that succeeds, so a cloud failure leaves no partial
    placement behind.  If the device then fails, the cloud blob is
    deleted again (best effort) unless the index already records it for
    this record, and the device's error propagates.
    """
    if device_backend is cloud_backend or device_backend.name == cloud_backend.name:
        raise SameBackend(
            f"public and private fragments must not share backend {cloud_backend.name!r}"
        )
    puf_ref = cloud_backend.put(puf.to_bytes())
    try:
        prf_ref = device_backend.put(prf.to_bytes())
    except Exception:
        prior = index.lookup(puf.file_id)
        if prior is None or prior.puf_ref != puf_ref:
            try:
                cloud_backend.delete(puf_ref)
            except (BackendUnavailable, OSError):
                pass
        raise
    placement = Placement(
        record_id=puf.file_id,
        puf_ref=puf_ref,
        puf_backend=cloud_backend.name,
        prf_ref=prf_ref,
        prf_backend=device_backend.name,
    )
    index.record(placement)
    return placement
