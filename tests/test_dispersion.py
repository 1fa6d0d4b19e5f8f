"""Backend, wire-protocol, and placement tests."""

import contextlib
import hashlib
import json
import os
import random
import socket
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sefrag import cli, container, core, dispersion
from sefrag.container import seal
from sefrag.core import ProtectionKey
from sefrag.dispersion import (
    MAX_PAYLOAD,
    OP_DELETE,
    OP_GET,
    OP_PUT,
    ST_ERROR,
    ST_OK,
    BlobRef,
    BlobServer,
    DirectoryBackend,
    Placement,
    PlacementIndex,
    RemoteBackend,
    disperse,
)
from sefrag.errors import (
    BackendUnavailable,
    BindError,
    CorruptBlob,
    FormatError,
    IntegrityFailure,
    NotFound,
    PairMismatch,
    SameBackend,
)

KEY = ProtectionKey.from_hex("0f0e0d0c0b0a09080706050403020100")

# Indexes in the placement tests span several 64 KiB blocks, so that a
# reader taking the index in blocks would meet lines cut at block edges.
BLOCK = 1 << 16

# Arbitrary JSON, and objects shaped partly like a placement of FUZZ_RID.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
FUZZ_RID = bytes(range(16, 32))
_BLOB_SIDE = JSON | st.fixed_dictionaries(
    {}, optional={"id": JSON | st.sampled_from(["00" * 32, "ab" * 31, "zz" * 32]), "backend": JSON}
)
PLACEMENT_LIKE = st.fixed_dictionaries(
    {"record_id": st.sampled_from([FUZZ_RID.hex(), FUZZ_RID.hex()[:-1]]) | JSON},
    optional={"puf": _BLOB_SIDE, "prf": _BLOB_SIDE},
)


@pytest.fixture
def served(tmp_path):
    with BlobServer("127.0.0.1", 0, tmp_path / "blobs") as server:
        host, port = server.server_address
        yield server, RemoteBackend(host, port)


@contextlib.contextmanager
def stub_server(reply: bytes):
    """A one-shot listener that reads one request frame whole, answers
    it with ``reply`` whatever it asked, then hangs up; yields its
    address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as request:
            if request.read(1 + 32)[0] == OP_PUT:
                (length,) = struct.unpack("<Q", request.read(8))
                request.read(length)
            conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    with listener:
        yield listener.getsockname()
        thread.join(timeout=5)
        assert not thread.is_alive()


# OK and a length of 100, then only 10 payload bytes.
SHORT_REPLY = bytes([ST_OK]) + struct.pack("<Q", 100) + bytes(10)


def stored_files(root):
    return [p for p in root.rglob("*") if p.is_file()]


@pytest.fixture(params=["directory", "remote"])
def blob_store(request, tmp_path):
    """A backend the CLI uses, and the directory that holds its blobs."""
    if request.param == "directory":
        yield DirectoryBackend(tmp_path / "blobs"), tmp_path / "blobs"
    else:
        with BlobServer("127.0.0.1", 0, tmp_path / "served") as server:
            yield RemoteBackend(*server.server_address), tmp_path / "served"


class TestLocalBackends:
    def test_put_get_round_trip(self, blob_store):
        backend, _ = blob_store
        payload = b"some payload" * 100
        ref = backend.put(payload)
        assert ref == BlobRef.for_payload(payload)
        assert backend.get(ref) == payload

    def test_put_idempotent(self, blob_store):
        backend, root = blob_store
        ref1 = backend.put(b"x")
        ref2 = backend.put(b"x")
        assert ref1 == ref2
        assert stored_files(root) == [root / ref1.hex[:2] / ref1.hex]

    def test_directory_idempotent_file_count(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.put(b"x")
        backend.put(b"x")
        assert len(stored_files(tmp_path)) == 1

    def test_empty_payload(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        ref = backend.put(b"")
        assert ref.hex == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert backend.get(ref) == b""

    def test_get_unknown(self, tmp_path):
        with pytest.raises(NotFound):
            DirectoryBackend(tmp_path).get(BlobRef(bytes(32)))

    def test_tampered_file_corrupt_blob(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        ref = backend.put(b"precious bytes")
        path = tmp_path / ref.hex[:2] / ref.hex
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptBlob):
            backend.get(ref)

    def test_put_heals_corrupted_blob(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        payload = b"precious bytes"
        ref = backend.put(payload)
        path = tmp_path / ref.hex[:2] / ref.hex
        path.write_bytes(b"rotten" + payload[6:])
        with pytest.raises(CorruptBlob):
            backend.get(ref)
        assert backend.put(payload) == ref
        assert backend.get(ref) == payload

    def test_delete(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        ref = backend.put(b"gone soon")
        assert backend.delete(ref)
        assert not backend.delete(ref)
        with pytest.raises(NotFound):
            backend.get(ref)

    def test_fanout_layout(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        ref = backend.put(b"layout")
        assert (tmp_path / ref.hex[:2] / ref.hex).is_file()


class TestWireProtocol:
    def test_round_trip(self, served):
        _, remote = served
        payload = b"over the wire" * 1000
        ref = remote.put(payload)
        assert remote.get(ref) == payload
        assert remote.delete(ref)
        assert not remote.delete(ref)
        with pytest.raises(NotFound):
            remote.get(ref)

    def test_get_absent_not_found(self, served):
        _, remote = served
        with pytest.raises(NotFound):
            remote.get(BlobRef(bytes(32)))

    def test_unknown_opcode_closes_connection(self, served):
        server, remote = served
        payload = b"still here"
        ref = remote.put(payload)
        # 0x09 + id: the id's first byte (0x02) must not be read as a GET.
        # 0x04 + a stored id: an unknown opcode, however well formed the rest.
        for frame in (b"\x09" + bytes([OP_GET]) + bytes(31), b"\xff", b"\x04" + ref.id):
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.sendall(frame)
                assert sock.recv(1) == b"\x02"  # ERROR
                assert sock.recv(1) == b""  # then EOF
        # A fresh connection is served as usual.
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(bytes([OP_GET]) + ref.id)
            assert sock.recv(1) == b"\x00"
            (length,) = struct.unpack("<Q", sock.recv(8))
            assert length == len(payload)
        assert remote.get(ref) == payload

    def test_put_with_lying_id_rejected(self, served):
        server, _ = served
        payload = b"payload"
        wrong_id = bytes(32)
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(b"\x01" + wrong_id + struct.pack("<Q", len(payload)) + payload)
            assert sock.recv(1) == b"\x02"  # ERROR
        with pytest.raises(NotFound):
            RemoteBackend(*server.server_address).get(BlobRef(wrong_id))

    def test_server_verifies_true_id(self, served):
        server, remote = served
        payload = b"honest put"
        ref = remote.put(payload)
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(b"\x02" + ref.id)
            assert sock.recv(1) == b"\x00"
            (length,) = struct.unpack("<Q", sock.recv(8))
            assert length == len(payload)

    def test_frames_split_across_many_reads(self, served):
        server, _ = served
        payload = b"one byte per segment"
        ref = BlobRef.for_payload(payload)
        requests = bytes([OP_PUT]) + ref.id + struct.pack("<Q", len(payload)) + payload + bytes([OP_GET]) + ref.id

        def replies(pieces):
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for piece in pieces:
                    sock.sendall(piece)
                sock.shutdown(socket.SHUT_WR)
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
                return reply

        trickled = replies(requests[i : i + 1] for i in range(len(requests)))
        assert trickled == b"\x00" + b"\x00" + struct.pack("<Q", len(payload)) + payload
        assert replies([requests]) == trickled

    def test_storage_failure_gets_error_and_connection_serves_on(self, served, tmp_path):
        server, remote = served
        kept = remote.put(b"stored before")
        blocked = b"cannot land"
        ref = BlobRef.for_payload(blocked)
        # A directory where the blob's file belongs: put, get and delete of
        # it all fail inside the server's own store.
        (tmp_path / "blobs" / ref.hex[:2] / ref.hex).mkdir(parents=True)
        with socket.create_connection(server.server_address, timeout=5) as sock, sock.makefile("rb") as replies:
            sock.sendall(bytes([OP_PUT]) + ref.id + struct.pack("<Q", len(blocked)) + blocked)
            assert replies.read(1) == b"\x02"  # ERROR, not a hang-up
            for opcode in (OP_GET, OP_DELETE):
                sock.sendall(bytes([opcode]) + ref.id)
                assert replies.read(1) == b"\x02"
            sock.sendall(bytes([OP_GET]) + kept.id)
            assert replies.read(1) == b"\x00"
            (length,) = struct.unpack("<Q", replies.read(8))
            assert replies.read(length) == b"stored before"

    def test_arbitrary_frames_get_error_or_hang_up(self, tmp_path):
        """Any bytes a client sends get the replies the protocol defines,
        ERROR or a hang-up for whatever is malformed, and never a hang."""
        stored = set()

        def expected_reply(frame: bytes) -> bytes:
            # The server's replies to ``frame`` followed by end of input.
            reply = b""
            while frame:
                op, blob_id = frame[0], frame[1:33]
                if op not in (OP_PUT, OP_GET, OP_DELETE):
                    return reply + b"\x02"
                if len(blob_id) < 32:
                    return reply
                if op == OP_PUT:
                    if len(frame) < 41:
                        return reply
                    (length,) = struct.unpack("<Q", frame[33:41])
                    if length > MAX_PAYLOAD:
                        return reply + b"\x02"
                    payload = frame[41 : 41 + length]
                    if len(payload) < length:
                        return reply
                    if hashlib.sha256(payload).digest() == blob_id:
                        stored.add(blob_id)
                        reply += b"\x00"
                    else:
                        reply += b"\x02"
                    frame = frame[41 + length :]
                    continue
                if op == OP_GET and blob_id in stored:
                    reply += b"\x00" + struct.pack("<Q", 0)  # only the empty payload hashes to its id
                elif op == OP_DELETE and blob_id in stored:
                    stored.discard(blob_id)
                    reply += b"\x00"
                else:
                    reply += b"\x01"
                frame = frame[33:]
            return reply

        empty_id = hashlib.sha256(b"").digest()
        opcode = st.sampled_from([OP_PUT, OP_GET, OP_DELETE, 0, 4, 255]).map(lambda op: bytes([op]))
        blob_id = st.sampled_from([empty_id, bytes(32)]) | st.binary(min_size=0, max_size=32)
        length = st.sampled_from([0, 1, MAX_PAYLOAD, MAX_PAYLOAD + 1, 2**64 - 1]).map(lambda n: struct.pack("<Q", n))
        request = st.tuples(opcode, blob_id, st.just(b"") | length, st.binary(max_size=8)).map(b"".join)
        frames = st.binary(max_size=80) | st.lists(request, min_size=1, max_size=4).map(b"".join)

        with BlobServer("127.0.0.1", 0, tmp_path / "blobs") as server:

            @given(frames)
            @settings(max_examples=100, deadline=None)
            def one_connection(frame):
                reply = b""
                with socket.create_connection(server.server_address, timeout=5) as sock:
                    try:
                        sock.sendall(frame)
                        sock.shutdown(socket.SHUT_WR)
                    except OSError as exc:  # the server hung up first, unless it hangs
                        if isinstance(exc, TimeoutError):
                            raise
                    try:
                        while chunk := sock.recv(4096):  # a TimeoutError here is a hang
                            reply += chunk
                    except ConnectionResetError:  # a hang-up with bytes of ours unread
                        pass
                assert reply == expected_reply(frame)

            one_connection()
            remote = RemoteBackend(*server.server_address)
            ref = remote.put(b"still served")
            assert remote.get(ref) == b"still served"

    def test_idle_and_half_frame_clients_are_dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dispersion, "REMOTE_TIMEOUT", 0.5)
        monkeypatch.setattr(dispersion._BlobRequestHandler, "timeout", 0.5)
        with BlobServer("127.0.0.1", 0, tmp_path / "blobs") as server:
            remote = RemoteBackend(*server.server_address)
            ref = remote.put(b"still served")
            idle = socket.create_connection(server.server_address, timeout=5)
            half = socket.create_connection(server.server_address, timeout=5)
            with idle, half:
                half.sendall(bytes([OP_GET]) + ref.id[:10])
                start = time.monotonic()
                assert idle.recv(1) == b""  # a TimeoutError here means still held
                assert half.recv(1) == b""
                assert time.monotonic() - start < 5
            assert remote.get(ref) == b"still served"

    def test_peer_hanging_up_mid_reply_is_unavailable(self, tmp_path):
        with stub_server(SHORT_REPLY) as address:
            with pytest.raises(BackendUnavailable):
                RemoteBackend(*address).get(BlobRef(bytes(32)))
        with stub_server(SHORT_REPLY) as (host, port):
            argv = ["get", "00" * 32, "--store", str(tmp_path / "s"), "--remote", f"{host}:{port}",
                    "--out", str(tmp_path / "x")]
            assert cli.main(argv) == 6
        assert not (tmp_path / "x").exists()

    def test_get_of_bytes_that_fail_the_hash_is_corrupt(self, tmp_path):
        forged = b"not the blob asked for"
        reply = bytes([ST_OK]) + struct.pack("<Q", len(forged)) + forged
        with stub_server(reply) as address:
            with pytest.raises(CorruptBlob):
                RemoteBackend(*address).get(BlobRef(bytes(32)))
        with stub_server(reply) as (host, port):
            argv = ["get", "00" * 32, "--store", str(tmp_path / "s"), "--remote", f"{host}:{port}",
                    "--out", str(tmp_path / "x")]
            assert cli.main(argv) == 4
        assert not (tmp_path / "x").exists()

    def test_put_answered_error_is_unavailable(self, tmp_path):
        with stub_server(bytes([ST_ERROR])) as address:
            with pytest.raises(BackendUnavailable):
                RemoteBackend(*address).put(b"refused")
        puf, prf = seal(b"refused by the cloud" * 30, KEY)
        (tmp_path / "w.puf").write_bytes(puf.to_bytes())
        (tmp_path / "w.prf").write_bytes(prf.to_bytes())
        store = tmp_path / "s"
        with stub_server(bytes([ST_ERROR])) as (host, port):
            argv = ["put", str(tmp_path / "w.puf"), str(tmp_path / "w.prf"), "--store", str(store),
                    "--remote", f"{host}:{port}"]
            assert cli.main(argv) == 6
        assert stored_files(store) == []

    def test_unreachable_server(self):
        remote = RemoteBackend("127.0.0.1", 1)
        with pytest.raises(BackendUnavailable):
            remote.put(b"nobody listens")

    def test_root_that_is_a_file_fails_at_start(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(FileExistsError):
            BlobServer("127.0.0.1", 0, tmp_path / "file")

    def test_bind_error_on_taken_port(self, tmp_path):
        with BlobServer("127.0.0.1", 0, tmp_path / "a") as server:
            _, port = server.server_address
            with pytest.raises(BindError):
                BlobServer("127.0.0.1", port, tmp_path / "b")


class _FailingBackend(DirectoryBackend):
    def put(self, payload: bytes) -> BlobRef:
        raise BackendUnavailable(f"{self.name}: disk full")


class TestDisperse:
    def test_same_backend_rejected(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "a", name="only")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = seal(b"data" * 50, KEY)
        with pytest.raises(SameBackend):
            disperse(puf.to_bytes(), prf.to_bytes(), backend, backend, index)
        same_name = DirectoryBackend(tmp_path / "b", name="only")
        with pytest.raises(SameBackend):
            disperse(puf.to_bytes(), prf.to_bytes(), backend, same_name, index)
        assert stored_files(tmp_path) == []

    def test_mismatched_pair_rejected_before_any_put(self, tmp_path):
        device = DirectoryBackend(tmp_path / "device", name="device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, _ = seal(b"one record" * 30, KEY)
        _, prf = seal(b"another record" * 30, KEY)
        with pytest.raises(PairMismatch, match="carry different file ids"):
            disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)
        assert stored_files(tmp_path) == []
        assert index.records() == {}

    def test_malformed_container_rejected_before_any_put(self, tmp_path):
        device = DirectoryBackend(tmp_path / "device", name="device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = (c.to_bytes() for c in seal(b"one record" * 30, KEY))
        for bad_puf, bad_prf, message in ((prf, prf, "bad public container magic"),
                                          (puf, puf, "bad private container magic"),
                                          (puf[:-1], prf, "public container body length mismatch"),
                                          (puf, prf + b"x", "private container body length mismatch")):
            with pytest.raises(FormatError, match=message):
                disperse(bad_puf, bad_prf, device, cloud, index)
        assert stored_files(tmp_path) == []

    def test_stores_the_container_bytes_as_given(self, tmp_path):
        device = DirectoryBackend(tmp_path / "device", name="device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        puf, prf = seal(b"kept byte for byte" * 30, KEY, mode="fixed:5")
        placement = disperse(puf.to_bytes(), prf.to_bytes(), device, cloud,
                             PlacementIndex(tmp_path / "placements.jsonl"))
        assert cloud.get(placement.puf_ref) == puf.to_bytes()
        assert device.get(placement.prf_ref) == prf.to_bytes()
        assert placement.record_id == puf.file_id == prf.file_id

    def test_round_trip_through_backends(self, tmp_path):
        device = DirectoryBackend(tmp_path / "device", name="device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        data = b"\x07\x08" * 500
        puf, prf = seal(data, KEY)
        placement = disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)
        assert placement.record_id == puf.file_id
        assert placement.puf_backend == "cloud" and placement.prf_backend == "device"

        fetched_puf = container.PufContainer.from_bytes(cloud.get(placement.puf_ref))
        fetched_prf = container.PrfContainer.from_bytes(device.get(placement.prf_ref))
        assert container.open(fetched_puf, fetched_prf, KEY) == data
        assert index.lookup(puf.file_id) == placement

    def test_offline_cloud_leaves_no_partial_placement(self, tmp_path):
        device = DirectoryBackend(tmp_path / "device", name="device")
        cloud = RemoteBackend("127.0.0.1", 1, name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = seal(b"unlucky" * 30, KEY)
        with pytest.raises(BackendUnavailable):
            disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)
        assert stored_files(tmp_path / "device") == []
        assert index.lookup(puf.file_id) is None

    def test_device_failure_deletes_cloud_blob(self, tmp_path):
        device = _FailingBackend(tmp_path / "device", name="device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = seal(b"half placed" * 30, KEY)
        with pytest.raises(BackendUnavailable):
            disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)
        assert stored_files(tmp_path / "cloud") == []
        assert index.lookup(puf.file_id) is None
        assert index.records() == {}

    def test_device_failure_keeps_an_already_recorded_cloud_blob(self, tmp_path):
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = seal(b"placed twice" * 30, KEY)
        device = DirectoryBackend(tmp_path / "device", name="device")
        placement = disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)
        failing = _FailingBackend(tmp_path / "device", name="device")
        with pytest.raises(BackendUnavailable):
            disperse(puf.to_bytes(), prf.to_bytes(), failing, cloud, index)
        assert cloud.get(placement.puf_ref) == puf.to_bytes()
        assert index.lookup(puf.file_id) == placement

    def test_cloud_alone_plus_key_recovers_nothing(self, tmp_path):
        # The cloud store plus the key does not open directly; a unit-by-unit
        # search over the 2^32 selected values is not attempted here.
        device = DirectoryBackend(tmp_path / "device", name="device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        data = bytes(1024)
        puf, prf = seal(data, KEY)
        index = PlacementIndex(tmp_path / "placements.jsonl")
        placement = disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)
        stolen = container.PufContainer.from_bytes(cloud.get(placement.puf_ref))
        zero_prf_plain = bytes(4 * (stolen.original_content_len // 32) + stolen.original_content_len % 32 + 32)
        with pytest.raises(IntegrityFailure):
            core.recover(stolen.puf_payload, zero_prf_plain, KEY)


class TestPlacementIndex:
    def test_empty_index(self, tmp_path):
        index = PlacementIndex(tmp_path / "none.jsonl")
        assert index.lookup(bytes(16)) is None
        assert index.records() == {}
        index.path.write_bytes(b"")
        assert index.lookup(bytes(16)) is None
        assert index.records() == {}

    def test_last_write_wins(self, tmp_path):
        index = PlacementIndex(tmp_path / "p.jsonl")
        rid = bytes(range(16))
        first = Placement(rid, BlobRef(bytes(32)), "cloud-a", BlobRef(bytes(32)), "device")
        second = Placement(rid, BlobRef(b"\x01" * 32), "cloud-b", BlobRef(bytes(32)), "device")
        index.record(first)
        index.record(second)
        assert index.lookup(rid) == second
        assert index.records() == {rid: second}

    def test_json_round_trip(self, tmp_path):
        placement = Placement(bytes(16), BlobRef(bytes(32)), "a", BlobRef(b"\xff" * 32), "b")
        assert Placement.from_json(placement.to_json()) == placement

    def test_record_writes_one_json_line(self, tmp_path):
        index = PlacementIndex(tmp_path / "p.jsonl")
        placement = Placement(bytes(range(16)), BlobRef(bytes(32)), "a", BlobRef(b"\xff" * 32), "b")
        index.record(placement)
        index.record(placement)
        line = json.dumps(placement.to_json()) + "\n"
        assert index.path.read_text(encoding="ascii") == line * 2

    def test_new_index_is_private_to_its_owner(self, tmp_path):
        # The index maps record ids to blob ids: device-store material.
        index = PlacementIndex(tmp_path / "p.jsonl")
        old_umask = os.umask(0o022)
        try:
            index.record(Placement(bytes(16), BlobRef(bytes(32)), "a", BlobRef(b"\xff" * 32), "b"))
        finally:
            os.umask(old_umask)
        assert index.path.stat().st_mode & 0o077 == 0

    def test_lookup_matches_records(self, tmp_path):
        rng = random.Random(4)
        index = PlacementIndex(tmp_path / "p.jsonl")
        rids = [rng.randbytes(16) for _ in range(60)]
        hidden, absent_hidden = rng.randbytes(16), rng.randbytes(16)

        def placement(rid, blob=None):
            blob = blob or rng.randbytes(32)
            return Placement(rid, BlobRef(blob), "cloud", BlobRef(rng.randbytes(32)), "device")

        written = [placement(hidden)]
        written += [placement(rid) for rid in rids + [rng.choice(rids) for _ in range(140)]]
        # Later lines whose blob ids contain the hex of a present record id
        # and of an absent one.
        written.append(placement(rids[0], hidden + rng.randbytes(16)))
        written.append(placement(rids[1], rng.randbytes(8) + absent_hidden + rng.randbytes(8)))
        for p in written:
            index.record(p)

        expected = {p.record_id: p for p in written}  # the last line per record wins
        assert len(expected) == len(set(rids)) + 1
        assert index.records() == expected
        for rid in [*rids, hidden, absent_hidden, bytes(16)]:
            assert index.lookup(rid) == expected.get(rid)
        assert index.lookup(hidden).record_id == hidden
        assert index.lookup(absent_hidden) is None

    def test_lookup_across_blocks(self, tmp_path):
        rng = random.Random(8)
        index = PlacementIndex(tmp_path / "p.jsonl")

        def placement(rid):
            return Placement(rid, BlobRef(rng.randbytes(32)), "cloud", BlobRef(rng.randbytes(32)), "device")

        def line(p):
            return json.dumps(p.to_json()).encode() + b"\n"

        first, torn = rng.randbytes(16), rng.randbytes(16)
        rids = [first] + [rng.randbytes(16) for _ in range(4 * BLOCK // 200)]
        placements = [placement(rid) for rid in rids]
        lines = [line(p) for p in placements]
        tail = line(placement(torn))[:60]  # a crash partway through an append
        index.path.write_bytes(b"".join(lines) + tail)
        size = index.path.stat().st_size
        assert size > 3 * BLOCK
        # The record whose only line holds the offset of the second block
        # edge, counted from the end.
        edge = size - 2 * BLOCK
        offset = 0
        for rid, text in zip(rids, lines):
            if offset < edge < offset + len(text) - 1:
                straddler = rid
            offset += len(text)

        expected = {p.record_id: p for p in placements}  # the torn tail is left out
        assert len(expected) == len(rids)
        assert index.records() == expected
        for rid in (first, straddler, *rng.sample(rids, 50)):
            assert index.lookup(rid) == expected[rid]
        assert index.lookup(torn) is None
        assert index.lookup(bytes(16)) is None

    @pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn-tail"])
    def test_readers_match_a_model(self, tmp_path, torn):
        # The model: for each record, the last complete line that parses as
        # one of its placements.
        rng = random.Random(16)
        rids = [rng.randbytes(16) for _ in range(150)]
        long_rid, stray, absent = rng.randbytes(16), rng.randbytes(16), rng.randbytes(16)

        def placement(rid, blob=None):
            return Placement(rid, BlobRef(blob or rng.randbytes(32)), "cloud", BlobRef(rng.randbytes(32)), "device")

        lines = []  # (JSON text, the placement it holds or None)
        for _ in range(640):
            rid, kind = rng.choice(rids), rng.random()
            if kind < 0.8:
                p = placement(rid)
                lines.append((json.dumps(p.to_json()), p))
            elif kind < 0.9:
                lines.append((json.dumps({"record_id": rid.hex()}), None))
            else:
                lines.append((json.dumps(rng.choice([[1], 7, None, {"puf": {}}])), None))
        lines.append((json.dumps({"record_id": stray.hex(), "puf": "x"}), None))
        # One 200 KB line, the only one for its record, mid-file.
        p = placement(long_rid)
        lines.insert(320, (json.dumps({**p.to_json(), "pad": "x" * 200_000}), p))
        # Blob ids that hold the hex of a present record and of an absent one.
        for hidden in (rids[0], absent):
            p = placement(rids[1], hidden + rng.randbytes(16))
            lines.append((json.dumps(p.to_json()), p))
        tail = json.dumps(placement(rids[2]).to_json()) if torn else ""  # whole, but no newline yet
        index = PlacementIndex(tmp_path / "p.jsonl")
        index.path.write_text("".join(text + "\n" for text, _ in lines) + tail, encoding="ascii")
        assert len(lines) >= 600 and index.path.stat().st_size > 4 * BLOCK

        expected = {}
        for _, p in lines:
            if p is not None:
                expected[p.record_id] = p
        assert long_rid in expected and stray not in expected
        assert index.records() == expected
        for rid in [*rids, long_rid, stray, absent]:
            assert index.lookup(rid) == expected.get(rid)

    def test_torn_append_is_ignored_then_closed(self, tmp_path):
        index = PlacementIndex(tmp_path / "p.jsonl")
        old = Placement(bytes(range(16)), BlobRef(bytes(32)), "cloud", BlobRef(bytes(32)), "device")
        torn = Placement(b"\x07" * 16, BlobRef(b"\x01" * 32), "cloud", BlobRef(bytes(32)), "device")
        new = Placement(b"\x09" * 16, BlobRef(b"\x02" * 32), "cloud", BlobRef(bytes(32)), "device")
        index.record(old)
        with index.path.open("ab") as fp:  # a crash partway through an append
            fp.write(json.dumps(torn.to_json()).encode()[:60])
        assert index.records() == {old.record_id: old}
        assert index.lookup(torn.record_id) is None
        index.record(new)
        assert index.lookup(old.record_id) == old
        assert index.lookup(new.record_id) == new
        assert index.lookup(torn.record_id) is None
        assert index.records() == {old.record_id: old, new.record_id: new}

    def test_line_counts_only_once_its_newline_is_written(self, tmp_path):
        index = PlacementIndex(tmp_path / "p.jsonl")
        placement = Placement(b"\x07" * 16, BlobRef(b"\x01" * 32), "cloud", BlobRef(bytes(32)), "device")
        index.path.write_bytes(json.dumps(placement.to_json()).encode())  # whole, but no newline yet
        assert index.records() == {}
        assert index.lookup(placement.record_id) is None

    def test_json_lines_that_are_not_placements_are_skipped(self, tmp_path):
        index = PlacementIndex(tmp_path / "p.jsonl")
        good = Placement(bytes(range(16)), BlobRef(bytes(32)), "cloud", BlobRef(bytes(32)), "device")
        rid = b"\x05" * 16
        index.record(good)
        strays = [
            {"record_id": rid.hex()},
            [1],
            7,
            None,
            {"record_id": rid.hex(), "puf": "x", "prf": []},
            {"record_id": rid.hex(), "puf": {"id": "zz", "backend": "c"}, "prf": {}},
            {"record_id": 5},
        ]
        with index.path.open("ab") as fp:
            for obj in strays:
                fp.write(json.dumps(obj).encode() + b"\n")
            fp.write(b"[" * 100_000 + b"\n")
        assert index.records() == {good.record_id: good}
        assert index.lookup(rid) is None
        assert index.lookup(good.record_id) == good

    @given(st.lists(st.one_of(JSON.map(json.dumps), PLACEMENT_LIKE.map(json.dumps), st.text(max_size=40)), max_size=6))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_readers_return_only_placements(self, tmp_path, lines):
        index = PlacementIndex(tmp_path / "fuzz.jsonl")
        index.path.write_bytes("".join(line + "\n" for line in lines).encode())
        assert all(isinstance(p, Placement) for p in index.records().values())
        found = index.lookup(FUZZ_RID)
        assert found is None or isinstance(found, Placement)
