"""Backend, wire-protocol, and placement tests."""

import json
import random
import socket
import struct

import pytest

from sefrag import container, core
from sefrag.container import seal
from sefrag.core import ProtectionKey
from sefrag.dispersion import (
    OP_GET,
    OP_STAT,
    BlobRef,
    BlobServer,
    DirectoryBackend,
    MemoryBackend,
    Placement,
    PlacementIndex,
    RemoteBackend,
    disperse,
)
from sefrag.errors import (
    BackendUnavailable,
    BindError,
    CorruptBlob,
    IntegrityFailure,
    NotFound,
    SameBackend,
)

KEY = ProtectionKey.from_hex("0f0e0d0c0b0a09080706050403020100")


@pytest.fixture
def served(tmp_path):
    with BlobServer("127.0.0.1", 0, tmp_path / "blobs") as server:
        host, port = server.address
        yield server, RemoteBackend(host, port)


def backend_cases(tmp_path):
    return [MemoryBackend(), DirectoryBackend(tmp_path / "dir")]


class TestLocalBackends:
    @pytest.mark.parametrize("kind", ["memory", "directory"])
    def test_put_get_round_trip(self, tmp_path, kind):
        backend = MemoryBackend() if kind == "memory" else DirectoryBackend(tmp_path)
        payload = b"some payload" * 100
        ref = backend.put(payload)
        assert ref == BlobRef.for_payload(payload)
        assert backend.get(ref) == payload
        assert backend.stat(ref)

    @pytest.mark.parametrize("kind", ["memory", "directory"])
    def test_put_idempotent(self, tmp_path, kind):
        backend = MemoryBackend() if kind == "memory" else DirectoryBackend(tmp_path)
        ref1 = backend.put(b"x")
        ref2 = backend.put(b"x")
        assert ref1 == ref2

    def test_memory_idempotent_size(self):
        backend = MemoryBackend()
        backend.put(b"x")
        backend.put(b"x")
        assert len(backend) == 1

    def test_directory_idempotent_file_count(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.put(b"x")
        backend.put(b"x")
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(files) == 1

    def test_empty_payload(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        ref = backend.put(b"")
        assert ref.hex == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        assert backend.get(ref) == b""

    def test_get_unknown(self, tmp_path):
        for backend in backend_cases(tmp_path):
            with pytest.raises(NotFound):
                backend.get(BlobRef(bytes(32)))

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
        assert not backend.stat(ref)

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
        assert remote.stat(ref)
        assert remote.delete(ref)
        assert not remote.stat(ref)

    def test_get_absent_not_found(self, served):
        _, remote = served
        with pytest.raises(NotFound):
            remote.get(BlobRef(bytes(32)))

    def test_unknown_opcode_closes_connection(self, served):
        server, remote = served
        payload = b"still here"
        ref = remote.put(payload)
        # 0x09 + id: the id's first byte (0x04) must not be read as a STAT.
        for frame in (b"\x09" + bytes([OP_STAT]) + bytes(31), b"\xff"):
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(frame)
                assert sock.recv(1) == b"\x02"  # ERROR
                assert sock.recv(1) == b""  # then EOF
        # A fresh connection is served as usual.
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(bytes([OP_GET]) + ref.id)
            assert sock.recv(1) == b"\x00"
            (length,) = struct.unpack("<Q", sock.recv(8))
            assert length == len(payload)
        assert remote.get(ref) == payload

    def test_put_with_lying_id_rejected(self, served):
        server, _ = served
        payload = b"payload"
        wrong_id = bytes(32)
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"\x01" + wrong_id + struct.pack("<Q", len(payload)) + payload)
            assert sock.recv(1) == b"\x02"  # ERROR
        remote = RemoteBackend(*server.address)
        assert not remote.stat(BlobRef(wrong_id))

    def test_server_verifies_true_id(self, served):
        server, remote = served
        payload = b"honest put"
        ref = remote.put(payload)
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"\x02" + ref.id)
            assert sock.recv(1) == b"\x00"
            (length,) = struct.unpack("<Q", sock.recv(8))
            assert length == len(payload)

    def test_unreachable_server(self):
        remote = RemoteBackend("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(BackendUnavailable):
            remote.put(b"nobody listens")

    def test_bind_error_on_taken_port(self, tmp_path):
        with BlobServer("127.0.0.1", 0, tmp_path / "a") as server:
            _, port = server.address
            with pytest.raises(BindError):
                BlobServer("127.0.0.1", port, tmp_path / "b")


class _FailingBackend(MemoryBackend):
    def put(self, payload: bytes) -> BlobRef:
        raise BackendUnavailable(f"{self.name}: disk full")


class TestDisperse:
    def test_same_backend_rejected(self, tmp_path):
        backend = MemoryBackend("only")
        puf, prf = seal(b"data" * 50, KEY)
        with pytest.raises(SameBackend):
            disperse(puf, prf, backend, backend)
        same_name = MemoryBackend("only")
        with pytest.raises(SameBackend):
            disperse(puf, prf, backend, same_name)

    def test_round_trip_through_backends(self, tmp_path):
        device = MemoryBackend("device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        data = b"\x07\x08" * 500
        puf, prf = seal(data, KEY)
        placement = disperse(puf, prf, device, cloud, index)
        assert placement.record_id == puf.file_id
        assert placement.puf_backend == "cloud" and placement.prf_backend == "device"

        fetched_puf = container.PufContainer.from_bytes(cloud.get(placement.puf_ref))
        fetched_prf = container.PrfContainer.from_bytes(device.get(placement.prf_ref))
        assert container.open(fetched_puf, fetched_prf, KEY) == data
        assert index.lookup(puf.file_id) == placement

    def test_offline_cloud_leaves_no_partial_placement(self, tmp_path):
        device = MemoryBackend("device")
        cloud = RemoteBackend("127.0.0.1", 1, name="cloud", timeout=0.5)
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = seal(b"unlucky" * 30, KEY)
        with pytest.raises(BackendUnavailable):
            disperse(puf, prf, device, cloud, index)
        assert len(device) == 0
        assert index.lookup(puf.file_id) is None

    def test_device_failure_deletes_cloud_blob(self, tmp_path):
        device = _FailingBackend("device")
        cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = seal(b"half placed" * 30, KEY)
        with pytest.raises(BackendUnavailable):
            disperse(puf, prf, device, cloud, index)
        assert [p for p in (tmp_path / "cloud").rglob("*") if p.is_file()] == []
        assert index.lookup(puf.file_id) is None
        assert index.records() == {}

    def test_device_failure_keeps_an_already_recorded_cloud_blob(self, tmp_path):
        cloud = MemoryBackend("cloud")
        index = PlacementIndex(tmp_path / "placements.jsonl")
        puf, prf = seal(b"placed twice" * 30, KEY)
        placement = disperse(puf, prf, MemoryBackend("device"), cloud, index)
        with pytest.raises(BackendUnavailable):
            disperse(puf, prf, _FailingBackend("device"), cloud, index)
        assert cloud.get(placement.puf_ref) == puf.to_bytes()
        assert index.lookup(puf.file_id) == placement

    def test_cloud_alone_plus_key_recovers_nothing(self, tmp_path):
        # The cloud store plus the key does not open directly; a unit-by-unit
        # search over the 2^32 selected values is not attempted here.
        device = MemoryBackend("device")
        cloud = MemoryBackend("cloud")
        data = bytes(1024)
        puf, prf = seal(data, KEY)
        placement = disperse(puf, prf, device, cloud)
        stolen = container.PufContainer.from_bytes(cloud.get(placement.puf_ref))
        zero_prf_plain = bytes(4 * stolen.unit_count + stolen.tail_len + 32)
        with pytest.raises(IntegrityFailure):
            core.recover(stolen.puf_payload, zero_prf_plain, KEY)


class TestPlacementIndex:
    def test_empty_index(self, tmp_path):
        index = PlacementIndex(tmp_path / "none.jsonl")
        assert index.lookup(bytes(16)) is None
        assert bytes(16) not in index
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
        assert rid in index

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

    def test_lookup_matches_records(self, tmp_path):
        rng = random.Random(4)
        index = PlacementIndex(tmp_path / "p.jsonl")
        rids = [rng.randbytes(16) for _ in range(60)]
        hidden, absent_hidden = rng.randbytes(16), rng.randbytes(16)

        def placement(rid, blob=None):
            blob = blob or rng.randbytes(32)
            return Placement(rid, BlobRef(blob), "cloud", BlobRef(rng.randbytes(32)), "device")

        index.record(placement(hidden))
        for rid in rids + [rng.choice(rids) for _ in range(140)]:
            index.record(placement(rid))
        # Later lines whose blob ids contain the hex of a present record id
        # and of an absent one.
        index.record(placement(rids[0], hidden + rng.randbytes(16)))
        index.record(placement(rids[1], rng.randbytes(8) + absent_hidden + rng.randbytes(8)))

        listing = index.records()
        assert len(listing) == len(set(rids)) + 1
        for rid in [*rids, hidden, absent_hidden, bytes(16)]:
            assert index.lookup(rid) == listing.get(rid)
            assert (rid in index) == (rid in listing)
        assert index.lookup(hidden).record_id == hidden
        assert index.lookup(absent_hidden) is None

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
