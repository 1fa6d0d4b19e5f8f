"""Policy semantics, persistence, and release behavior."""

import errno
import json
import os
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sefrag import container, core
from sefrag.container import FLAG_HEADER_STRIPPED, PufContainer, seal
from sefrag.core import ProtectionKey
from sefrag.dispersion import DirectoryBackend, PlacementIndex, disperse
from sefrag.errors import FormatError, IntegrityFailure, SefragError
from sefrag.sharing import (
    Decision,
    PolicyStore,
    grant,
    release,
    request_access,
    revoke,
)

KEY = ProtectionKey.from_hex("00000000000000000000000000000001")

OWNER = "alice"
REQUESTER = "carol"

RID = bytes(range(16))

# What grant "zed", grant "bob" on RID, then revoke "carol" on bytes(16),
# by owner alice at time 1700000000.25, write to policy.json.
FROZEN_POLICY = (
    b'{\n  "owner": "alice",\n  "policies": [\n    {\n      "record_id": "000102030405060708090a0b0c0d0e0f",\n'
    b'      "grants": [\n        {\n          "party": "bob",\n          "ts": 1700000000.25\n        },\n'
    b'        {\n          "party": "zed",\n          "ts": 1700000000.25\n        }\n      ],\n'
    b'      "revoked": []\n    },\n    {\n      "record_id": "00000000000000000000000000000000",\n'
    b'      "grants": [],\n      "revoked": [\n        "carol"\n      ]\n    }\n  ]\n}\n'
)

# Arbitrary JSON, and objects shaped partly like one record's policy.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
POLICY_LIKE = st.fixed_dictionaries(
    {},
    optional={
        "record_id": st.sampled_from([RID.hex(), "0", "zz"]) | JSON,
        "grants": st.lists(st.fixed_dictionaries({}, optional={"party": JSON, "ts": JSON}) | JSON, max_size=3),
        "revoked": JSON,
    },
)


@pytest.fixture
def store(tmp_path):
    return PolicyStore(tmp_path / "policy.json")


def saved_policy(store, record_id):
    """The record's saved grants (party -> ts) and revoked list."""
    for entry in json.loads(store.path.read_text())["policies"]:
        if entry["record_id"] == record_id.hex():
            return {g["party"]: g["ts"] for g in entry["grants"]}, entry["revoked"]
    return {}, []


class TestRequestAccess:
    def test_deny_by_default_for_requester(self, store):
        assert request_access(store, REQUESTER, "requester", RID) == Decision.PUF_ONLY

    def test_trusted_roles_get_full(self, store):
        grant(store, OWNER, "someone", RID)  # establishes alice as owner
        for party, role in ((OWNER, "owner"), ("dr-bob", "doctor"), ("cdc", "authority")):
            assert request_access(store, party, role, RID) == Decision.FULL

    def test_unknown_role_denied(self, store):
        assert request_access(store, "eve", "stranger", RID) == Decision.DENIED

    def test_owner_impostor_denied(self, store):
        grant(store, OWNER, "x", RID)
        assert request_access(store, "mallory", "owner", RID) == Decision.DENIED

    def test_grant_then_full(self, store):
        grant(store, OWNER, REQUESTER, RID)
        assert request_access(store, REQUESTER, "requester", RID) == Decision.FULL

    def test_grant_scoped_per_record(self, store):
        other = bytes(16)
        grant(store, OWNER, REQUESTER, RID)
        assert request_access(store, REQUESTER, "requester", other) == Decision.PUF_ONLY


class TestGrantRevoke:
    def test_grant_requires_owner_identity(self, store):
        grant(store, OWNER, "x", RID)
        before = store.path.read_bytes()
        with pytest.raises(IntegrityFailure, match="^store is owned by 'alice', not 'mallory'$"):
            grant(store, "mallory", "y", RID)
        with pytest.raises(IntegrityFailure, match="^store is owned by 'alice', not 'mallory'$"):
            revoke(store, "mallory", "x", RID)
        assert store.path.read_bytes() == before

    def test_grant_idempotent(self, store):
        grant(store, OWNER, "x", RID)
        (ts,) = saved_policy(store, RID)[0].values()
        grant(store, OWNER, "x", RID)
        assert saved_policy(store, RID) == ({"x": ts}, [])

    def test_revoke_after_grant(self, store):
        grant(store, OWNER, REQUESTER, RID)
        revoke(store, OWNER, REQUESTER, RID)
        assert request_access(store, REQUESTER, "requester", RID) == Decision.PUF_ONLY

    def test_revoke_never_granted_is_noop_success(self, store):
        assert revoke(store, OWNER, "nobody", RID) is None
        assert saved_policy(store, RID) == ({}, ["nobody"])

    def test_revoke_does_not_cross_records(self, store):
        other = bytes(16)
        grant(store, OWNER, REQUESTER, RID)
        grant(store, OWNER, REQUESTER, other)
        revoke(store, OWNER, REQUESTER, RID)
        assert request_access(store, REQUESTER, "requester", other) == Decision.FULL

    def test_grant_revoke_disjoint(self, store):
        grant(store, OWNER, "x", RID)
        revoke(store, OWNER, "x", RID)
        assert saved_policy(store, RID) == ({}, ["x"])
        grant(store, OWNER, "x", RID)
        grants, revoked = saved_policy(store, RID)
        assert list(grants) == ["x"] and revoked == []

    def test_monotone_safety_random_sequences(self, store):
        # After any grant/revoke interleaving, Full for a requester implies
        # the most recent relevant op was a grant.
        rng = random.Random(0xACCE55)
        granted = False
        for _ in range(300):
            if rng.random() < 0.5:
                grant(store, OWNER, "p", RID)
                granted = True
            else:
                revoke(store, OWNER, "p", RID)
                granted = False
            decision = request_access(store, "p", "requester", RID)
            assert decision == (Decision.FULL if granted else Decision.PUF_ONLY)


class TestPersistence:
    def test_policy_json_schema(self, store):
        grant(store, OWNER, "x", RID)
        revoke(store, OWNER, "y", RID)
        obj = json.loads(store.path.read_text())
        assert obj["owner"] == "alice"
        entry = obj["policies"][0]
        assert entry["record_id"] == RID.hex()
        assert entry["grants"][0]["party"] == "x"
        assert isinstance(entry["grants"][0]["ts"], float)
        assert entry["revoked"] == ["y"]

    def test_policy_json_bytes_are_frozen(self, store, monkeypatch):
        monkeypatch.setattr(time, "time", lambda: 1700000000.25)
        grant(store, OWNER, "zed", RID)
        grant(store, OWNER, "bob", RID)
        revoke(store, OWNER, "carol", bytes(16))
        assert store.path.read_bytes() == FROZEN_POLICY
        PolicyStore.load(store.path).save()
        assert store.path.read_bytes() == FROZEN_POLICY

    def test_reload_round_trip(self, store):
        grant(store, OWNER, "x", RID)
        revoke(store, OWNER, "z", RID)
        reloaded = PolicyStore.load(store.path)
        assert reloaded.owner_id == "alice"
        assert request_access(reloaded, "x", "requester", RID) == Decision.FULL
        assert request_access(reloaded, "z", "requester", RID) == Decision.PUF_ONLY

    def test_failed_save_keeps_old_policy_loadable(self, store, monkeypatch):
        grant(store, OWNER, "x", RID)
        before = store.path.read_bytes()
        real_write = os.write

        def full_disk_after_half(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full_disk_after_half)
        with pytest.raises(OSError):
            grant(store, OWNER, "y", RID)
        monkeypatch.undo()
        assert store.path.read_bytes() == before
        reloaded = PolicyStore.load(store.path)
        assert request_access(reloaded, "x", "requester", RID) == Decision.FULL
        assert request_access(reloaded, "y", "requester", RID) == Decision.PUF_ONLY
        assert sorted(os.listdir(store.path.parent)) == ["policy.json"]

    def test_load_missing_file_is_empty(self, tmp_path):
        store = PolicyStore.load(tmp_path / "absent.json")
        assert store.owner_id is None

    @pytest.mark.parametrize("text", [
        '{"policies": [{"grants": []}]}',
        "[]",
        '{"policies": [{"record_id": "zz"}]}',
        '{"policies": [{"record_id": "00", "grants": [{"ts": 1}]}]}',
        '{"policies": 5}',
        "not json",
        pytest.param("[" * 100_000, id="deep-nesting"),
    ])
    def test_malformed_file_raises_format_error(self, tmp_path, text):
        path = tmp_path / "policy.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError):
            PolicyStore.load(path)

    @given(JSON | st.fixed_dictionaries({}, optional={"owner": JSON, "policies": st.lists(POLICY_LIKE | JSON)}))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_only_sefrag_errors_escape_load(self, tmp_path, obj):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        try:
            PolicyStore.load(path)
        except SefragError:
            pass


@pytest.fixture
def placed(tmp_path):
    device = DirectoryBackend(tmp_path / "device", name="device")
    cloud = DirectoryBackend(tmp_path / "cloud", name="cloud")
    data = bytes(128) + b"DICM" + b"\x42" * 600
    puf, prf = seal(data, KEY, mode="dicom")
    index = PlacementIndex(tmp_path / "placements.jsonl")
    placement = disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)
    backends = {"device": device, "cloud": cloud}
    return data, placement, backends


class TestRelease:
    def test_full_release_reconstructs(self, placed):
        data, placement, backends = placed
        puf_bytes, prf_bytes = release(Decision.FULL, placement, backends)
        puf = container.PufContainer.from_bytes(puf_bytes)
        prf = container.PrfContainer.from_bytes(prf_bytes)
        assert container.open(puf, prf, KEY) == data

    def test_puf_only_release_useless_even_with_key(self, placed):
        data, placement, backends = placed
        puf_bytes, prf_bytes = release(Decision.PUF_ONLY, placement, backends)
        assert prf_bytes is None
        puf = container.PufContainer.from_bytes(puf_bytes)
        guessed = bytes(4 * (puf.original_content_len // 32) + puf.original_content_len % 32 + 32)
        with pytest.raises(IntegrityFailure):
            core.recover(puf.puf_payload, guessed, KEY)

    def test_denied_release_delivers_nothing(self, placed):
        _, placement, backends = placed
        assert release(Decision.DENIED, placement, backends) == (None, None)

    def test_anonymize_strips_head(self, placed):
        _, placement, backends = placed
        puf_bytes, _ = release(Decision.FULL, placement, backends, anonymize=True)
        puf = container.PufContainer.from_bytes(puf_bytes)
        assert puf.head == b""
        assert puf.flags & FLAG_HEADER_STRIPPED
        assert b"DICM" not in puf_bytes

    def test_anonymize_sets_flag_and_drops_only_the_head(self, placed):
        # Only the head goes: the rest of the header is kept, and the pair
        # still opens to the content.
        data, placement, backends = placed
        plain, prf_bytes = release(Decision.FULL, placement, backends)
        original = PufContainer.from_bytes(plain)
        assert original.head != b""
        stripped_bytes, anon_prf = release(Decision.FULL, placement, backends, anonymize=True)
        assert anon_prf == prf_bytes
        stripped = PufContainer.from_bytes(stripped_bytes)
        assert stripped.head == b""
        assert stripped.flags & FLAG_HEADER_STRIPPED
        assert stripped == original._replace(head=b"", flags=original.flags | FLAG_HEADER_STRIPPED)
        assert stripped.to_bytes() == stripped_bytes
        # Content still recovers; only the plaintext head is gone.
        recovered = container.open(stripped, container.PrfContainer.from_bytes(prf_bytes), KEY)
        assert recovered == data[132:]

    def test_cross_record_prf_grants_nothing(self, placed, tmp_path):
        # Compromise containment: record A's private fragment says nothing
        # about record B.
        data, placement, backends = placed
        _, prf_bytes = release(Decision.FULL, placement, backends)
        puf_b, _ = seal(b"other record" * 40, KEY)
        prf_a = container.PrfContainer.from_bytes(prf_bytes)
        with pytest.raises(IntegrityFailure, match="does not pair with private fragment"):
            container.open(puf_b, prf_a, KEY)
