"""Engine-level tests: known-answer vectors, inverses, stream properties."""

import functools
import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sefrag import core
from sefrag.core import (
    CHUNK_UNITS,
    ProtectionKey,
    gather,
    keystream,
    protect,
    recover,
    scatter,
    selector_stream,
)
from sefrag.errors import IntegrityFailure, LengthMismatch

ZERO_KEY = ProtectionKey(bytes(16))

# Known-answer vectors computed with coreutils sha256sum (not hashlib):
#   sha256(16*00 || "FRAG-SEL" || le64(0))
SELECTOR_BLOCK0_ZERO_KEY = bytes.fromhex(
    "dc9d8ab62e3ad425a1c9b89d8128fb8cee8af0773663ebb326424ce040998639"
)
#   sha256(16*00 || "FRAG-SEL" || le64(1))
SELECTOR_BLOCK1_ZERO_KEY = bytes.fromhex(
    "b6f0c4606f4e22fe9a13fcd953e6ca60c082270dadccf266ff8f29424e3f4d8b"
)
#   sha256(28*00), truncated to 28 bytes
KEYSTREAM_ZERO_VECTOR = bytes.fromhex(
    "3addfb141cd7c9c4c6543a82191a3707ac29c7a041217782e61d4d91"
)
#   sha256 of empty input
EMPTY_DIGEST = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


def reference_protect(content: bytes, key: ProtectionKey) -> tuple[bytes, bytes]:
    """The construction written out unit by unit, independent of the kernel.

    Unit i's public part is SHA-256(selected || key || LE64(i))[:28] XOR its
    remainder; the private stream is the selected sub-fragments, the tail
    and SHA-256(content).
    """
    unit_count = len(content) // 32
    selectors = [
        b % 8
        for t in range(-(-unit_count // 32))
        for b in hashlib.sha256(key.bytes + b"FRAG-SEL" + t.to_bytes(8, "little")).digest()
    ]
    public, private = [], []
    for i in range(unit_count):
        unit = content[32 * i:32 * (i + 1)]
        off = 4 * selectors[i]
        selected, remainder = unit[off:off + 4], unit[:off] + unit[off + 4:]
        pad = hashlib.sha256(selected + key.bytes + i.to_bytes(8, "little")).digest()[:28]
        public.append(bytes(a ^ b for a, b in zip(remainder, pad)))
        private.append(selected)
    tail = content[32 * unit_count:]
    return b"".join(public), b"".join(private) + tail + hashlib.sha256(content).digest()


class TestProtectionKey:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            ProtectionKey(b"short")
        with pytest.raises(ValueError):
            ProtectionKey(bytes(17))

    def test_from_hex_round_trip(self):
        key = ProtectionKey.from_hex("00112233445566778899aabbccddeeff")
        assert key.bytes.hex() == "00112233445566778899aabbccddeeff"

    def test_random_is_16_bytes(self):
        assert len(ProtectionKey.random().bytes) == 16


class TestSelectorStream:
    def test_empty_stream(self):
        assert selector_stream(ZERO_KEY, 0) == b""

    def test_zero_key_unit0_known_answer(self):
        # First selector byte is 0xdc -> 0xdc % 8 == 4.
        assert selector_stream(ZERO_KEY, 1)[0] == SELECTOR_BLOCK0_ZERO_KEY[0] % 8 == 4

    def test_zero_key_first_two_blocks_known_answer(self):
        want = bytes(b % 8 for b in SELECTOR_BLOCK0_ZERO_KEY + SELECTOR_BLOCK1_ZERO_KEY)
        assert selector_stream(ZERO_KEY, 64) == want

    def test_range_and_determinism(self):
        key = ProtectionKey.random()
        stream = selector_stream(key, 100)
        assert len(stream) == 100
        assert all(0 <= s <= 7 for s in stream)
        assert stream == selector_stream(key, 100)

    def test_prefix_stability(self):
        # Shorter requests are prefixes of longer ones for the same key.
        key = ProtectionKey.from_hex("ffeeddccbbaa99887766554433221100")
        assert selector_stream(key, 200)[:33] == selector_stream(key, 33)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            selector_stream(ZERO_KEY, -1)


class TestSplitUnit:
    """``gather`` splits units and ``scatter`` puts them back together."""

    UNIT = bytes(range(32))

    def test_selector_0(self):
        picked, remainders = gather(self.UNIT, b"\x00")
        assert picked == bytes.fromhex("00010203")
        assert remainders == self.UNIT[4:]

    def test_selector_7(self):
        picked, remainders = gather(self.UNIT, b"\x07")
        assert picked == self.UNIT[28:]
        assert remainders == self.UNIT[:28]

    @pytest.mark.parametrize("selector", range(8))
    def test_reinsert_inverse(self, selector):
        sel = bytes([selector])
        picked, remainders = gather(self.UNIT, sel)
        off = 4 * selector
        assert picked == self.UNIT[off:off + 4]
        assert remainders == self.UNIT[:off] + self.UNIT[off + 4:]
        assert scatter(picked, remainders, sel) == self.UNIT

    def test_mixed_selectors_match_unit_by_unit_split(self):
        rng = random.Random(11)
        count = 1000
        units = rng.randbytes(32 * count)
        selectors = bytes(rng.randrange(8) for _ in range(count))
        picked, remainders = gather(units, selectors)
        for i, s in enumerate(selectors):
            unit = units[32 * i:32 * (i + 1)]
            assert picked[4 * i:4 * (i + 1)] == unit[4 * s:4 * s + 4]
            assert remainders[28 * i:28 * (i + 1)] == unit[:4 * s] + unit[4 * s + 4:]
        assert scatter(picked, remainders, selectors) == units

    def test_empty(self):
        assert gather(b"", b"") == (b"", b"")
        assert scatter(b"", b"", b"") == b""

    def test_selector_out_of_range(self):
        for bad in (b"\x08", b"\xff"):
            with pytest.raises(ValueError):
                gather(self.UNIT, bad)
            with pytest.raises(ValueError):
                scatter(bytes(4), bytes(28), bad)

    def test_bad_unit_length(self):
        with pytest.raises(ValueError):
            gather(b"\x00" * 31, b"\x00")
        with pytest.raises(ValueError):
            gather(self.UNIT, b"\x00\x00")


class TestUnitKeystream:
    def test_zero_vector_known_answer(self):
        ks = keystream(bytes(4), ZERO_KEY, 0)
        assert ks == KEYSTREAM_ZERO_VECTOR
        assert len(ks) == 28

    def test_deterministic(self):
        key = ProtectionKey.random()
        assert keystream(b"abcd", key, 7) == keystream(b"abcd", key, 7)

    def test_index_forces_distinct_streams(self):
        assert keystream(bytes(4), ZERO_KEY, 0) != keystream(bytes(4), ZERO_KEY, 1)
        both = keystream(bytes(8), ZERO_KEY)
        assert both[:28] != both[28:]

    def test_batch_matches_unit_by_unit(self):
        rng = random.Random(12)
        key = ProtectionKey(rng.randbytes(16))
        picked = rng.randbytes(4 * 300)
        first = 2 ** 40 + 5
        want = b"".join(keystream(picked[4 * i:4 * (i + 1)], key, first + i) for i in range(300))
        assert keystream(picked, key, first) == want

    def test_length_and_index_checks(self):
        assert keystream(b"", ZERO_KEY) == b""
        with pytest.raises(ValueError):
            keystream(bytes(5), ZERO_KEY)
        with pytest.raises(ValueError):
            keystream(bytes(4), ZERO_KEY, -1)

    def test_avalanche_statistical(self):
        # Single-bit input flips should change roughly half the output bits.
        rng = random.Random(0x5EFA)
        base_sel, base_key, base_idx = b"\x11\x22\x33\x44", ProtectionKey(bytes(range(16))), 5
        base = keystream(base_sel, base_key, base_idx)
        distances = []
        for _ in range(200):
            field = rng.randrange(3)
            if field == 0:
                buf = bytearray(base_sel)
                buf[rng.randrange(4)] ^= 1 << rng.randrange(8)
                ks = keystream(bytes(buf), base_key, base_idx)
            elif field == 1:
                buf = bytearray(base_key.bytes)
                buf[rng.randrange(16)] ^= 1 << rng.randrange(8)
                ks = keystream(base_sel, ProtectionKey(bytes(buf)), base_idx)
            else:
                ks = keystream(base_sel, base_key, base_idx ^ (1 << rng.randrange(60)))
            assert ks != base
            distances.append(bin(int.from_bytes(ks, "big") ^ int.from_bytes(base, "big")).count("1"))
        mean = sum(distances) / len(distances)
        assert 0.4 * 224 < mean < 0.6 * 224


class TestProtectUnit:
    """One unit through the pipeline: gather, keystream, XOR, scatter."""

    def test_xor_involution(self):
        key = ProtectionKey.random()
        unit = bytes(range(32))
        selector = selector_stream(key, 4)[3:4]
        picked, remainder = gather(unit, selector)
        puf_unit = core._xor(remainder, keystream(picked, key, 3))
        assert puf_unit != remainder
        assert scatter(picked, core._xor(puf_unit, keystream(picked, key, 3)), selector) == unit

    def test_zero_unit_exposes_keystream(self):
        # XOR with an all-zero remainder is the keystream itself.
        streams = protect(bytes(32), ZERO_KEY)
        assert streams.prf_plain[:4] == bytes(4)
        assert streams.puf_payload == keystream(bytes(4), ZERO_KEY, 0) == KEYSTREAM_ZERO_VECTOR

    def test_explicit_selector_matches_derived(self):
        # The pipeline spelled out with an explicit selector stream is protect.
        rng = random.Random(9)
        key = ProtectionKey(rng.randbytes(16))
        content = rng.randbytes(32 * 10)
        picked, remainders = gather(content, selector_stream(key, 10))
        streams = protect(content, key)
        assert streams.puf_payload == core._xor(remainders, keystream(picked, key))
        assert streams.prf_plain[:40] == picked


class TestProtect:
    def test_empty_content(self):
        streams = protect(b"", ZERO_KEY)
        assert streams.puf_payload == b""
        assert streams.prf_plain == EMPTY_DIGEST
        unit_count = len(streams.puf_payload) // core.REMAINDER_LEN
        tail_len = len(streams.prf_plain) - core.SUB_LEN * unit_count - core.DIGEST_LEN
        assert unit_count == 0 and tail_len == 0

    def test_sub_unit_content_goes_to_private_stream(self):
        content = bytes(range(31))
        streams = protect(content, ZERO_KEY)
        assert len(streams.puf_payload) // core.REMAINDER_LEN == 0
        assert streams.puf_payload == b""
        assert streams.prf_plain == content + hashlib.sha256(content).digest()

    def test_stream_lengths(self):
        content = bytes(100)  # 3 units + 4-byte tail
        streams = protect(content, ZERO_KEY)
        assert len(streams.puf_payload) == 28 * 3
        assert len(streams.prf_plain) == 4 * 3 + 4 + 32

    def test_identical_units_produce_distinct_public_units(self):
        streams = protect(bytes(32 * 10), ZERO_KEY)
        units = [streams.puf_payload[28 * i:28 * (i + 1)] for i in range(10)]
        assert len(set(units)) == 10

    def test_counters(self, sha256_calls):
        protect(bytes(32 * 100 + 5), ZERO_KEY)
        assert sha256_calls["protection"] == 100
        assert sha256_calls["selector"] == 4
        assert sha256_calls["digest"] == 1
        assert sum(sha256_calls.values()) == 105
        sha256_calls.clear()
        protect(bytes(1 << 20), ZERO_KEY)
        assert sha256_calls == {"protection": 32768, "selector": 1024, "digest": 1}

    def test_selected_fraction_exact_for_aligned_content(self):
        length = 32 * 64
        streams = protect(bytes(length), ZERO_KEY)
        assert len(streams.prf_plain) - core.DIGEST_LEN == length // 8

    def test_matches_reference_across_chunk_boundaries(self):
        c = 32 * CHUNK_UNITS
        rng = random.Random(7)
        key = ProtectionKey(rng.randbytes(16))
        for length in (0, 31, 32, 33, c - 1, c, c + 1, 2 * c + 7):
            content = rng.randbytes(length)
            streams = protect(content, key)
            assert (streams.puf_payload, streams.prf_plain) == reference_protect(content, key), length
            assert recover(streams.puf_payload, streams.prf_plain, key) == content, length

    def test_last_chunk_bit_flips_fail_integrity(self):
        units = 2 * CHUNK_UNITS
        rng = random.Random(8)
        key = ProtectionKey(rng.randbytes(16))
        streams = protect(rng.randbytes(32 * units + 7), key)
        puf = bytearray(streams.puf_payload)
        puf[28 * (units - 1) + 5] ^= 0x01
        with pytest.raises(IntegrityFailure):
            recover(bytes(puf), streams.prf_plain, key)
        prf = bytearray(streams.prf_plain)
        prf[4 * (units - 1) + 2] ^= 0x80
        with pytest.raises(IntegrityFailure):
            recover(streams.puf_payload, bytes(prf), key)


class TestRecover:
    @given(st.binary(max_size=2048), st.binary(min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, content, key_bytes):
        key = ProtectionKey(key_bytes)
        streams = protect(content, key)
        assert recover(streams.puf_payload, streams.prf_plain, key) == content

    @given(st.binary(max_size=1024))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, content):
        # The digest is the only plaintext the scheme adds.
        streams = protect(content, ZERO_KEY)
        assert len(streams.puf_payload) + len(streams.prf_plain) - 32 == len(content)

    def test_truncated_public_payload(self):
        streams = protect(bytes(64), ZERO_KEY)
        with pytest.raises(LengthMismatch):
            recover(streams.puf_payload[:-1], streams.prf_plain, ZERO_KEY)

    def test_short_private_stream(self):
        streams = protect(bytes(64), ZERO_KEY)
        with pytest.raises(LengthMismatch):
            recover(streams.puf_payload, streams.prf_plain[:-1], ZERO_KEY)

    def test_oversized_tail_rejected(self):
        streams = protect(bytes(64), ZERO_KEY)
        with pytest.raises(LengthMismatch):
            recover(streams.puf_payload, streams.prf_plain + bytes(32), ZERO_KEY)

    def test_mismatched_pair_fails_integrity(self):
        a = protect(b"a" * 64, ZERO_KEY)
        b = protect(b"b" * 64, ZERO_KEY)
        with pytest.raises(IntegrityFailure):
            recover(a.puf_payload, b.prf_plain, ZERO_KEY)

    def test_corrupted_payload_fails_integrity(self):
        streams = protect(bytes(range(64)) * 2, ZERO_KEY)
        tampered = bytearray(streams.puf_payload)
        tampered[5] ^= 0x80
        with pytest.raises(IntegrityFailure):
            recover(bytes(tampered), streams.prf_plain, ZERO_KEY)
        # The streaming pass hands over every piece before it raises.
        attempted = []
        with pytest.raises(IntegrityFailure):
            for piece in core.recover_chunks(
                io.BytesIO(bytes(tampered)).read, io.BytesIO(streams.prf_plain).read, 128, ZERO_KEY
            ):
                attempted.append(piece)
        assert attempted
        assert len(b"".join(attempted)) == 128

    def test_key_sensitivity_100_bit_flips(self):
        # No single-bit key variant may recover silently.
        rng = random.Random(0xBEEF)
        content = rng.randbytes(1024)
        key = ProtectionKey(rng.randbytes(16))
        streams = protect(content, key)
        flips = rng.sample(range(128), 100)
        for bit in flips:
            buf = bytearray(key.bytes)
            buf[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(IntegrityFailure):
                recover(streams.puf_payload, streams.prf_plain, ProtectionKey(bytes(buf)))


class TestUnprotectRemainders:
    """XOR of the public payload with the keystream the selected bytes imply."""

    def test_true_stream_recovers_remainders(self):
        rng = random.Random(3)
        content = rng.randbytes(32 * 8)
        key = ProtectionKey(rng.randbytes(16))
        streams = protect(content, key)
        picked = streams.prf_plain[:32]
        remainders = core._xor(streams.puf_payload, keystream(picked, key))
        selectors = selector_stream(key, 8)
        assert remainders == gather(content, selectors)[1]
        assert scatter(picked, remainders, selectors) == content

    def test_length_checks(self):
        with pytest.raises(ValueError):
            keystream(bytes(3), ZERO_KEY)
        with pytest.raises(ValueError):
            scatter(bytes(4), bytes(27), b"\x00")
        with pytest.raises(ValueError):
            scatter(bytes(3), bytes(28), b"\x00")


@functools.lru_cache(maxsize=None)
def _reference_case(length: int) -> tuple[ProtectionKey, bytes, tuple[bytes, bytes]]:
    rng = random.Random(length)
    key, content = ProtectionKey(rng.randbytes(16)), rng.randbytes(length)
    return key, content, reference_protect(content, key)


class TestKernelPaths:
    """The native kernel and the pure-Python path against the unit-by-unit
    reference; ``kernel_path`` runs each test once per path."""

    C = 32 * CHUNK_UNITS

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, C - 1, C, C + 1, 2 * C + 7, (8 << 20) + 7])
    def test_chunks_match_reference(self, kernel_path, length):
        key, content, (public, private) = _reference_case(length)
        pieces = list(core.protect_chunks(io.BytesIO(content).read, length, key))
        assert b"".join(p for p, _ in pieces) == public
        assert b"".join(q for _, q in pieces) == private
        recovered = core.recover_chunks(io.BytesIO(public).read, io.BytesIO(private).read, length, key)
        assert b"".join(recovered) == content

    def test_known_answer_vectors(self, kernel_path):
        streams = protect(bytes(32), ZERO_KEY)
        assert streams.prf_plain[:4] == bytes(4)
        assert streams.puf_payload == KEYSTREAM_ZERO_VECTOR
        assert recover(streams.puf_payload, streams.prf_plain, ZERO_KEY) == bytes(32)
        assert protect(b"", ZERO_KEY).prf_plain == EMPTY_DIGEST

    def test_short_reads_raise(self, kernel_path):
        key, content, (public, private) = _reference_case(2 * self.C + 7)
        short = content[:self.C + 64]
        with pytest.raises(ValueError):
            list(core.protect_chunks(io.BytesIO(short).read, len(content), key))
        for pub, priv in ((public[:self.C], private), (public, private[:100]), (public, private[:99])):
            with pytest.raises(ValueError):
                list(core.recover_chunks(io.BytesIO(pub).read, io.BytesIO(priv).read, len(content), key))
