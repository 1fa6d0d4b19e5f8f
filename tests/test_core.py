"""Engine-level tests: known-answer vectors, inverses, stream properties."""

import functools
import hashlib
import io
import itertools
import random

import pytest
from conftest import per_kernel_family
from hypothesis import given, settings
from hypothesis import strategies as st

from sefrag import _native, core
from sefrag.core import CHUNK_UNITS, ProtectionKey, protect, recover, selector_stream
from sefrag.dispersion import BlobRef
from sefrag.errors import FormatError, IntegrityFailure

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


def reference_keystream(picked: bytes, key: bytes, first: int = 0) -> bytes:
    """The 28-byte keystreams of units ``first``, ``first + 1``, ... whose
    selected sub-fragments are ``picked``, written out unit by unit:
    SHA-256(selected || key || LE64(i))[:28]."""
    return b"".join(
        hashlib.sha256(picked[4 * i:4 * (i + 1)] + key + (first + i).to_bytes(8, "little")).digest()[:28]
        for i in range(len(picked) // 4)
    )


def reference_selectors(key: bytes, first: int, count: int) -> bytes:
    """The selectors of units ``first`` to ``first + count - 1``, written
    out unit by unit: byte u % 32 of SHA-256(key || "FRAG-SEL" || LE64(u // 32)),
    mod 8."""
    return bytes(
        hashlib.sha256(key + b"FRAG-SEL" + (u // 32).to_bytes(8, "little")).digest()[u % 32] % 8
        for u in range(first, first + count)
    )


def first_unit_with(selector: int, key: bytes = bytes(16)) -> int:
    """The lowest unit index whose selector under ``key`` is ``selector``."""
    return next(u for u in itertools.count() if reference_selectors(key, u, 1)[0] == selector)


def reference_split(units: bytes, selectors: bytes) -> tuple[bytes, bytes]:
    """``(picked, remainders)`` of whole units, unit by unit: the 4-byte
    sub-fragment each selector names (mod 8), and the other seven in order."""
    picked, remainders = [], []
    for i, s in enumerate(selectors):
        unit, off = units[32 * i:32 * (i + 1)], 4 * (s % 8)
        picked.append(unit[off:off + 4])
        remainders.append(unit[:off] + unit[off + 4:])
    return b"".join(picked), b"".join(remainders)


def reference_protect(content: bytes, key: ProtectionKey) -> tuple[bytes, bytes]:
    """The construction written out unit by unit, independent of the kernel.

    Unit i's public part is SHA-256(selected || key || LE64(i))[:28] XOR its
    remainder; the private stream is the selected sub-fragments, the tail
    and SHA-256(content).
    """
    unit_count = len(content) // 32
    picked, remainders = reference_split(content[:32 * unit_count], reference_selectors(key.bytes, 0, unit_count))
    public = bytes(a ^ b for a, b in zip(remainders, reference_keystream(picked, key.bytes)))
    tail = content[32 * unit_count:]
    return public, picked + tail + hashlib.sha256(content).digest()


class TestProtectionKey:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            ProtectionKey(b"short")
        with pytest.raises(ValueError):
            ProtectionKey(bytes(17))

    def test_from_hex_round_trip(self):
        key = ProtectionKey.from_hex("00112233445566778899aabbccddeeff")
        assert key.bytes.hex() == "00112233445566778899aabbccddeeff"

    def test_from_hex_takes_exactly_32_hex_digits(self):
        # bytes.fromhex alone would skip the whitespace and accept these.
        for text in ("00 " * 16, "00" * 16 + "\n", " " + "00" * 16):
            with pytest.raises(ValueError):
                ProtectionKey.from_hex(text)

    def test_random_is_16_bytes(self):
        assert len(ProtectionKey.random().bytes) == 16

    def test_repr_hides_the_key(self):
        key = ProtectionKey.from_hex("00112233445566778899aabbccddeeff")
        for text in (repr(key), str(key)):
            assert repr(key.bytes) not in text and str(key.bytes) not in text
            assert key.bytes.hex() not in text and key.bytes.hex().upper() not in text

    def test_equal_by_value_and_immutable(self):
        key = ProtectionKey(bytes(range(16)))
        assert key == ProtectionKey(bytes(range(16))) and key != ProtectionKey(bytes(16))
        with pytest.raises(AttributeError):
            key.bytes = bytes(16)

    def test_every_formatting_hides_the_key(self):
        key = ProtectionKey.from_hex("00112233445566778899aabbccddeeff")
        for text in (format(key), f"{key}", "%s" % (key,), repr([key])):
            assert repr(key.bytes) not in text and str(key.bytes) not in text
            assert key.bytes.hex() not in text and key.bytes.hex().upper() not in text

    def test_equal_keys_hash_equal(self):
        assert hash(ProtectionKey(bytes(range(16)))) == hash(ProtectionKey(bytes(range(16))))
        assert len({ProtectionKey(bytes(range(16))), ProtectionKey(bytes(range(16))), ProtectionKey(bytes(16))}) == 2

    def test_never_equals_its_raw_bytes(self):
        key = ProtectionKey(bytes(range(16)))
        assert key != key.bytes and key.bytes != key


@pytest.mark.parametrize("cls, size", [(ProtectionKey, 16), (BlobRef, 32)])
def test_make_and_replace_keep_the_length_check(cls, size):
    # namedtuple's own _make, which _replace calls, builds the tuple without __new__.
    (field,) = cls._fields
    for bad in (bytes(size - 1), bytes(size + 1)):
        with pytest.raises(ValueError):
            cls._make([bad])
        with pytest.raises(ValueError):
            cls(bytes(size))._replace(**{field: bad})
    good = bytes(range(size))
    assert cls._make([good]) == cls(good) == cls(bytes(size))._replace(**{field: good})


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
    """The chunk functions take each unit's selected sub-fragment out and
    put it back, on every kernel path.  They derive the selectors from the
    key and the unit index, so a test picks its selector by choosing the
    unit index that has it."""

    UNIT = bytes(range(32))
    KEY = bytes(16)

    def split(self, protect_chunk, units: bytes, first: int, key: bytes = KEY) -> tuple[bytes, bytes]:
        """``(picked, remainders)`` as ``protect_chunk`` makes them from
        units ``first`` on: its public output with the keystream taken
        off again."""
        public, picked = protect_chunk(units, len(units) // 32, key, first)
        return picked, _native._xor(public, reference_keystream(picked, key, first))

    def test_selector_0(self, each_kernel_path):
        first = first_unit_with(0)
        for path, protect_chunk, _ in each_kernel_path():
            picked, remainders = self.split(protect_chunk, self.UNIT, first)
            assert picked == bytes.fromhex("00010203"), path
            assert remainders == self.UNIT[4:], path

    def test_selector_7(self, each_kernel_path):
        first = first_unit_with(7)
        for path, protect_chunk, _ in each_kernel_path():
            picked, remainders = self.split(protect_chunk, self.UNIT, first)
            assert picked == self.UNIT[28:], path
            assert remainders == self.UNIT[:28], path

    @pytest.mark.parametrize("selector", range(8))
    def test_reinsert_inverse(self, selector, each_kernel_path):
        first = first_unit_with(selector)
        off = 4 * selector
        for path, protect_chunk, recover_chunk in each_kernel_path():
            picked, remainders = self.split(protect_chunk, self.UNIT, first)
            assert picked == self.UNIT[off:off + 4], path
            assert remainders == self.UNIT[:off] + self.UNIT[off + 4:], path
            public, _ = protect_chunk(self.UNIT, 1, self.KEY, first)
            assert recover_chunk(public, picked, 1, self.KEY, first) == self.UNIT, path

    def test_mixed_selectors_match_unit_by_unit_split(self, each_kernel_path):
        rng = random.Random(11)
        count = 4096
        units, key = rng.randbytes(32 * count), rng.randbytes(16)
        selectors = reference_selectors(key, 0, count)
        assert set(selectors) == set(range(8))
        # Every selector occurs at every place in a 16-unit keystream batch.
        assert {(s, i % 16) for i, s in enumerate(selectors)} == set(itertools.product(range(8), range(16)))
        for path, protect_chunk, recover_chunk in each_kernel_path():
            picked, remainders = self.split(protect_chunk, units, 0, key)
            for i, s in enumerate(selectors):
                unit = units[32 * i:32 * (i + 1)]
                assert picked[4 * i:4 * (i + 1)] == unit[4 * s:4 * s + 4], path
                assert remainders[28 * i:28 * (i + 1)] == unit[:4 * s] + unit[4 * s + 4:], path
            public, _ = protect_chunk(units, count, key, 0)
            assert recover_chunk(public, picked, count, key, 0) == units, path

    def test_empty(self, each_kernel_path):
        for path, protect_chunk, recover_chunk in each_kernel_path():
            assert protect_chunk(b"", 0, self.KEY, 0) == (b"", b""), path
            assert recover_chunk(b"", b"", 0, self.KEY, 0) == b"", path

    def test_selector_out_of_range(self, each_kernel_path):
        # Every selector hash byte is read mod 8.  The bytes behind these
        # units take all 256 values, and every path gives the bytes of
        # reference_protect, which reduces each one mod 8.
        rng = random.Random(13)
        count = 4096
        key, units = ProtectionKey(rng.randbytes(16)), rng.randbytes(32 * count)
        hashed = b"".join(hashlib.sha256(key.bytes + b"FRAG-SEL" + t.to_bytes(8, "little")).digest()
                          for t in range(count // 32))
        assert set(hashed) == set(range(256))
        public, private = reference_protect(units, key)
        want = public, private[:4 * count]
        for path, protect_chunk, recover_chunk in each_kernel_path():
            assert protect_chunk(units, count, key.bytes, 0) == want, path
            assert recover_chunk(*want, count, key.bytes, 0) == units, path

    def test_bad_unit_length(self, each_kernel_path):
        for path, protect_chunk, _ in each_kernel_path():
            for units, count, key in ((b"\x00" * 31, 1, self.KEY), (self.UNIT, 2, self.KEY),
                                      (self.UNIT, 1, bytes(15))):
                with pytest.raises(ValueError):
                    protect_chunk(units, count, key, 0)

    @pytest.mark.parametrize("first", [0, 7, 31, 32, 33, 2 ** 40 + 5, 2 ** 64 - 1])
    def test_picks_follow_unit_by_unit_selectors(self, first, each_kernel_path):
        # Selector blocks are indexed by the unit index, not by the unit's
        # place in the chunk, also when the chunk starts inside a block.
        count = min(70, 2 ** 64 - first)
        rng = random.Random(first)
        units, key = rng.randbytes(32 * count), rng.randbytes(16)
        want_picked, _ = reference_split(units, reference_selectors(key, first, count))
        outputs = []
        for path, protect_chunk, recover_chunk in each_kernel_path():
            public, picked = protect_chunk(units, count, key, first)
            assert picked == want_picked, path
            assert recover_chunk(public, picked, count, key, first) == units, path
            outputs.append((public, picked))
        assert all(out == outputs[0] for out in outputs)


def chunk_keystream(protect_chunk, picked: bytes, key: bytes, first: int = 0) -> bytes:
    """The keystreams ``protect_chunk`` applies to units ``first`` on whose
    selected sub-fragments are ``picked``: each unit holds its pick at the
    offset its derived selector names and zero bytes elsewhere, so its
    public part is its keystream."""
    count = len(picked) // 4
    units = b"".join(bytes(4 * s) + picked[4 * i:4 * (i + 1)] + bytes(28 - 4 * s)
                     for i, s in enumerate(reference_selectors(key, first, count)))
    public, got = protect_chunk(units, count, key, first)
    assert got == picked
    return public


class TestUnitKeystream:
    def test_zero_vector_known_answer(self, each_kernel_path):
        for path, protect_chunk, _ in each_kernel_path():
            ks = chunk_keystream(protect_chunk, bytes(4), ZERO_KEY.bytes, 0)
            assert ks == KEYSTREAM_ZERO_VECTOR, path
            assert len(ks) == 28, path

    def test_deterministic(self, each_kernel_path):
        key = ProtectionKey.random().bytes
        for path, protect_chunk, _ in each_kernel_path():
            first, again = (chunk_keystream(protect_chunk, b"abcd", key, 7) for _ in range(2))
            assert first == again, path

    def test_index_forces_distinct_streams(self, each_kernel_path):
        for path, protect_chunk, _ in each_kernel_path():
            ks0, ks1 = (chunk_keystream(protect_chunk, bytes(4), ZERO_KEY.bytes, i) for i in (0, 1))
            assert ks0 != ks1, path
            both = chunk_keystream(protect_chunk, bytes(8), ZERO_KEY.bytes)
            assert both[:28] != both[28:], path

    def test_batch_matches_unit_by_unit(self, each_kernel_path):
        rng = random.Random(12)
        key = rng.randbytes(16)
        picked = rng.randbytes(4 * 300)
        first = 2 ** 40 + 5
        for path, protect_chunk, _ in each_kernel_path():
            want = b"".join(chunk_keystream(protect_chunk, picked[4 * i:4 * (i + 1)], key, first + i)
                            for i in range(300))
            assert chunk_keystream(protect_chunk, picked, key, first) == want, path
            assert want == reference_keystream(picked, key, first), path

    def test_length_and_index_checks(self, each_kernel_path):
        # The unit index is a full LE64 up to the last value it can hold.
        last = 2 ** 64 - 1
        for path, protect_chunk, _ in each_kernel_path():
            assert chunk_keystream(protect_chunk, b"", ZERO_KEY.bytes) == b"", path
            assert chunk_keystream(protect_chunk, b"abcd", ZERO_KEY.bytes, last) == \
                reference_keystream(b"abcd", ZERO_KEY.bytes, last), path

    def test_avalanche_statistical(self, each_kernel_path):
        # Single-bit input flips should change roughly half the output bits.
        base_sel, base_key, base_idx = b"\x11\x22\x33\x44", bytes(range(16)), 5
        for path, protect_chunk, _ in each_kernel_path():
            rng = random.Random(0x5EFA)
            base = chunk_keystream(protect_chunk, base_sel, base_key, base_idx)
            distances = []
            for _ in range(200):
                field = rng.randrange(3)
                sel, key, idx = bytearray(base_sel), bytearray(base_key), base_idx
                if field == 0:
                    sel[rng.randrange(4)] ^= 1 << rng.randrange(8)
                elif field == 1:
                    key[rng.randrange(16)] ^= 1 << rng.randrange(8)
                else:
                    idx ^= 1 << rng.randrange(60)
                ks = chunk_keystream(protect_chunk, bytes(sel), bytes(key), idx)
                assert ks != base, path
                distances.append(bin(int.from_bytes(ks, "big") ^ int.from_bytes(base, "big")).count("1"))
            mean = sum(distances) / len(distances)
            assert 0.4 * 224 < mean < 0.6 * 224, path


class TestLaneBoundaries:
    """The native kernel runs whole batches of 16 consecutive units in lanes
    where the CPU has AVX-512F and AVX-512VL, and a chunk's last
    ``count % 16`` units one at a time.  It hashes selector blocks 16 at a
    time into a window that moves when a batch reaches past it, and a
    window of fewer than 16 blocks one block at a time: a first index of
    24 puts a batch across a selector block's edge, 31 and 32 sit on
    either side of one, and 513 units from index 0 end on a one-block
    window.  Across those boundaries, and across 2**32, where a unit
    index's high word changes inside a batch, both kernels give the
    unit-by-unit bytes."""

    COUNTS = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 513, 4095, 4096]
    FIRSTS = [0, 5, 24, 31, 32, 2 ** 32 - 7]

    def test_counts_and_first_indices(self, each_kernel_path):
        rng = random.Random(16)
        key = rng.randbytes(16)
        seen = set()
        for count, first in [(c, f) for c in self.COUNTS for f in [*self.FIRSTS, 2 ** 64 - c]]:
            units = rng.randbytes(32 * count)
            selectors = reference_selectors(key, first, count)
            seen.update(selectors)
            picked, remainders = reference_split(units, selectors)
            public = bytes(a ^ b for a, b in zip(remainders, reference_keystream(picked, key, first)))
            want = public, picked
            outputs = []
            for path, protect_chunk, recover_chunk in each_kernel_path():
                got = protect_chunk(units, count, key, first)
                assert got == want, (path, count, first)
                assert recover_chunk(*got, count, key, first) == units, (path, count, first)
                outputs.append(got)
            assert all(out == outputs[0] for out in outputs)
        # Every cut position of the remainder occurs.
        assert seen == set(range(8))


class TestProtectUnit:
    """One unit through a chunk function and back, on every kernel path."""

    def test_xor_involution(self, each_kernel_path):
        key = ProtectionKey.random()
        unit = bytes(range(32))
        selector = selector_stream(key, 4)[3:4]
        _, remainder = reference_split(unit, selector)
        for path, protect_chunk, recover_chunk in each_kernel_path():
            public, picked = protect_chunk(unit, 1, key.bytes, 3)
            assert public != remainder, path
            assert _native._xor(public, reference_keystream(picked, key.bytes, 3)) == remainder, path
            assert recover_chunk(public, picked, 1, key.bytes, 3) == unit, path

    def test_zero_unit_exposes_keystream(self, each_kernel_path):
        # XOR with an all-zero remainder is the keystream itself.
        for path, *_ in each_kernel_path():
            streams = protect(bytes(32), ZERO_KEY)
            assert streams.prf_plain[:4] == bytes(4), path
            assert streams.puf_payload == reference_keystream(bytes(4), ZERO_KEY.bytes) == KEYSTREAM_ZERO_VECTOR, path

    def test_explicit_selector_matches_derived(self, each_kernel_path):
        # The chunk function called on its own is protect, and picks the
        # sub-fragments the public selector stream names.
        rng = random.Random(9)
        key = ProtectionKey(rng.randbytes(16))
        content = rng.randbytes(32 * 10)
        want_picked, _ = reference_split(content, selector_stream(key, 10))
        for path, protect_chunk, _ in each_kernel_path():
            public, picked = protect_chunk(content, 10, key.bytes, 0)
            streams = protect(content, key)
            assert streams.puf_payload == public, path
            assert streams.prf_plain[:40] == picked == want_picked, path


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
        with pytest.raises(FormatError, match="^stream lengths cannot come from one protection pass$"):
            recover(streams.puf_payload[:-1], streams.prf_plain, ZERO_KEY)

    def test_short_private_stream(self):
        streams = protect(bytes(64), ZERO_KEY)
        with pytest.raises(FormatError, match="^stream lengths cannot come from one protection pass$"):
            recover(streams.puf_payload, streams.prf_plain[:-1], ZERO_KEY)

    def test_oversized_tail_rejected(self):
        streams = protect(bytes(64), ZERO_KEY)
        with pytest.raises(FormatError, match="^stream lengths cannot come from one protection pass$"):
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

    def test_true_stream_recovers_remainders(self, each_kernel_path):
        rng = random.Random(3)
        content = rng.randbytes(32 * 8)
        key = ProtectionKey(rng.randbytes(16))
        selectors = selector_stream(key, 8)
        for path, _, recover_chunk in each_kernel_path():
            streams = protect(content, key)
            picked = streams.prf_plain[:32]
            remainders = _native._xor(streams.puf_payload, reference_keystream(picked, key.bytes))
            assert (picked, remainders) == reference_split(content, selectors), path
            assert recover_chunk(streams.puf_payload, picked, 8, key.bytes, 0) == content, path

    def test_length_checks(self, each_kernel_path):
        for path, _, recover_chunk in each_kernel_path():
            for public, picked, key in ((bytes(27), bytes(4), bytes(16)), (bytes(28), bytes(3), bytes(16)),
                                        (bytes(28), bytes(4), bytes(17))):
                with pytest.raises(ValueError):
                    recover_chunk(public, picked, 1, key, 0)


@functools.lru_cache(maxsize=None)
def _reference_case(length: int) -> tuple[ProtectionKey, bytes, tuple[bytes, bytes]]:
    rng = random.Random(length)
    key, content = ProtectionKey(rng.randbytes(16)), rng.randbytes(length)
    return key, content, reference_protect(content, key)


class TestKernelPaths:
    """The native kernel and the pure-Python path against the unit-by-unit
    reference; ``each_kernel_path`` runs each test body once per path,
    under one id per kernel family where the test is ``per_kernel_family``."""

    C = 32 * CHUNK_UNITS

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, C - 1, C, C + 1, 2 * C + 7, (8 << 20) + 7])
    @per_kernel_family
    def test_chunks_match_reference(self, each_kernel_path, length):
        key, content, (public, private) = _reference_case(length)
        for path, *_ in each_kernel_path():
            pieces = list(core.protect_chunks(io.BytesIO(content).read, length, key))
            assert b"".join(p for p, _ in pieces) == public, path
            assert b"".join(q for _, q in pieces) == private, path
            recovered = core.recover_chunks(io.BytesIO(public).read, io.BytesIO(private).read, length, key)
            assert b"".join(recovered) == content, path

    @per_kernel_family
    def test_known_answer_vectors(self, each_kernel_path):
        for path, *_ in each_kernel_path():
            streams = protect(bytes(32), ZERO_KEY)
            assert streams.prf_plain[:4] == bytes(4), path
            assert streams.puf_payload == KEYSTREAM_ZERO_VECTOR, path
            assert recover(streams.puf_payload, streams.prf_plain, ZERO_KEY) == bytes(32), path
            assert protect(b"", ZERO_KEY).prf_plain == EMPTY_DIGEST, path

    @per_kernel_family
    def test_short_reads_raise(self, each_kernel_path):
        key, content, (public, private) = _reference_case(2 * self.C + 7)
        short = content[:self.C + 64]
        for path, *_ in each_kernel_path():
            with pytest.raises(ValueError):
                list(core.protect_chunks(io.BytesIO(short).read, len(content), key))
            for pub, priv in ((public[:self.C], private), (public, private[:100]), (public, private[:99])):
                with pytest.raises(ValueError):
                    list(core.recover_chunks(io.BytesIO(pub).read, io.BytesIO(priv).read, len(content), key))

    def test_unit_indices_past_u64_raise_on_both_kernels(self, each_kernel_path):
        # C takes the first unit index as a u64; neither kernel may wrap it.
        rng = random.Random(2**64)
        units, key = rng.randbytes(64), rng.randbytes(16)
        outputs = []
        for path, protect_chunk, recover_chunk in each_kernel_path():
            public, picked = protect_chunk(units, 2, key, 2**64 - 2)
            assert recover_chunk(public, picked, 2, key, 2**64 - 2) == units, path
            outputs.append((public, picked))
            for first in (-1, 2**64 - 1):
                with pytest.raises(ValueError):
                    protect_chunk(units, 2, key, first)
                with pytest.raises(ValueError):
                    recover_chunk(public, picked, 2, key, first)
        assert all(out == outputs[0] for out in outputs)
        assert len(outputs) == 1 + 2 * isinstance(_native.load(), _native.Kernel)
