"""Container format, seal/open pipeline, and key derivation tests."""

import errno
import hashlib
import io
import os
import random
import re

import pytest
from conftest import per_kernel_family
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from sefrag import container
from sefrag.container import (
    PrfContainer,
    PufContainer,
    atomic_write,
    derive_key,
    seal,
)
from sefrag.core import ProtectionKey
from sefrag.errors import FormatError, IntegrityFailure, SefragError

KEY = ProtectionKey.from_hex("000102030405060708090a0b0c0d0e0f")


def make_dicom(body: bytes) -> bytes:
    return bytes(128) + b"DICM" + body


def _flip(raw: bytes, flips: list[tuple[int, int]]) -> bytes:
    out = bytearray(raw)
    for pos, mask in flips:
        out[pos] ^= mask
    return bytes(out)


def _mutations(raw: bytes):
    """``raw`` truncated, with a few bytes flipped, or extended."""
    return (
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
        | st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=4).map(
            lambda flips: _flip(raw, flips)
        )
        | st.binary(min_size=1, max_size=64).map(lambda extra: raw + extra)
    )


# Arbitrary bytes, bytes behind a container magic, a private header whose
# length field matches a body of any length, and a real sealed pair mutated.
_SEALED = [c.to_bytes() for c in seal(make_dicom(bytes(range(256)) + b"tail"), KEY, mode="dicom")]
CONTAINER_BYTES = (
    st.binary(max_size=200)
    | st.tuples(st.sampled_from([b"PUF1", b"PRF1"]), st.binary(max_size=200)).map(b"".join)
    | st.binary(max_size=80).map(
        lambda body: container._PRF_HEADER.pack(b"PRF1", 1, bytes(16), bytes(16), bytes(16), len(body)) + body
    )
    | _mutations(_SEALED[0])
    | _mutations(_SEALED[1])
)


# The file readers behind open_stream, given raw bytes as one half of a
# real pair and run to the end of the pass.
def _open_as_puf(raw: bytes) -> list[bytes]:
    pieces = []
    container.open_stream(io.BytesIO(raw), io.BytesIO(_SEALED[1]), lambda _salt: KEY)(pieces.append)
    return pieces


def _open_as_prf(raw: bytes) -> list[bytes]:
    pieces = []
    container.open_stream(io.BytesIO(_SEALED[0]), io.BytesIO(raw), lambda _salt: KEY)(pieces.append)
    return pieces


def split_by_seal(data: bytes, mode: str) -> tuple[bytes, bytes]:
    """The plaintext head and the protected content ``seal`` makes of
    ``data`` under ``mode``, read back from the sealed pair."""
    puf, prf = seal(data, KEY, mode=mode)
    return puf.head, container.open(puf, prf, KEY)[len(puf.head):]


class TestSplitHeader:
    def test_raw_is_identity(self):
        assert split_by_seal(b"hello", "raw") == (b"", b"hello")

    def test_fixed(self):
        data = bytes(range(100))
        head, content = split_by_seal(data, "fixed:10")
        assert head == data[:10] and content == data[10:]
        assert head + content == data

    def test_fixed_too_short(self):
        with pytest.raises(FormatError, match="^input is 3 bytes, fixed header wants 4$"):
            seal(b"abc", KEY, mode="fixed:4")

    def test_fixed_bad_length(self):
        with pytest.raises(FormatError):
            seal(b"abc", KEY, mode="fixed:x")
        with pytest.raises(FormatError):
            seal(b"abc", KEY, mode="fixed:-1")

    def test_dicom(self):
        data = make_dicom(b"pixels")
        assert split_by_seal(data, "dicom") == (data[:132], b"pixels")

    def test_dicom_missing_marker(self):
        with pytest.raises(FormatError, match="^no DICM marker at offset 128$"):
            seal(bytes(200), KEY, mode="dicom")

    def test_dicom_too_short(self):
        with pytest.raises(FormatError, match="^no DICM marker at offset 128$"):
            seal(b"DICM", KEY, mode="dicom")

    def test_unknown_mode(self):
        with pytest.raises(FormatError):
            seal(b"", KEY, mode="zip")


class TestSerialization:
    @given(st.binary(max_size=200), st.integers(min_value=0, max_value=255))
    @settings(max_examples=40, deadline=None)
    def test_puf_round_trip(self, head, flags):
        content_len = 3 * 32 + 7
        puf = PufContainer(
            file_id=bytes(range(16)),
            original_content_len=content_len,
            puf_payload=bytes(28 * 3),
            head=head,
            flags=flags,
        )
        assert PufContainer.from_bytes(puf.to_bytes()) == puf

    def test_prf_round_trip(self):
        prf = PrfContainer(
            file_id=bytes(16),
            kdf_salt=bytes(range(16)),
            iv=bytes(range(16, 32)),
            ciphertext=bytes(48),
        )
        assert PrfContainer.from_bytes(prf.to_bytes()) == prf
        assert prf.to_bytes()[:4] == b"PRF1"

    def test_puf_magic_ascii(self):
        puf, _ = seal(b"x" * 40, KEY)
        assert puf.to_bytes()[:4] == b"PUF1"

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            PufContainer.from_bytes(b"NOPE" + bytes(60))
        with pytest.raises(FormatError):
            PrfContainer.from_bytes(b"NOPE" + bytes(80))

    def test_swapped_container_types(self):
        puf, prf = seal(b"x" * 100, KEY)
        with pytest.raises(FormatError):
            PufContainer.from_bytes(prf.to_bytes())
        with pytest.raises(FormatError):
            PrfContainer.from_bytes(puf.to_bytes())

    def test_bad_version(self):
        raw = bytearray(seal(b"x" * 100, KEY)[0].to_bytes())
        raw[4] = 2
        with pytest.raises(FormatError):
            PufContainer.from_bytes(bytes(raw))

    def test_truncated_body(self):
        raw = seal(b"x" * 100, KEY)[0].to_bytes()
        with pytest.raises(FormatError):
            PufContainer.from_bytes(raw[:-1])

    def test_inconsistent_unit_count(self):
        raw = bytearray(seal(b"x" * 100, KEY)[0].to_bytes())
        raw[34] ^= 1  # unit_count field
        with pytest.raises(FormatError):
            PufContainer.from_bytes(bytes(raw))

    @given(CONTAINER_BYTES)
    @settings(max_examples=300, deadline=None)
    def test_only_sefrag_errors_escape_parsers(self, raw):
        for read in (PufContainer.from_bytes, PrfContainer.from_bytes, _open_as_puf, _open_as_prf, container.body,
                     lambda raw: container.pair_id(raw, _SEALED[1]), lambda raw: container.pair_id(_SEALED[0], raw)):
            try:
                read(raw)
            except SefragError:
                pass


class TestHeaderCodec:
    """``pair_id`` and ``body`` read sealed bytes through the header parsers."""

    def test_pair_id_is_the_shared_file_id(self):
        puf, prf = seal(b"paired" * 40, KEY, mode="fixed:3")
        assert container.pair_id(puf.to_bytes(), prf.to_bytes()) == puf.file_id == prf.file_id

    def test_pair_id_rejects_foreign_and_malformed_pairs(self):
        puf, prf = (c.to_bytes() for c in seal(b"one" * 40, KEY))
        other_prf = seal(b"two" * 40, KEY)[1].to_bytes()
        with pytest.raises(IntegrityFailure, match="^public and private containers carry different file ids$"):
            container.pair_id(puf, other_prf)
        with pytest.raises(FormatError, match="bad public container magic"):
            container.pair_id(prf, puf)
        with pytest.raises(FormatError, match="private container truncated"):
            container.pair_id(puf, prf[:40])

    def test_body_is_a_view_of_the_protected_part(self):
        puf, prf = seal(make_dicom(b"body" * 100), KEY, mode="dicom")
        for sealed, part in ((puf.to_bytes(), puf.puf_payload), (prf.to_bytes(), prf.ciphertext)):
            view = container.body(sealed)
            assert view == part
            assert view.obj is sealed
        plain = b"neither container" * 3
        assert container.body(plain) == plain

    def test_body_of_a_malformed_container_raises(self):
        with pytest.raises(FormatError, match="public container body length mismatch"):
            container.body(_SEALED[0][:-1])
        with pytest.raises(FormatError, match="unsupported private container version"):
            container.body(_SEALED[1][:4] + b"\x02" + _SEALED[1][5:])


class TestSealOpen:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4096, 1 << 20])
    def test_round_trip_lengths(self, length):
        data = random.Random(length).randbytes(length)
        puf, prf = seal(data, KEY)
        assert container.open(puf, prf, KEY) == data

    @pytest.mark.parametrize("mode_data", [
        ("raw", b"plain old bytes" * 10),
        ("fixed:12", bytes(range(200))),
        ("dicom", make_dicom(b"\x00\x01" * 300)),
    ])
    def test_round_trip_modes(self, mode_data):
        mode, data = mode_data
        puf, prf = seal(data, KEY, mode=mode)
        assert container.open(puf, prf, KEY) == data

    def test_fresh_randomness_per_seal(self):
        data = b"same input" * 20
        puf1, prf1 = seal(data, KEY)
        puf2, prf2 = seal(data, KEY)
        assert puf1.file_id != puf2.file_id
        assert prf1.iv != prf2.iv
        assert prf1.ciphertext != prf2.ciphertext

    def test_1mib_split_sizes(self):
        data = bytes(1 << 20)
        puf, prf = seal(data, KEY)
        assert len(puf.puf_payload) == 28 * 32768  # 896 KiB, 87.5%
        assert len(prf.ciphertext) == 131072 + 32 + 16  # pad(128 KiB + digest)

    def test_pair_mismatch(self):
        puf_a, _ = seal(b"a" * 64, KEY)
        _, prf_b = seal(b"b" * 64, KEY)
        with pytest.raises(IntegrityFailure, match="does not pair with private fragment"):
            container.open(puf_a, prf_b, KEY)

    def test_wrong_key_never_silent_100_flips(self):
        rng = random.Random(0xC0FFEE)
        data = rng.randbytes(1024)
        puf, prf = seal(data, KEY)
        for bit in rng.sample(range(128), 100):
            buf = bytearray(KEY.bytes)
            buf[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(IntegrityFailure):
                container.open(puf, prf, ProtectionKey(bytes(buf)))

    def test_wrong_length_private_stream(self):
        puf, prf = seal(b"q" * 96, KEY)
        other_plain = b"\x00" * 20
        iv = prf.iv
        padder = padding.PKCS7(128).padder()
        enc = Cipher(algorithms.AES(KEY.bytes), modes.CBC(iv)).encryptor()
        forged = prf._replace(
            ciphertext=enc.update(padder.update(other_plain) + padder.finalize()) + enc.finalize())
        with pytest.raises(IntegrityFailure):
            container.open(puf, forged, KEY)

    @pytest.mark.parametrize("last_block", [
        bytes(15) + b"\x00",
        bytes(15) + b"\x11",
        bytes(13) + b"\x02\x03\x03",
    ], ids=["pad-byte-0", "pad-byte-17", "unequal-pad-bytes"])
    def test_bad_padding_in_the_last_block(self, last_block, each_kernel_path):
        # The forged last block is encrypted here, through cryptography,
        # chained from the real second-to-last block.
        puf, prf = seal(b"p" * 300, KEY)
        enc = Cipher(algorithms.AES(KEY.bytes), modes.CBC(prf.ciphertext[-32:-16])).encryptor()
        forged = prf._replace(ciphertext=prf.ciphertext[:-16] + enc.update(last_block) + enc.finalize())
        for path, _, _ in each_kernel_path():
            with pytest.raises(IntegrityFailure, match=r"^private stream padding invalid \(wrong key\?\)$"):
                container.open(puf, forged, KEY)

    def test_kdf_salt_persisted(self):
        salt = bytes(range(16))
        _, prf = seal(b"z" * 50, KEY, kdf_salt=salt)
        assert PrfContainer.from_bytes(prf.to_bytes()).kdf_salt == salt


def _no_key(_salt):
    pytest.fail("asked for the key")


class TestKeyAskedLast:
    """A fault that the input's structure shows is raised before ``key_for`` runs."""

    def test_open_foreign_pair(self):
        puf_a, _ = seal(b"a" * 64, KEY)
        _, prf_b = seal(b"b" * 64, KEY)
        with pytest.raises(IntegrityFailure, match="does not pair with private fragment"):
            container.open_stream(io.BytesIO(puf_a.to_bytes()), io.BytesIO(prf_b.to_bytes()), _no_key)

    def test_open_private_stream_one_block_too_long(self):
        # Header ct_len and body both 16 bytes longer than the .puf implies.
        puf, prf = seal(b"q" * 96, KEY)
        longer = prf._replace(ciphertext=prf.ciphertext + bytes(16))
        with pytest.raises(IntegrityFailure, match="private stream is 64 cipher bytes, pair expects 48"):
            container.open_stream(io.BytesIO(puf.to_bytes()), io.BytesIO(longer.to_bytes()), _no_key)

    @pytest.mark.parametrize("data, mode, message", [
        (bytes(200), "dicom", "no DICM marker at offset 128"),
        (b"abc", "fixed:4", "input is 3 bytes, fixed header wants 4"),
        (b"abc", "fixed:x", "bad fixed header length in mode 'fixed:x'"),
        (b"abc", "zip", "unknown header mode 'zip'"),
        # Lengths int() would take; the input is long enough for each.
        (bytes(20), "fixed:1_0", "bad fixed header length in mode 'fixed:1_0'"),
        (bytes(20), "fixed:+5", "bad fixed header length in mode 'fixed:+5'"),
        (bytes(20), "fixed: 5", "bad fixed header length in mode 'fixed: 5'"),
        (bytes(20), "fixed:\u0665", "bad fixed header length in mode 'fixed:\u0665'"),
    ], ids=["not-dicom", "too-short", "bad-fixed", "unknown-mode",
            "fixed-underscore", "fixed-plus", "fixed-space", "fixed-arabic-indic-digit"])
    def test_seal_bad_head(self, data, mode, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            container.seal_stream(io.BytesIO(data), _no_key, mode)

    def test_seal_asks_once_with_its_salt_before_returning(self):
        salts = []
        container.seal_stream(io.BytesIO(b"x" * 100), lambda salt: salts.append(salt) or KEY, "raw", bytes(range(16)))
        assert salts == [bytes(range(16))]


class TestDeriveKey:
    def test_deterministic(self):
        salt = bytes(16)
        assert derive_key(b"hunter2", salt) == derive_key(b"hunter2", salt)

    def test_salts_separate_keys(self):
        k1 = derive_key(b"hunter2", bytes(16))
        k2 = derive_key(b"hunter2", bytes([1] + [0] * 15))
        assert k1 != k2

    def test_empty_passphrase(self):
        with pytest.raises(ValueError, match="^passphrase must not be empty$"):
            derive_key(b"", bytes(16))

    def test_matches_reference_loop(self):
        # Reference chain written out independently of the implementation.
        passphrase, salt = b"pw", bytes(range(16))
        x = b""
        for _ in range(100_000):
            x = hashlib.sha256(x + passphrase + salt).digest()
        assert derive_key(passphrase, salt).bytes == x[:16]

    @pytest.mark.parametrize("passphrase", [b"pw", b"pass\x00word", bytes(range(256)) * 4],
                             ids=["short", "nul-byte", "1-kib"])
    @per_kernel_family
    def test_both_kernel_paths_match_reference_loop(self, each_kernel_path, passphrase):
        salt = bytes(range(16, 32))
        x = b""
        for _ in range(100_000):
            x = hashlib.sha256(x + passphrase + salt).digest()
        for path, *_ in each_kernel_path():
            assert derive_key(passphrase, salt).bytes == x[:16], path


def full_disk_after_half(monkeypatch):
    """Make the next file write store half its bytes, then fail with ENOSPC."""
    real_write = os.write

    def write(fd, data):
        real_write(fd, bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "write", write)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "new" / "out.bin"
        with atomic_write(path) as write:
            write(b"first")
        with atomic_write(path) as write:
            write(b"second, ")
            write(b"longer")
        assert path.read_bytes() == b"second, longer"
        assert os.listdir(path.parent) == ["out.bin"]

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        full_disk_after_half(monkeypatch)
        with pytest.raises(OSError) as info:
            with atomic_write(tmp_path / "out.bin") as write:
                write(b"x" * 4096)
        assert info.value.errno == errno.ENOSPC
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        full_disk_after_half(monkeypatch)
        with pytest.raises(OSError):
            with atomic_write(path) as write:
                write(b"y" * 4096)
        assert path.read_bytes() == b"old contents"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_error_in_block_keeps_existing_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old contents")
        with pytest.raises(IntegrityFailure):
            with atomic_write(path) as write:
                write(b"unverified")
                raise IntegrityFailure("digest mismatch")
        assert path.read_bytes() == b"old contents"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_temp_file_is_private(self, tmp_path):
        with atomic_write(tmp_path / "out.bin") as write:
            write(b"secret")
            (tmp,) = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
            assert tmp.stat().st_mode & 0o777 == 0o600
