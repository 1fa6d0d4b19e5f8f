"""End-to-end acceptance checks.

One test per promised property, each printing a single PASS/FAIL line
(run with ``-s`` to see the checklist). Thresholds are asserted exactly
as stated; the timing budgets are deliberately generous so they catch
algorithmic regressions rather than hardware variance.
"""

import contextlib
import hashlib
import io
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sefrag
from sefrag import _native, analysis, bench, container, core, dispersion
from sefrag.core import ProtectionKey
from sefrag.dispersion import BlobServer, DirectoryBackend, PlacementIndex, RemoteBackend
from sefrag.errors import IntegrityFailure

MIB = 1 << 20


@contextlib.contextmanager
def criterion(name):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"FAIL  {name}", flush=True)
        raise
    note = info.get("note", "")
    print(f"PASS  {name}" + (f" ({note})" if note else ""), flush=True)


def test_round_trip_correctness():
    rng = random.Random(0x5EF1)
    lengths = list(range(64))                      # every residue mod 32, twice
    lengths += [32768, 65535, 65536]
    lengths += [rng.randrange(65537) for _ in range(1000 - len(lengths))]
    with criterion("round-trip correctness") as info:
        start = time.perf_counter()
        for n in lengths:
            data = rng.randbytes(n)
            key = ProtectionKey(rng.randbytes(16))
            puf, prf = container.seal(data, key)
            assert container.open(puf, prf, key) == data
        # header-splitting modes ride the same pipeline
        for _ in range(8):
            body = rng.randbytes(128) + b"DICM" + rng.randbytes(rng.randrange(4096))
            key = ProtectionKey(rng.randbytes(16))
            puf, prf = container.seal(body, key, mode="dicom")
            assert container.open(puf, prf, key) == body
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        info["note"] = f"{len(lengths) + 8} fuzzed pairs in {elapsed:.1f}s"


def test_public_payload_entropy():
    rng = random.Random(0x5EF2)
    line = b"Patient: Jane Q. Public\nDiagnosis: hypertension stage 1\nRx: lisinopril 10mg\n"
    inputs = {
        "all-zero": bytes(MIB),
        "ascii-text": (line * (MIB // len(line) + 1))[:MIB],
        "repeating-pattern": (bytes(range(256)) * (MIB // 256))[:MIB],
    }
    with criterion("public payload entropy > 7.99 on structured 1 MiB inputs") as info:
        measured = {}
        for label, data in inputs.items():
            key = ProtectionKey(rng.randbytes(16))
            puf, _ = container.seal(data, key)
            measured[label] = analysis.entropy(puf.puf_payload)
            assert measured[label] > 7.99, (label, measured[label])
        info["note"] = ", ".join(f"{k}={v:.4f}" for k, v in measured.items())


def test_key_compromise_resilience():
    rng = random.Random(0x5EF3)
    line = b"name=J.Public;dob=1984-02-29;icd10=I10;\n"
    trials = 100
    # A guessed private stream only helps where the guess matches the true
    # selected bytes, so degenerate all-zero content would make a zero guess
    # trivially correct; trials use content that carries information.
    with criterion("public fragment useless with the key alone") as info:
        silent = 0
        worst_derived = 8.0
        attempted_entropy = 0.0
        for t in range(trials):
            if t % 3 == 0:
                content = (bytes(range(256)) * (MIB // 256))[:MIB]
            elif t % 3 == 1:
                content = (line * (MIB // len(line) + 1))[:MIB]
            else:
                content = rng.randbytes(MIB)
            key = ProtectionKey(rng.randbytes(16))
            streams = core.protect(content, key)
            unit_count = len(streams.puf_payload) // core.REMAINDER_LEN

            # the attacker holds the public payload and the true key; the
            # private stream is guessed as zeros
            forged_prf = bytes(core.SUB_LEN * unit_count + core.DIGEST_LEN)
            pieces = []
            try:
                core.recover_chunks(
                    io.BytesIO(streams.puf_payload).read, io.BytesIO(forged_prf).read, len(content), key, pieces.append
                )
                silent += 1
            except IntegrityFailure:
                attempted = b"".join(pieces)
                assert len(attempted) == len(content)
                assert attempted != content
                attempted_entropy = analysis.entropy(attempted)

            zero_pick_pads = b"".join(
                hashlib.sha256(bytes(core.SUB_LEN) + key.bytes + i.to_bytes(8, "little")).digest()[:core.REMAINDER_LEN]
                for i in range(unit_count)
            )
            derived = _native._xor(streams.puf_payload, zero_pick_pads)
            worst_derived = min(worst_derived, analysis.entropy(derived))
            assert worst_derived > 7.9, worst_derived
        assert silent == 0
        info["note"] = (
            f"{trials} trials, 0 silent successes, derived-byte entropy >= "
            f"{worst_derived:.4f}, last attempted-output entropy {attempted_entropy:.4f}"
        )


def test_key_holder_recovers_a_unit_by_search():
    """The stated bound, performed at reduced scale: whoever holds the key
    and the public payload recovers a unit by trying values of its
    selected sub-fragment until the unit looks like text.  The full search
    tries all 2^32 values; this one keeps two of the four bytes and tries
    the 2^16 values of the other two, a set that holds the true value."""
    with criterion("key plus public payload recovers a text unit by search") as info:
        rng = random.Random(0x7E57)
        content = bytes(rng.randrange(0x20, 0x7F) for _ in range(64 * core.UNIT_LEN))
        key = ProtectionKey(rng.randbytes(16))
        public = core.protect(content, key).puf_payload
        unit = 41
        # What the key alone gives: the unit's selector and keystream recipe.
        pick = core.SUB_LEN * core.selector_stream(key, unit + 1)[unit]
        remainder = public[core.REMAINDER_LEN * unit:core.REMAINDER_LEN * (unit + 1)]
        suffix = key.bytes + unit.to_bytes(8, "little")
        true_sub = content[core.UNIT_LEN * unit + pick:][:core.SUB_LEN]
        plausible = []
        for low in range(1 << 16):
            sub = true_sub[:2] + low.to_bytes(2, "little")
            rest = _native._xor(remainder, hashlib.sha256(sub + suffix).digest()[:core.REMAINDER_LEN])
            candidate = rest[:pick] + sub + rest[pick:]
            if all(0x20 <= b < 0x7F for b in candidate):
                plausible.append(candidate)
        assert plausible == [content[core.UNIT_LEN * unit:core.UNIT_LEN * (unit + 1)]]
        info["note"] = "1 of 65536 candidates is printable, and it is the original unit"


def test_one_raw_key_links_two_records_a_passphrase_does_not():
    """What the cloud alone learns about two records under one raw key: a
    unit's selector and keystream depend on the key, its picked bytes and
    its index, never on the record.  So units equal at the same index have
    equal public remainders, and where the picked sub-fragments match, the
    public remainders XOR to the plaintext remainders' XOR.  A passphrase
    key gets a fresh salt per record, and two such records share neither."""
    with criterion("one raw key links two records; passphrase salts do not") as info:
        rng = random.Random(0x11E5)
        units = 4096
        a = rng.randbytes(core.UNIT_LEN * units)
        b = bytearray(rng.randbytes(core.UNIT_LEN * units))
        key = ProtectionKey(rng.randbytes(16))
        picks = core.selector_stream(key, units)
        for i in range(units):
            # Even units are equal; odd units share only their picked sub-fragment.
            start, stop = core.UNIT_LEN * i, core.UNIT_LEN * (i + 1)
            if i % 2:
                start += core.SUB_LEN * picks[i]
                stop = start + core.SUB_LEN
            b[start:stop] = a[start:stop]

        def links(key_a, key_b) -> tuple[int, int]:
            """Equal units with equal public remainders, and picked-equal
            units whose public remainders XOR to the plaintext's XOR."""
            def cut(buf, size):
                return [buf[size * i:size * (i + 1)] for i in range(units)]

            public, plain = [], []
            for content, key_ in ((a, key_a), (bytes(b), key_b)):
                public.append(cut(core.protect(content, key_).puf_payload, core.REMAINDER_LEN))
                plain.append([unit[:core.SUB_LEN * s] + unit[core.SUB_LEN * (s + 1):]
                              for unit, s in zip(cut(content, core.UNIT_LEN), core.selector_stream(key_, units))])
            equal = sum(public[0][i] == public[1][i] for i in range(0, units, 2))
            xored = sum(_native._xor(public[0][i], public[1][i]) == _native._xor(plain[0][i], plain[1][i])
                        for i in range(1, units, 2))
            return equal, xored

        assert links(key, key) == (units // 2, units // 2)
        salted = [container.derive_key(b"correct horse", os.urandom(16)) for _ in range(2)]
        assert links(*salted) == (0, 0)
        info["note"] = f"one raw key: {units // 2} of {units // 2} units linked each way; two salts: 0 and 0"


def test_workload_accounting(sha256_calls):
    with criterion("exact primitive counts per aligned MiB") as info:
        for mib in (1, 2):
            key = ProtectionKey(bytes(16))
            sha256_calls.clear()
            streams = core.protect(bytes(mib * MIB), key)
            assert sha256_calls["protection"] == 32768 * mib
            assert sha256_calls["selector"] == 1024 * mib
            assert sha256_calls["digest"] == 1
            assert len(streams.prf_plain) - core.DIGEST_LEN == 131072 * mib
        info["note"] = "1 MiB -> 131072 selected bytes, 32768 + 1024 + 1 hashes"


def test_throughput_comparison():
    with criterion("selective path encrypts one eighth of the baseline bytes") as info:
        report = bench.run_bench(1, iterations=3)
        assert abs(report.aes_bytes_se - report.aes_bytes_baseline / 8) <= 48
        ratio = min(report.aes_baseline_elapsed) / min(report.se_elapsed)
        info["note"] = (
            f"ratio {ratio:.2f}x of the fastest runs (reported, not asserted); "
            f"aes bytes {report.aes_bytes_se} vs {report.aes_bytes_baseline}/8"
        )


def test_dispersion_rule(tmp_path):
    rng = random.Random(0x5EF6)
    with criterion("fragments never co-reside; loopback store round-trips") as info:
        start = time.perf_counter()
        data = rng.randbytes(256 * 1024 + 7)
        key = ProtectionKey(rng.randbytes(16))
        puf, prf = container.seal(data, key)

        index = PlacementIndex(tmp_path / "placements.jsonl")
        device = DirectoryBackend(tmp_path / "device", name="device")
        with pytest.raises(IntegrityFailure, match="must not share backend"):
            dispersion.disperse(puf.to_bytes(), prf.to_bytes(), device, device, index)
        with pytest.raises(IntegrityFailure, match="must not share backend"):
            dispersion.disperse(
                puf.to_bytes(), prf.to_bytes(), DirectoryBackend(tmp_path / "a", name="store"),
                DirectoryBackend(tmp_path / "b", name="store"), index,
            )

        with BlobServer("127.0.0.1", 0, tmp_path / "srv") as server:
            cloud = RemoteBackend(*server.server_address, name="cloud")
            placement = dispersion.disperse(puf.to_bytes(), prf.to_bytes(), device, cloud, index)

            got_puf = container.PufContainer.from_bytes(cloud.get(placement.puf_ref))
            got_prf = container.PrfContainer.from_bytes(device.get(placement.prf_ref))
            assert container.open(got_puf, got_prf, key) == data

            blob_path = next(p for p in (tmp_path / "srv").rglob("*") if p.is_file())
            raw = bytearray(blob_path.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            blob_path.write_bytes(bytes(raw))
            with pytest.raises(IntegrityFailure):
                cloud.get(placement.puf_ref)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        info["note"] = f"loopback round trip plus tamper detection in {elapsed:.1f}s"


def _cli(*argv, cwd):
    root = str(Path(sefrag.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "sefrag", *map(str, argv)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_sharing_semantics(tmp_path):
    key = "00112233445566778899aabbccddeeff"
    with criterion("deny-by-default sharing with grant and revoke") as info:
        rng = random.Random(0x5EF7)
        for name in ("a.bin", "b.bin"):
            (tmp_path / name).write_bytes(rng.randbytes(4096))

        records = {}
        for name in ("a", "b"):
            out = _cli(
                "protect", f"{name}.bin", "--key-hex", key, "--out-dir", "w", cwd=tmp_path
            )
            assert out.returncode == 0, out.stderr
            records[name] = out.stdout.strip()

        out = _cli("put", "w/a.puf", "w/a.prf", "--store", "store", cwd=tmp_path)
        assert out.returncode == 0, out.stderr

        def decision(party, *extra):
            out = _cli(
                "request", records["a"], "--as", party, "--store", "store", *extra,
                cwd=tmp_path,
            )
            assert out.returncode == 0, out.stderr
            return out.stdout.strip().splitlines()[0]

        assert decision("stranger") == "PufOnly"

        out = _cli("grant", records["a"], "stranger", "--as", "owner-1", "--store", "store", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert decision("stranger") == "Full"

        out = _cli("revoke", records["a"], "stranger", "--as", "owner-1", "--store", "store", cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert decision("stranger") == "PufOnly"

        # wiring one record's public fragment to another's private one is refused
        out = _cli(
            "recover", "w/a.puf", "w/b.prf", "--key-hex", key, "--out", "x.bin", cwd=tmp_path
        )
        assert out.returncode == 4, (out.returncode, out.stderr)
        assert "does not pair" in out.stderr
        assert not (tmp_path / "x.bin").exists()
        info["note"] = "PufOnly -> grant Full -> revoke PufOnly; pair mismatch exits 4"


def test_known_answer_vectors():
    # frozen values computed with coreutils sha256sum, independent of hashlib
    block0 = bytes.fromhex(
        "dc9d8ab62e3ad425a1c9b89d8128fb8cee8af0773663ebb326424ce040998639"
    )
    block1 = bytes.fromhex(
        "b6f0c4606f4e22fe9a13fcd953e6ca60c082270dadccf266ff8f29424e3f4d8b"
    )
    keystream0 = bytes.fromhex(
        "3addfb141cd7c9c4c6543a82191a3707ac29c7a041217782e61d4d91"
    )
    empty_digest = bytes.fromhex(
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    zero_key = ProtectionKey(bytes(16))
    with criterion("known-answer vectors for selector and keystream") as info:
        assert core.selector_stream(zero_key, 32) == bytes(b % 8 for b in block0)
        assert core.selector_stream(zero_key, 64)[32:] == bytes(b % 8 for b in block1)
        assert hashlib.sha256(bytes(4) + zero_key.bytes + bytes(8)).digest()[:28] == keystream0

        streams = core.protect(bytes(32), zero_key)
        assert core.selector_stream(zero_key, 1)[0] == 4
        assert streams.prf_plain[:4] == bytes(4)
        assert streams.puf_payload == keystream0

        assert core.protect(b"", zero_key).prf_plain == empty_digest
        info["note"] = "selector block, keystream, and empty digest match sha256sum"
