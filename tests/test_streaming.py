"""The streaming seal/open pass: on-disk bytes frozen across the rewrite,
peak memory that does not grow with the file, a failed recover that
leaves the output untouched, and the digest helper thread with the
writes it takes over."""

import collections
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest
from conftest import _package_env

from sefrag import _native, cli, container, core
from sefrag.container import atomic_write
from sefrag.core import CHUNK_UNITS, UNIT_LEN, ProtectionKey
from sefrag.errors import FormatError, IntegrityFailure

KEY = "000102030405060708090a0b0c0d0e0f"
PROTECTION_KEY = ProtectionKey.from_hex(KEY)
CHUNK = CHUNK_UNITS * UNIT_LEN

HEADS = {"raw": b"", "dicom": bytes(128) + b"DICM", "fixed:10": b"0123456789"}
LENGTHS = [0, 1, 31, 32, 33, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7, 3 * CHUNK + 5]

# SHA-256 prefixes of the .puf and .prf bytes of every (mode, content
# length) case, sealed with ``fake_urandom``; recorded before seal and
# open became one streaming pass, so any change to the format shows.  The
# three-chunk cases, which reach the digest helper thread, were recorded on
# the serial pass that came before it.
FROZEN = {
    ("raw", 0): ("8d78ecfaf88f8d0a", "49ac2cd4c67f611d"),
    ("raw", 1): ("51ec6fac30492285", "333af9121773b567"),
    ("raw", 31): ("ca67495be73a9435", "a96ecec77741f8b9"),
    ("raw", 32): ("2a91100c7d22b7ab", "d72dc50333ee4554"),
    ("raw", 33): ("aec09395e9fe3fd0", "a08f179a5942c2ea"),
    ("raw", 131071): ("7745f57fc5318352", "581084b36febc901"),
    ("raw", 131072): ("06cda9a4fd4ae1cb", "5f96e7eed44bd706"),
    ("raw", 131073): ("18d97ee5587ac5ed", "911fcefad30386dc"),
    ("raw", 262151): ("592ecf13696d0c40", "7d0cae040ea1b5cc"),
    ("raw", 393221): ("6b4fd6644f28aa58", "a5b7079a29a11195"),
    ("dicom", 0): ("abbaf64eb0dad450", "49ac2cd4c67f611d"),
    ("dicom", 1): ("6cb5b813a309b001", "333af9121773b567"),
    ("dicom", 31): ("87356688508bedef", "a96ecec77741f8b9"),
    ("dicom", 32): ("a8f63e18eccdb305", "d72dc50333ee4554"),
    ("dicom", 33): ("176fd6ae9bd8c2fa", "a08f179a5942c2ea"),
    ("dicom", 131071): ("657fd02c01599ae8", "581084b36febc901"),
    ("dicom", 131072): ("b4e76abc6cbe6168", "5f96e7eed44bd706"),
    ("dicom", 131073): ("1c79d61c8a9049a6", "911fcefad30386dc"),
    ("dicom", 262151): ("813420f7c3bf65fe", "7d0cae040ea1b5cc"),
    ("dicom", 393221): ("46eee584b63eba43", "a5b7079a29a11195"),
    ("fixed:10", 0): ("5062d8e003d43fb7", "49ac2cd4c67f611d"),
    ("fixed:10", 1): ("97eb02fb6330fb22", "333af9121773b567"),
    ("fixed:10", 31): ("f065509769f62094", "a96ecec77741f8b9"),
    ("fixed:10", 32): ("5cc5b3999b37359b", "d72dc50333ee4554"),
    ("fixed:10", 33): ("659a660a4efa81f9", "a08f179a5942c2ea"),
    ("fixed:10", 131071): ("44292be4c8359fa5", "581084b36febc901"),
    ("fixed:10", 131072): ("c9114fea90f48657", "5f96e7eed44bd706"),
    ("fixed:10", 131073): ("6b0e04652cabd855", "911fcefad30386dc"),
    ("fixed:10", 262151): ("5c0c23855053084a", "7d0cae040ea1b5cc"),
    ("fixed:10", 393221): ("fddd7d61d9663fad", "a5b7079a29a11195"),
}


def fake_urandom():
    """A deterministic ``os.urandom``: the k-th draw of n bytes is the same
    in every run, whatever other draws come in between (the file id is the
    first 16-byte draw, the IV the second)."""
    drawn = collections.Counter()

    def urandom(n: int) -> bytes:
        drawn[n] += 1
        return hashlib.sha256(b"%d:%d" % (n, drawn[n])).digest()[:n]

    return urandom


def case_input(mode: str, length: int) -> bytes:
    return HEADS[mode] + hashlib.shake_256(b"frozen %d" % length).digest(length)


def digests(puf: bytes, prf: bytes) -> tuple[str, str]:
    return hashlib.sha256(puf).hexdigest()[:16], hashlib.sha256(prf).hexdigest()[:16]


CASES = [(mode, length) for mode in HEADS for length in LENGTHS]

# Seals each case through ``python -m sefrag protect`` with os.urandom
# replaced, one case after another in this one interpreter.
CLI_CHILD = """
import json, os, runpy, sys

sys.path.insert(0, sys.argv[1])
from test_streaming import fake_urandom

for argv in json.loads(sys.argv[2]):
    os.urandom = fake_urandom()
    sys.argv = ["sefrag", *argv]
    try:
        runpy.run_module("sefrag", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
"""


class TestFrozenBytes:
    @pytest.mark.parametrize("mode,length", CASES)
    def test_seal_bytes_are_frozen(self, mode, length, monkeypatch, each_kernel_path):
        for path, *_ in each_kernel_path():
            monkeypatch.setattr(container.os, "urandom", fake_urandom())
            puf, prf = container.seal(case_input(mode, length), ProtectionKey.from_hex(KEY), mode=mode)
            assert digests(puf.to_bytes(), prf.to_bytes()) == FROZEN[mode, length], path

    def test_protect_command_bytes_are_frozen(self, tmp_path):
        argvs = []
        for mode, length in CASES:
            src = tmp_path / f"{mode.replace(':', '')}-{length}.bin"
            src.write_bytes(case_input(mode, length))
            argvs.append(["protect", str(src), "--mode", mode, "--key-hex", KEY, "--out-dir", str(tmp_path / "out")])
        tests_dir = str(Path(__file__).parent)
        proc = subprocess.run([sys.executable, "-c", CLI_CHILD, tests_dir, json.dumps(argvs)], cwd=tmp_path,
                              env=_package_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for mode, length in CASES:
            stem = tmp_path / "out" / f"{mode.replace(':', '')}-{length}"
            got = digests(stem.with_suffix(".puf").read_bytes(), stem.with_suffix(".prf").read_bytes())
            assert got == FROZEN[mode, length], (mode, length)


# Runs argv in a child and prints its exit code and peak RSS. A process's
# ru_maxrss starts from the peak RSS of the process it was forked from,
# so this small interpreter, not the test runner, starts the one measured.
MEASURE = """
import os, subprocess, sys

proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mib(argv, cwd: Path) -> float:
    """Run ``python -m sefrag argv``; returns the child's own peak RSS."""
    proc = subprocess.run([sys.executable, "-c", MEASURE, sys.executable, "-m", "sefrag", *map(str, argv)],
                          cwd=cwd, env=_package_env(), capture_output=True, text=True, timeout=300)
    code, kib = proc.stdout.split()
    assert code == "0", argv
    return int(kib) / 1024  # KiB on Linux


def _sha256_file(path: Path) -> bytes:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.digest()


class TestBoundedMemory:
    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_peak_rss_does_not_grow_with_file_size(self, tmp_path):
        peaks = {}
        for mib in (8, 64):
            src = tmp_path / "scan.bin"
            with src.open("wb") as f:
                for _ in range(mib):
                    f.write(os.urandom(1 << 20))
                f.write(b"7 bytes")
            vault, back = tmp_path / "vault", tmp_path / "back.bin"
            protect = _peak_rss_mib(["protect", src, "--key-hex", KEY, "--out-dir", vault], tmp_path)
            recover = _peak_rss_mib(["recover", vault / "scan.puf", vault / "scan.prf", "--key-hex", KEY,
                                     "--out", back], tmp_path)
            assert _sha256_file(back) == _sha256_file(src)
            peaks[mib] = protect, recover
        (protect8, recover8), (protect64, recover64) = peaks[8], peaks[64]
        assert protect64 - protect8 < 16, peaks
        assert recover64 - recover8 < 16, peaks


    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_commands_on_sealed_pairs_hold_each_container_about_once(self, tmp_path, capsys):
        # put, entropy and an anonymized request pass sealed containers
        # through as bytes: between 8 and 32 MiB their peak grows by about
        # the bytes they hold, not by a second or third copy.
        head = 64
        peaks, sizes = {}, {}
        for mib in (8, 32):
            src, vault, store = tmp_path / f"scan{mib}.bin", tmp_path / f"vault{mib}", tmp_path / f"store{mib}"
            with src.open("wb") as f:
                for _ in range(mib):
                    f.write(os.urandom(1 << 20))
                f.write(os.urandom(head) + b"7 bytes")
            capsys.readouterr()
            assert cli.main(["protect", str(src), "--mode", f"fixed:{head}", "--key-hex", KEY,
                             "--out-dir", str(vault)]) == 0
            record = capsys.readouterr().out.strip()
            puf, prf = vault / f"scan{mib}.puf", vault / f"scan{mib}.prf"
            pair = puf.stat().st_size + prf.stat().st_size
            payload = puf.stat().st_size - container._PUF_HEADER.size - head
            out = tmp_path / f"out{mib}"
            peaks[mib] = (
                _peak_rss_mib(["put", puf, prf, "--store", store], tmp_path),
                _peak_rss_mib(["entropy", puf], tmp_path),
                _peak_rss_mib(["request", record, "--as", "alice", "--role", "owner", "--store", store,
                               "--out-dir", out, "--anonymize"], tmp_path),
            )
            sizes[mib] = pair / (1 << 20), payload / (1 << 20)
            released = out / f"{record}.puf"
            assert released.stat().st_size == puf.stat().st_size - head
            assert (out / f"{record}.prf").read_bytes() == prf.read_bytes()
            back = tmp_path / f"back{mib}.bin"
            assert cli.main(["recover", str(released), str(out / f"{record}.prf"), "--key-hex", KEY,
                             "--out", str(back)]) == 0
            with src.open("rb") as f:
                f.seek(head)
                assert _sha256_file(back) == hashlib.sha256(f.read()).digest()
        pair_growth, payload_growth = (b - a for a, b in zip(sizes[8], sizes[32]))
        (put8, entropy8, request8), (put32, entropy32, request32) = peaks[8], peaks[32]
        assert put32 - put8 <= 1.5 * pair_growth, (peaks, sizes)
        assert entropy32 - entropy8 <= 1.5 * payload_growth, (peaks, sizes)
        assert request32 - request8 <= 2 * pair_growth, (peaks, sizes)


class TestFailedRecover:
    def test_flipped_byte_in_last_chunk_keeps_existing_output(self, tmp_path, capsys):
        src = tmp_path / "scan.bin"
        src.write_bytes(hashlib.shake_256(b"scan").digest(3 * CHUNK + 7))
        vault = tmp_path / "vault"
        assert cli.main(["protect", str(src), "--key-hex", KEY, "--out-dir", str(vault)]) == 0
        puf = vault / "scan.puf"
        raw = bytearray(puf.read_bytes())
        raw[-1] ^= 0x01  # the last public byte, in the last chunk
        puf.write_bytes(raw)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "back.bin"
        out.write_bytes(b"an earlier recovery")
        capsys.readouterr()
        code = cli.main(["recover", str(puf), str(vault / "scan.prf"), "--key-hex", KEY, "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b"an earlier recovery"
        assert os.listdir(out_dir) == ["back.bin"]


class TestShrinkingInput:
    def test_input_truncated_mid_protect_leaves_no_output(self, tmp_path):
        src = tmp_path / "scan.bin"
        src.write_bytes(hashlib.shake_256(b"scan").digest(3 * CHUNK + 7))
        vault = tmp_path / "vault"
        key = ProtectionKey(bytes.fromhex(KEY))
        with src.open("rb") as f:
            # The size is read before sealing starts; the content after.
            _, seal = container.seal_stream(f, lambda _salt: key)
            os.truncate(src, CHUNK + 5)
            with pytest.raises(FormatError, match=f"^input ended {CHUNK - 5} bytes early$"):
                # As ``sefrag protect`` writes the pair.
                with atomic_write(vault / "scan.puf") as puf, atomic_write(vault / "scan.prf") as prf:
                    seal(puf, prf)
        assert os.listdir(vault) == []


# The shortest pass that hashes its digest on a helper thread: three chunks.
THREADED = 3 * CHUNK + 5
ONE_CPU = len(os.sched_getaffinity(0)) < 2

# Holds itself to one CPU, then runs a three-chunk pass and prints how many
# threads were started and how many run.
ONE_CPU_CHILD = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from sefrag import core
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))[1]
content = os.urandom(%d)
key = core.ProtectionKey.random()
streams = core.protect(content, key)
assert core.recover(*streams, key) == content
print(len(started), threading.active_count())
""" % THREADED


def _threads_and_affinity():
    return threading.active_count(), os.sched_getaffinity(0)


class Boom(Exception):
    pass


class TestDigestHelper:
    @pytest.mark.skipif(ONE_CPU, reason="this process may run on one CPU only, so no helper starts")
    def test_helper_runs_off_the_callers_cpu(self, monkeypatch):
        # Record the CPU the pass found its caller on, then look at the
        # helper's own affinity while the pass is under way.
        seen = []
        sched_getcpu = _native._sched_getcpu()
        monkeypatch.setattr(_native, "_sched_getcpu", lambda: lambda: seen.append(sched_getcpu()) or seen[-1])
        content, key = os.urandom(THREADED), ProtectionKey.random()
        before, helpers = set(threading.enumerate()), []

        def write_private(_piece):  # on the caller, while the helper runs
            if not helpers:
                (helper,) = set(threading.enumerate()) - before
                helpers.append((helper, os.sched_getaffinity(helper.native_id)))

        core.protect_chunks(io.BytesIO(content).read, len(content), key, len, write_private)
        ((helper, affinity),) = helpers
        (caller,) = seen
        allowed = os.sched_getaffinity(0)
        assert caller in allowed
        assert affinity == allowed - {caller}
        assert not helper.is_alive()

    @pytest.mark.parametrize("how", ["completed", "interrupted", "read_raises", "integrity_failure"])
    def test_pass_leaves_threads_and_affinity_as_it_found_them(self, how):
        start = _threads_and_affinity()
        content, key = os.urandom(THREADED), ProtectionKey.random()
        if how == "completed":
            streams = core.protect(content, key)
            assert core.recover(*streams, key) == content
        elif how == "interrupted":
            # A Ctrl-C in the first write: protect's private stream is
            # written on the caller, recover's content on the helper
            # where one runs.
            def interrupt(_piece):
                raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                core.protect_chunks(io.BytesIO(content).read, len(content), key, len, interrupt)
            streams = core.protect(content, key)
            with pytest.raises(KeyboardInterrupt):
                core.recover_chunks(io.BytesIO(streams.puf_payload).read, io.BytesIO(streams.prf_plain).read,
                                    len(content), key, interrupt)
        elif how == "read_raises":
            src = io.BytesIO(content)

            def read(n):
                if src.tell() >= CHUNK:
                    raise OSError("the disk went away")
                return src.read(n)

            with pytest.raises(OSError, match="the disk went away"):
                core.protect_chunks(read, len(content), key, len, len)
        else:
            puf, prf = container.seal(content, key)
            raw = bytearray(puf.to_bytes())
            raw[-1] ^= 0x01  # a public byte of the last chunk
            with pytest.raises(IntegrityFailure, match="content digest mismatch"):
                container.open(container.PufContainer.from_bytes(bytes(raw)), prf, key)
        assert _threads_and_affinity() == start

    def test_helper_exception_is_raised_in_the_caller(self, monkeypatch):
        # The content digest, the one SHA-256 made empty, fails its second
        # update: on the helper where one runs.
        raisers = []

        class Digest:
            def __init__(self):
                self.updates = 0

            def update(self, data):
                self.updates += 1
                if self.updates == 2:
                    raisers.append(threading.current_thread())
                    raise Boom("digest failed")

        def sha256(data=b""):
            return hashlib.sha256(data) if data else Digest()

        monkeypatch.setattr(core, "hashlib", types.SimpleNamespace(sha256=sha256))
        start = _threads_and_affinity()
        content = os.urandom(THREADED)
        with pytest.raises(Boom, match="digest failed"):
            core.protect_chunks(io.BytesIO(content).read, len(content), ProtectionKey.random(), len, len)
        assert _threads_and_affinity() == start
        assert (raisers[0] is threading.current_thread()) == ONE_CPU

    def test_concurrent_passes_under_fast_thread_switching(self):
        # More callers than CPUs, each pass with its own helper, and the
        # interpreter switching threads every microsecond: a chunk lost or
        # hashed twice in a hand-over would break a digest.
        done, interval = [], sys.getswitchinterval()

        def caller(seed):
            for n in range(3):
                content = hashlib.shake_256(b"%d %d" % (seed, n)).digest(THREADED)
                key = ProtectionKey(hashlib.sha256(content).digest()[:16])
                streams = core.protect(content, key)
                assert streams.prf_plain[-32:] == hashlib.sha256(content).digest()
                assert core.recover(*streams, key) == content
                done.append(seed)

        callers = [threading.Thread(target=caller, args=(seed,)) for seed in range(len(os.sched_getaffinity(0)) + 2)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert sorted(done) == sorted(3 * list(range(len(callers))))

    def test_child_held_to_one_cpu_starts_no_thread(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", ONE_CPU_CHILD], cwd=tmp_path, env=_package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]


class Recorder:
    """Writers that log each piece with its stream and the name of the
    thread that wrote it, in the order written; the write of piece
    ``fail_at`` (from 0) of stream ``fail_on`` is logged, then raises
    ``error``."""

    def __init__(self, fail_on: str | None = None, fail_at: int = 0):
        self.log, self.fail_on, self.fail_at = [], fail_on, fail_at
        self.error = OSError(28, "No space left on device")

    def writer(self, stream: str):
        def write(piece):
            index = sum(entry[0] == stream for entry in self.log)  # one thread writes each stream
            self.log.append((stream, threading.current_thread().name, bytes(piece)))
            if (stream, index) == (self.fail_on, self.fail_at):
                raise self.error

        return write

    def stream(self, name: str) -> list[tuple[str, bytes]]:
        return [(thread, piece) for stream, thread, piece in self.log if stream == name]


def _seal(data: bytes, recorder: Recorder, mode: str = "raw") -> None:
    _, seal = container.seal_stream(io.BytesIO(data), lambda _salt: PROTECTION_KEY, mode)
    seal(recorder.writer("puf"), recorder.writer("prf"))


def _open(puf: bytes, prf: bytes, recorder: Recorder) -> None:
    container.open_stream(io.BytesIO(puf), io.BytesIO(prf), lambda _salt: PROTECTION_KEY)(recorder.writer("out"))


def _sealed_pair(data: bytes, mode: str = "raw") -> tuple[bytes, bytes]:
    puf, prf = container.seal(data, PROTECTION_KEY, mode=mode)
    return puf.to_bytes(), prf.to_bytes()


def _helpers_alive() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread.name == "sefrag-digest"]


class TestWritesOnTheHelper:
    """Where a pass starts its digest helper, the helper also writes the
    large stream, chunk by chunk after hashing it: the ``.puf`` payload on
    seal, the content on open.  The caller writes everything else."""

    @pytest.mark.skipif(ONE_CPU, reason="this process may run on one CPU only, so no helper starts")
    def test_seal_writes_the_payload_on_the_helper_after_both_headers(self, monkeypatch):
        monkeypatch.setattr(container.os, "urandom", fake_urandom())
        recorder, caller = Recorder(), threading.current_thread().name
        _seal(case_input("dicom", THREADED), recorder, "dicom")
        puf, prf = recorder.stream("puf"), recorder.stream("prf")
        assert [thread for thread, _ in puf] == [caller] + 3 * ["sefrag-digest"]
        assert {thread for thread, _ in prf} == {caller}
        assert len(puf[0][1]) == container._PUF_HEADER.size + len(HEADS["dicom"])
        # Both headers, the .puf's with its head, are written before any chunk.
        assert [(stream, thread) for stream, thread, _ in recorder.log[:2]] == [("puf", caller), ("prf", caller)]
        got = digests(b"".join(piece for _, piece in puf), b"".join(piece for _, piece in prf))
        assert got == FROZEN["dicom", THREADED]

    @pytest.mark.skipif(ONE_CPU, reason="this process may run on one CPU only, so no helper starts")
    def test_open_writes_the_content_on_the_helper_between_head_and_tail(self):
        data = case_input("dicom", THREADED)
        puf, prf = _sealed_pair(data, "dicom")
        recorder, caller = Recorder(), threading.current_thread().name
        _open(puf, prf, recorder)
        out = recorder.stream("out")
        assert [thread for thread, _ in out] == [caller] + 3 * ["sefrag-digest"] + [caller]
        assert [len(piece) for _, piece in out] == [len(HEADS["dicom"]), CHUNK, CHUNK, CHUNK, THREADED % UNIT_LEN]
        assert b"".join(piece for _, piece in out) == data

    @pytest.mark.parametrize("how", ["two_chunks", "one_cpu"])
    def test_short_or_one_cpu_pass_writes_everything_on_the_caller(self, how, monkeypatch):
        length = 2 * CHUNK + 7 if how == "two_chunks" else THREADED
        if how == "one_cpu":
            monkeypatch.setattr(_native, "other_cpus", set)  # what a process held to one CPU sees
        data = case_input("raw", length)
        recorder, caller = Recorder(), threading.current_thread().name
        _seal(data, recorder)
        puf = b"".join(piece for _, piece in recorder.stream("puf"))
        prf = b"".join(piece for _, piece in recorder.stream("prf"))
        _open(puf, prf, recorder)
        assert {thread for _, thread, _ in recorder.log} == {caller}
        assert len(recorder.stream("puf")) == 1 + length // CHUNK  # the header, then one piece per chunk
        assert b"".join(piece for _, piece in recorder.stream("out")) == data

    @pytest.mark.parametrize("on", ["helper", "caller"])
    @pytest.mark.parametrize("chunk", [0, 1, 2])
    @pytest.mark.parametrize("command", ["seal", "open"])
    def test_a_failed_write_is_raised_in_the_caller_and_ends_the_pass(self, command, chunk, on, monkeypatch):
        if on == "caller":
            monkeypatch.setattr(_native, "other_cpus", set)
        elif ONE_CPU:
            pytest.skip("this process may run on one CPU only, so no helper starts")
        data = case_input("raw", THREADED)
        large = "puf" if command == "seal" else "out"
        # The large stream's first piece is the .puf header, or the (empty) head.
        recorder = Recorder(fail_on=large, fail_at=1 + chunk)
        with pytest.raises(OSError) as raised:
            if command == "seal":
                _seal(data, recorder)
            else:
                _open(*_sealed_pair(data), recorder)
        assert raised.value is recorder.error
        assert not _helpers_alive()
        written = recorder.stream(large)
        assert len(written) == 2 + chunk  # nothing after the failed piece
        assert written[-1][0] == ("sefrag-digest" if on == "helper" else threading.current_thread().name)
        if command == "open" or on == "caller":
            # One thread wrote everything, so the failed piece was the last write of all.
            assert recorder.log[-1][0] == large
        else:
            # The caller may finish the private piece of the chunk it had
            # under way, never one past it, nor the digest and padding.
            assert len(recorder.stream("prf")) <= 1 + chunk + 1

    @pytest.mark.parametrize("command,thread,nth", [
        ("protect", "sefrag-digest", 2), ("protect", "caller", 3),
        ("recover", "sefrag-digest", 2), ("recover", "caller", 2),
    ], ids=["protect-helper", "protect-caller", "recover-helper", "recover-caller"])
    def test_cli_failed_write_leaves_no_file_and_exits_2(self, command, thread, nth, tmp_path, monkeypatch, capsys):
        if thread == "sefrag-digest" and ONE_CPU:
            pytest.skip("this process may run on one CPU only, so no helper starts")
        thread = threading.current_thread().name if thread == "caller" else thread
        src = tmp_path / "scan.bin"
        src.write_bytes(case_input("dicom", THREADED))
        vault, out_dir = tmp_path / "vault", tmp_path / "out"
        assert cli.main(["protect", str(src), "--mode", "dicom", "--key-hex", KEY, "--out-dir", str(vault)]) == 0
        out_dir.mkdir()
        capsys.readouterr()
        # The nth os.write on the named thread fails, as on a full disk:
        # protect's caller writes both headers first, recover's its head.
        write, counts, failed = os.write, collections.Counter(), []

        def failing_write(fd, data):
            name = threading.current_thread().name
            counts[name] += 1
            if (name, counts[name]) == (thread, nth):
                failed.append(name)
                raise OSError(28, "No space left on device")
            return write(fd, data)

        monkeypatch.setattr(os, "write", failing_write)
        if command == "protect":
            code = cli.main(["protect", str(src), "--mode", "dicom", "--key-hex", KEY, "--out-dir", str(out_dir)])
        else:
            code = cli.main(["recover", str(vault / "scan.puf"), str(vault / "scan.prf"), "--key-hex", KEY,
                             "--out", str(out_dir / "back.bin")])
        monkeypatch.undo()
        assert failed == [thread]
        assert code == 2
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert os.listdir(out_dir) == []
        assert not _helpers_alive()
