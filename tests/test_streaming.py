"""The streaming seal/open pass: on-disk bytes frozen across the rewrite,
peak memory that does not grow with the file, a failed recover that
leaves the output untouched, the native file pass against the Python
chunk loop byte for byte, its second worker, and how either fails."""

import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import _package_env
from test_cli import run_with_file_size_limit

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
# three-chunk cases, which start a file pass's second worker, were recorded
# on a serial pass, before passes ran on two threads.
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


# The shortest pass that runs a second worker: three chunks.
THREADED = 3 * CHUNK + 5
# A pass long enough, about 10 ms, for a poller to see its second worker.
LONG = 8 * (1 << 20) + 7
ONE_CPU = len(os.sched_getaffinity(0)) < 2
# Byte-identity lengths: around a unit, a chunk and three chunks, and LONG.
IDENTITY_LENGTHS = [0, 31, 32, 33, CHUNK - 1, CHUNK + 1, 3 * CHUNK - 7, 3 * CHUNK - 1, 3 * CHUNK + 1,
                    3 * CHUNK + 7, LONG]


@pytest.fixture
def native():
    """The loaded kernel, where it is the native one, which alone runs file passes."""
    kernel = _native.load()
    if not isinstance(kernel, _native.Kernel):
        pytest.skip(f"native kernel unavailable: {kernel.name}")
    return kernel


def seal_file(src: Path, vault: Path, key: ProtectionKey = PROTECTION_KEY, mode: str = "raw") -> None:
    """Seal ``src`` into ``vault`` as ``sefrag protect`` does: from a file,
    through ``atomic_write``, so a native kernel runs its file pass."""
    with src.open("rb") as f:
        _, seal = container.seal_stream(f, lambda _salt: key, mode)
        with atomic_write(vault / f"{src.stem}.puf") as puf, atomic_write(vault / f"{src.stem}.prf") as prf:
            seal(puf, prf)


def open_file(puf: Path, prf: Path, out: Path, key: ProtectionKey = PROTECTION_KEY) -> None:
    """Open a pair into ``out`` as ``sefrag recover`` does."""
    with puf.open("rb") as p, prf.open("rb") as q:
        recover = container.open_stream(p, q, lambda _salt: key)
        with atomic_write(out) as write:
            recover(write)


def pass_threads() -> dict[int, set[int]]:
    """The id and affinity of each thread of this process named ``sefrag-pass`` now."""
    found = {}
    for tid in os.listdir("/proc/self/task"):
        with contextlib.suppress(OSError):  # a thread that has just ended
            if Path(f"/proc/self/task/{tid}/comm").read_text() == "sefrag-pass\n":
                found[int(tid)] = os.sched_getaffinity(int(tid))
    return found


def last_cpu(tid: int) -> int:
    """The CPU thread ``tid`` of this process runs on, or last ran on:
    field 39 (processor) of its ``stat``."""
    return int(Path(f"/proc/self/task/{tid}/stat").read_text().rsplit(")", 1)[1].split()[36])


@contextlib.contextmanager
def polling(sample):
    """Calls ``sample()`` from a thread of its own every few tens of
    microseconds while the block runs."""
    done = threading.Event()

    def watch():
        while not done.wait(2e-5):
            sample()

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        yield
    finally:
        done.set()
        watcher.join()


@contextlib.contextmanager
def watching_pass_threads():
    """Yields a dict that gathers ``pass_threads()`` from a thread polling
    while the block runs."""
    seen = {}
    with polling(lambda: seen.update(pass_threads())):
        yield seen


def _threads_and_affinity():
    return len(os.listdir("/proc/self/task")), os.sched_getaffinity(0)


@contextlib.contextmanager
def held_to_one_cpu():
    """This thread held to one CPU, as in a process that may use one only,
    so a pass it runs finds no CPU for a second worker."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})  # this thread's alone
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class TestFilePass:
    """The native kernel's ``seal_pass`` and ``open_pass``, which run where
    the input and the writers have descriptors, against the Python chunk
    loop of ``core``, which runs on bytes in memory."""

    @pytest.mark.parametrize("mode,length", CASES)
    def test_file_seal_bytes_are_frozen(self, mode, length, tmp_path, monkeypatch, each_kernel_path):
        src = tmp_path / "case.bin"
        src.write_bytes(case_input(mode, length))
        for path, *_ in each_kernel_path():
            monkeypatch.setattr(container.os, "urandom", fake_urandom())
            seal_file(src, tmp_path / path, mode=mode)
            got = digests((tmp_path / path / "case.puf").read_bytes(), (tmp_path / path / "case.prf").read_bytes())
            assert got == FROZEN[mode, length], path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_file_pass_matches_the_python_loop_byte_for_byte(self, workers, native, tmp_path, monkeypatch):
        if workers == 2 and ONE_CPU:
            pytest.skip("this process may run on one CPU only, so no second worker starts")
        salt = bytes(range(16))
        for length in IDENTITY_LENGTHS:
            data = hashlib.shake_256(b"identity %d" % length).digest(length)
            src, vault = tmp_path / f"{length}.bin", tmp_path / f"vault-{length}"
            src.write_bytes(data)
            # The reference: the Python loop, over the same bytes in memory.
            monkeypatch.setattr(container.os, "urandom", fake_urandom())
            _, seal = container.seal_stream(io.BytesIO(data), lambda _salt: PROTECTION_KEY, kdf_salt=salt)
            puf, prf = [], []
            seal(puf.append, prf.append)
            monkeypatch.setattr(container.os, "urandom", fake_urandom())
            with held_to_one_cpu() if workers == 1 else contextlib.nullcontext(), watching_pass_threads() as seen:
                with src.open("rb") as f:
                    _, seal = container.seal_stream(f, lambda _salt: PROTECTION_KEY, kdf_salt=salt)
                    with atomic_write(vault / "out.puf") as write_puf, atomic_write(vault / "out.prf") as write_prf:
                        seal(write_puf, write_prf)
                open_file(vault / "out.puf", vault / "out.prf", vault / "back.bin")
            assert (vault / "out.puf").read_bytes() == b"".join(puf), length
            assert (vault / "out.prf").read_bytes() == b"".join(prf), length
            assert (vault / "back.bin").read_bytes() == data, length
            if workers == 1 or length == LONG:
                assert len(seen) == 2 * (workers - 1), length  # one in the seal, one in the open

    def test_a_short_read_fails_on_the_first_chunk_it_reaches(self, native, tmp_path):
        # Both workers read past the cut; the pass reports the first chunk
        # that came short, as a serial pass would, whichever worker had it.
        src = tmp_path / "scan.bin"
        src.write_bytes(hashlib.shake_256(b"scan").digest(LONG))
        for chunk in (0, 1, 2, 33, 63):
            vault = tmp_path / f"vault-{chunk}"
            with src.open("rb") as f:
                _, seal = container.seal_stream(f, lambda _salt: PROTECTION_KEY)
                os.truncate(src, chunk * CHUNK + 5)
                with pytest.raises(FormatError, match=f"^input ended {CHUNK - 5} bytes early$"):
                    with atomic_write(vault / "scan.puf") as puf, atomic_write(vault / "scan.prf") as prf:
                        seal(puf, prf)
            assert os.listdir(vault) == []
            src.write_bytes(hashlib.shake_256(b"scan").digest(LONG))

    def test_a_public_fragment_cut_mid_open_leaves_no_output(self, native, tmp_path):
        src, vault = tmp_path / "scan.bin", tmp_path / "vault"
        src.write_bytes(hashlib.shake_256(b"scan").digest(LONG))
        seal_file(src, vault)
        puf = vault / "scan.puf"
        payload = puf.stat().st_size - container._PUF_HEADER.size
        with puf.open("rb") as p, (vault / "scan.prf").open("rb") as q:
            recover = container.open_stream(p, q, lambda _salt: PROTECTION_KEY)
            os.truncate(puf, container._PUF_HEADER.size + 40 * core.REMAINDER_LEN * CHUNK_UNITS + 3)
            with pytest.raises(FormatError, match=f"^input ended {core.REMAINDER_LEN * CHUNK_UNITS - 3} bytes early$"):
                with atomic_write(tmp_path / "out" / "back.bin") as write:
                    recover(write)
        assert payload > 40 * core.REMAINDER_LEN * CHUNK_UNITS
        assert os.listdir(tmp_path / "out") == []


class ReadOnlyWriter:
    """A writer that drops what Python writes through it and names a
    descriptor open for reading only, so each write of a file pass fails."""

    def __init__(self, path: Path):
        path.write_bytes(b"")
        self.fd = os.open(path, os.O_RDONLY)

    def __call__(self, data: bytes) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


class TestPassWorkers:
    """The second worker of a file pass of three chunks or more: a thread
    named ``sefrag-pass``, pinned off the caller's CPU, counted in what
    ``seal`` returns, and gone when the pass returns or raises."""

    @pytest.mark.skipif(ONE_CPU, reason="this process may run on one CPU only, so no second worker starts")
    def test_second_worker_runs_off_the_callers_cpu(self, native, tmp_path):
        # While the worker runs, sample its affinity and the CPU the caller
        # is on, as /proc records them.  The scheduler may move the caller
        # during a pass; such a pass shows the caller on two CPUs and tells
        # nothing of the one the worker was pinned off, so it is run again,
        # up to five times, for a pass whose caller stayed on one CPU.
        caller, allowed = threading.get_native_id(), os.sched_getaffinity(0)
        src = tmp_path / "scan.bin"
        src.write_bytes(os.urandom(LONG))
        for attempt in range(5):
            seen, caller_cpus = {}, set()

            def sample():
                workers = pass_threads()
                if workers:
                    caller_cpus.add(last_cpu(caller))
                    seen.update(workers)

            with polling(sample):
                seal_file(src, tmp_path / f"vault-{attempt}")
            if len(caller_cpus) == 1:
                break
        else:
            pytest.fail(f"no pass of five showed its caller on one CPU while its worker ran: {caller_cpus}")
        ((worker, affinity),) = seen.items()
        (cpu,) = caller_cpus
        assert cpu in allowed
        assert affinity == allowed - {cpu}
        assert worker != caller and not pass_threads()

    @pytest.mark.parametrize("case", ["two_chunks", "two_chunks_and_a_unit", "in_memory", "one_cpu"])
    def test_seal_returns_the_workers_its_pass_ran_on(self, case, tmp_path):
        # Two chunks do not repay a thread; one unit more does, where the
        # caller may use a second CPU and the kernel is native.  What seal
        # returns must agree with what a poller of /proc sees: a worker
        # that lives for one chunk may slip between its samples, so a pass
        # reported on two workers runs again, up to five times, until one
        # is seen.
        length = 2 * CHUNK if case == "two_chunks" else 2 * CHUNK + UNIT_LEN
        data = os.urandom(length)
        (tmp_path / "in.bin").write_bytes(data)
        two = case == "two_chunks_and_a_unit" and isinstance(core._kernel(), _native.Kernel) and not ONE_CPU
        for attempt in range(5):
            vault = tmp_path / f"vault-{attempt}"
            with held_to_one_cpu() if case == "one_cpu" else contextlib.nullcontext(), watching_pass_threads() as seen:
                with io.BytesIO(data) if case == "in_memory" else (tmp_path / "in.bin").open("rb") as f:
                    _, seal = container.seal_stream(f, lambda _salt: PROTECTION_KEY)
                    with atomic_write(vault / "in.puf") as write_puf, atomic_write(vault / "in.prf") as write_prf:
                        workers = seal(write_puf, write_prf)
            assert workers == (2 if two else 1), attempt
            if len(seen) == workers - 1:
                break
            assert workers == 2 and not seen, (attempt, seen)
        else:
            pytest.fail("seal reported a second worker that no poll of five passes saw")
        open_file(vault / "in.puf", vault / "in.prf", vault / "back.bin")
        assert (vault / "back.bin").read_bytes() == data

    @pytest.mark.parametrize("how", ["completed", "short_read", "failed_write", "integrity_failure", "wrong_key"])
    def test_pass_leaves_threads_and_affinity_as_it_found_them(self, how, native, tmp_path):
        src, vault = tmp_path / "scan.bin", tmp_path / "vault"
        src.write_bytes(os.urandom(LONG))
        seal_file(src, vault)
        puf, prf = vault / "scan.puf", vault / "scan.prf"
        start = _threads_and_affinity()
        if how == "completed":
            seal_file(src, tmp_path / "again")
            open_file(puf, prf, tmp_path / "back.bin")
            assert (tmp_path / "back.bin").read_bytes() == src.read_bytes()
        elif how == "short_read":
            with src.open("rb") as f:
                _, seal = container.seal_stream(f, lambda _salt: PROTECTION_KEY)
                os.truncate(src, CHUNK)
                with pytest.raises(FormatError, match=f"^input ended {CHUNK} bytes early$"):
                    with atomic_write(tmp_path / "p") as write_puf, atomic_write(tmp_path / "q") as write_prf:
                        seal(write_puf, write_prf)
        elif how == "failed_write":
            writers = ReadOnlyWriter(tmp_path / "p"), ReadOnlyWriter(tmp_path / "q"), ReadOnlyWriter(tmp_path / "r")
            with src.open("rb") as f:
                _, seal = container.seal_stream(f, lambda _salt: PROTECTION_KEY)
                with pytest.raises(OSError) as raised:
                    seal(*writers[:2])
            assert raised.value.errno == 9  # EBADF
            with puf.open("rb") as p, prf.open("rb") as q:
                with pytest.raises(OSError) as raised:
                    container.open_stream(p, q, lambda _salt: PROTECTION_KEY)(writers[2])
            assert raised.value.errno == 9
            for writer in writers:
                os.close(writer.fd)
        elif how == "integrity_failure":
            raw = bytearray(puf.read_bytes())
            raw[-1] ^= 0x01  # a public byte of the last chunk
            puf.write_bytes(raw)
            with pytest.raises(IntegrityFailure, match="content digest mismatch"):
                open_file(puf, prf, tmp_path / "back.bin")
        else:
            with pytest.raises(IntegrityFailure, match="padding"):
                open_file(puf, prf, tmp_path / "back.bin", ProtectionKey.random())
        assert _threads_and_affinity() == start

    def test_concurrent_passes_under_fast_thread_switching(self, native, tmp_path):
        # More callers than CPUs, each pass with its own second worker, and
        # the interpreter switching threads every microsecond: a chunk lost
        # or hashed twice between workers would break a digest.
        done, interval = [], sys.getswitchinterval()

        def caller(seed):
            for n in range(3):
                data = hashlib.shake_256(b"%d %d" % (seed, n)).digest(8 * CHUNK + 7)
                key = ProtectionKey(hashlib.sha256(data).digest()[:16])
                work = tmp_path / f"{seed}-{n}"
                work.mkdir()
                (work / "in.bin").write_bytes(data)
                seal_file(work / "in.bin", work, key)
                open_file(work / "in.puf", work / "in.prf", work / "back.bin", key)
                assert (work / "back.bin").read_bytes() == data
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
        assert not pass_threads()

    def test_child_held_to_one_cpu_starts_no_thread(self, native, tmp_path):
        # Holds itself to one CPU, then seals and opens LONG bytes through
        # the file pass while a poller looks for its second worker.
        child = f"""
import os, sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
sys.path.insert(0, {str(Path(__file__).parent)!r})
from pathlib import Path
from test_streaming import open_file, seal_file, watching_pass_threads
work = Path.cwd()
(work / "in.bin").write_bytes(os.urandom({LONG}))
with watching_pass_threads() as seen:
    seal_file(work / "in.bin", work)
    open_file(work / "in.puf", work / "in.prf", work / "back.bin")
assert (work / "back.bin").read_bytes() == (work / "in.bin").read_bytes()
print(len(seen), len(os.listdir("/proc/self/task")))
"""
        proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=_package_env(),
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
            index = sum(entry[0] == stream for entry in self.log)
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


class TestPythonLoop:
    """Writers without a descriptor get the Python chunk loop: every piece
    in order, on the caller's thread."""

    def test_every_piece_is_written_on_the_caller_in_order(self, monkeypatch):
        monkeypatch.setattr(container.os, "urandom", fake_urandom())
        data = case_input("dicom", THREADED)
        recorder, caller = Recorder(), threading.current_thread().name
        _seal(data, recorder, "dicom")
        puf, prf = recorder.stream("puf"), recorder.stream("prf")
        # Both headers, the .puf's with its head, before any chunk; a piece
        # per chunk in each stream; then the tail and digest, and the padding.
        assert [(stream, len(piece)) for stream, _, piece in recorder.log[:2]] == [
            ("puf", container._PUF_HEADER.size + len(HEADS["dicom"])), ("prf", container._PRF_HEADER.size)]
        assert len(puf) == 1 + 3 and len(prf) == 1 + 3 + 1 + 1
        assert digests(b"".join(piece for _, piece in puf), b"".join(piece for _, piece in prf)) == \
            FROZEN["dicom", THREADED]
        _open(b"".join(piece for _, piece in puf), b"".join(piece for _, piece in prf), recorder)
        out = recorder.stream("out")
        assert [len(piece) for _, piece in out] == [len(HEADS["dicom"]), CHUNK, CHUNK, CHUNK, THREADED % UNIT_LEN]
        assert b"".join(piece for _, piece in out) == data
        assert {thread for _, thread, _ in recorder.log} == {caller}

    @pytest.mark.parametrize("chunk", [0, 1, 2])
    @pytest.mark.parametrize("command", ["seal", "open"])
    def test_a_failed_write_ends_the_pass(self, command, chunk):
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
        assert len(recorder.stream(large)) == 2 + chunk  # nothing after the failed piece
        assert recorder.log[-1][0] == large

    @pytest.mark.parametrize("command,nth", [("protect", 1), ("protect", 3), ("recover", 1)])
    def test_cli_failed_write_leaves_no_file_and_exits_2(self, command, nth, tmp_path, monkeypatch, capsys):
        src = tmp_path / "scan.bin"
        src.write_bytes(case_input("dicom", THREADED))
        vault, out_dir = tmp_path / "vault", tmp_path / "out"
        assert cli.main(["protect", str(src), "--mode", "dicom", "--key-hex", KEY, "--out-dir", str(vault)]) == 0
        out_dir.mkdir()
        capsys.readouterr()
        # The nth os.write fails, as on a full disk: protect writes both
        # headers first, recover its head.
        write, count = os.write, [0]

        def failing_write(fd, data):
            count[0] += 1
            if count[0] == nth:
                raise OSError(28, "No space left on device")
            return write(fd, data)

        monkeypatch.setattr(os, "write", failing_write)
        if command == "protect":
            code = cli.main(["protect", str(src), "--mode", "dicom", "--key-hex", KEY, "--out-dir", str(out_dir)])
        else:
            code = cli.main(["recover", str(vault / "scan.puf"), str(vault / "scan.prf"), "--key-hex", KEY,
                             "--out", str(out_dir / "back.bin")])
        monkeypatch.undo()
        assert count[0] == nth
        assert code == 2
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert os.listdir(out_dir) == []


class TestFilePassFailures:
    """``sefrag protect`` and ``recover`` of LONG bytes, whose file passes
    run two workers where two CPUs are allowed."""

    @pytest.fixture
    def pair(self, native, tmp_path):
        src, vault = tmp_path / "scan.bin", tmp_path / "vault"
        src.write_bytes(hashlib.shake_256(b"long scan").digest(LONG))
        assert cli.main(["protect", str(src), "--key-hex", KEY, "--out-dir", str(vault)]) == 0
        return src, vault / "scan.puf", vault / "scan.prf"

    @pytest.mark.parametrize("command", ["protect", "recover"])
    def test_a_full_disk_mid_pass_exits_2_and_leaves_nothing(self, command, pair, tmp_path):
        src, puf, prf = pair
        out = tmp_path / "out"
        out.mkdir()
        # A worker's pwrite past the limit fails with EFBIG, as on a disk
        # that fills up mid-pass.
        if command == "protect":
            proc = run_with_file_size_limit(4 << 20, "protect", src, "--key-hex", KEY, "--out-dir", out)
        else:
            proc = run_with_file_size_limit(4 << 20, "recover", puf, prf, "--key-hex", KEY, "--out", out / "back.bin")
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "error: [Errno 27] File too large\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("how", ["wrong_key", "flipped_digest"])
    def test_a_bad_pair_exits_4_with_no_output(self, how, pair, tmp_path, capsys):
        _, puf, prf = pair
        key = KEY
        if how == "wrong_key":
            key = "ff" * 16
        else:
            # Flipping a byte of the cipher block before the last flips the
            # same byte of the last: a digest byte, beside valid padding.
            raw = bytearray(prf.read_bytes())
            raw[-32] ^= 0x01
            prf.write_bytes(raw)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert cli.main(["recover", str(puf), str(prf), "--key-hex", key, "--out", str(out / "back.bin")]) == 4
        message = "padding invalid" if how == "wrong_key" else "content digest mismatch"
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: ") and message in err and err.count("\n") == 1
        assert os.listdir(out) == []
