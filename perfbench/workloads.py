"""The three workloads, each a closed loop with one client.

A workload drives sefrag only through its public entry points:
``sefrag.cli.main`` in-process, ``python -m sefrag`` subprocesses, and a
``sefrag serve`` subprocess as the cloud. Each op takes one generated
input file through its whole cycle and checks every output. The
program sees only the generated files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from sefrag import analysis, cli, dispersion

from inputs import (
    DICOM_HEAD_LEN,
    InputFile,
    dicom_like,
    log_uniform_size,
    rng_for,
    sha256_file,
    with_tail,
    write_input,
)
from spans import Span, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
KIB = 1 << 10
MIB = 1 << 20

_HEX32 = re.compile(r"[0-9a-f]{32}")
_PUF_HEADER_LEN = 42  # "PUF1" | version | flags | file_id | header_len | content_len | unit_count
_PRF_HEADER_LEN = 61  # "PRF1" | version | file_id | kdf_salt | iv | ct_len
_ENTROPY_FLOOR = 7.99
_PROCESS_TIMEOUT_S = 120


def sefrag_env() -> dict[str, str]:
    """Environment for ``python -m sefrag``: the package root, absolute,
    first on PYTHONPATH, so children import the sources under test
    whatever their working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def expected_sizes(src: InputFile) -> tuple[int, int]:
    """Exact .puf and .prf sizes for ``--mode dicom``.

    The private stream is 4 selected bytes per unit, the tail and a
    32-byte digest, PKCS#7-padded to whole AES blocks.
    """
    units, tail = divmod(src.content_len, 32)
    plain = 4 * units + tail + 32
    ciphertext = plain + 16 - plain % 16
    return _PUF_HEADER_LEN + DICOM_HEAD_LEN + 28 * units, _PRF_HEADER_LEN + ciphertext


def run_in_process(argv: list[str]) -> tuple[int, str, float]:
    """``cli.main(argv)`` with stdout and stderr captured; returns the
    exit code, stdout and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), seconds


def run_process(argv: list[str], cwd: Path) -> tuple[int, str, float]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=sefrag_env(), capture_output=True, text=True,
                          timeout=_PROCESS_TIMEOUT_S)
    return proc.returncode, proc.stdout, time.perf_counter() - start


def import_seconds(cwd: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    rc, _, seconds = run_process([sys.executable, "-c", "import sefrag.cli"], cwd)
    if rc != 0:
        raise RuntimeError("a fresh interpreter could not import sefrag.cli")
    return seconds


class BlobServerProcess:
    """``sefrag serve`` on 127.0.0.1:0, ready once it prints its address."""

    def __init__(self, root: Path, log: Path):
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "sefrag", "serve", "--bind", "127.0.0.1:0", "--root", str(root)],
            cwd=root.parent, env=sefrag_env(), stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        self.address = self.proc.stdout.readline().strip() if ready else ""
        if not self.address:
            self.stop()
            raise RuntimeError(f"blob server printed no address; see {log}")

    def peak_rss_mib(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
        return int(kib.group(1)) / KIB if kib else 0.0

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Reference:
    """Times a fixed CPU-bound loop next to every timed call.

    On a shared 2-vCPU virtual machine the CPU speed drifts by up to
    1.7x within seconds, while the time a call takes in units of this
    loop (its ``ref`` time) holds steady. The loop hashes and slices short byte strings, as the
    selective kernel does. Consecutive calls share the sample between
    them.
    """

    ITERATIONS = 6000
    REUSE_S = 0.01

    def __init__(self):
        self._end = -1.0
        self._seconds = 0.0

    def measure(self) -> float:
        start = time.perf_counter()
        x = bytes(32)
        for i in range(self.ITERATIONS):
            x = hashlib.sha256(x + i.to_bytes(8, "little")).digest()[:28] + x[:4]
        self._end = time.perf_counter()
        self._seconds = self._end - start
        return self._seconds

    def before(self) -> float:
        if time.perf_counter() - self._end < self.REUSE_S:
            return self._seconds
        return self.measure()


@dataclass
class Call:
    kind: str
    seconds: float
    ref: float  # seconds over the mean of the reference samples around the call
    nbytes: int
    ok: bool = True


class Workload:
    name = ""
    rss_who = "self"  # whose ru_maxrss is the peak RSS: this process or its children
    LO = HI = 0  # range of the log-uniform input sizes

    def __init__(self, seed: int, workdir: Path, tracer: Tracer | None = None):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True)
        self.tracer = tracer
        self.calls: list[Call] = []
        self.op_seconds: list[float] = []
        self.op_refs: list[float] = []
        self.reference = Reference()
        self.failures: Counter[str] = Counter()
        self.user_bytes_put = 0
        self.server_peak_rss_mib = 0.0
        rng = rng_for(self.name, seed, -1)
        self.key = rng.randbytes(16).hex()
        self.wrong_key = rng.randbytes(16).hex()
        self.size_start = rng.random()

    def setup_seconds(self) -> float:
        """Time one program set-up, then undo it."""
        return import_seconds(self.dir)

    def prepare(self):
        """Get ready for the first op; not timed."""

    def op(self, i: int):
        work = self.dir / f"op{i}"
        work.mkdir()
        try:
            self.cycle(i, work)
        finally:
            shutil.rmtree(work)

    def cycle(self, i: int, work: Path):
        """Take input ``i`` through the workload's calls, in ``work``."""
        raise NotImplementedError

    def input_bytes(self, i: int) -> bytes:
        size = log_uniform_size(self.size_start, i, self.LO, self.HI)
        return dicom_like(rng_for(self.name, self.seed, i), size)

    def teardown(self):
        pass

    def expect(self, call: Call, ok: bool, check: str) -> bool:
        if not ok:
            call.ok = False
            self.failures[check] += 1
        return ok

    def _timed(self, kind: str, nbytes: int, run) -> tuple[Call, int, str]:
        ref = self.reference.before()
        rc, out, seconds = run()
        ref = (ref + self.reference.measure()) / 2
        call = Call(kind, seconds, seconds / ref, nbytes)
        self.calls.append(call)
        return call, rc, out

    def cli(self, kind: str, argv: list[str], nbytes: int = 0) -> tuple[Call, int, str]:
        return self._timed(kind, nbytes, lambda: run_in_process(argv))

    def process(self, kind: str, argv: list[str], nbytes: int = 0) -> tuple[Call, int, str]:
        """``python -m sefrag argv``; traced runs start the same CLI through
        a bootstrap that wraps the layers and hands back its spans."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sefrag", *argv]
            return self._timed(kind, nbytes, lambda: run_process(cmd, self.dir))
        spans_file = self.dir / "spans.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), *argv]
        parent = None

        def run():
            nonlocal parent
            with self.tracer.span("process.sefrag") as parent:
                return run_process(cmd, self.dir)

        result = self._timed(kind, nbytes, run)
        self.tracer.adopt(json.loads(spans_file.read_text()), parent)
        spans_file.unlink()
        return result

    def check_containers(self, call: Call, src: InputFile, puf: Path, prf: Path):
        puf_len, prf_len = expected_sizes(src)
        ok = puf.exists() and prf.exists()
        self.expect(call, ok and puf.stat().st_size == puf_len, "puf_length")
        self.expect(call, ok and prf.stat().st_size == prf_len, "prf_ciphertext_length")

    def check_recovered(self, call: Call, rc: int, src: InputFile, out: Path):
        self.expect(call, rc == 0 and out.exists() and sha256_file(out) == src.sha256,
                    "recovered_sha256")


def _protect_ok(rc: int, out: str) -> bool:
    return rc == 0 and _HEX32.fullmatch(out.strip()) is not None


class BulkImage(Workload):
    """8 MiB DICOM-like files protected then recovered through ``cli.main``."""

    name = "bulk-image"
    FILES = 2
    # One size for every seed: which buffers the allocator serves from
    # mmap, and so the peak RSS, shifts with the exact size.
    SIZE = with_tail(8 * MIB + 7)

    def prepare(self):
        self.inputs = [write_input(self.dir / f"scan{i}.dcm", self.input_bytes(i))
                       for i in range(self.FILES)]

    def input_bytes(self, i: int) -> bytes:
        return dicom_like(rng_for(self.name, self.seed, i % self.FILES), self.SIZE)

    def cycle(self, i: int, work: Path):
        src = self.inputs[i % self.FILES]
        vault = work / "vault"
        call, rc, out = self.cli("protect", [
            "protect", str(src.path), "--mode", "dicom", "--key-hex", self.key,
            "--out-dir", str(vault)], src.size)
        if not self.expect(call, _protect_ok(rc, out), "protect_token"):
            return
        puf, prf = vault / (src.path.stem + ".puf"), vault / (src.path.stem + ".prf")
        self.check_containers(call, src, puf, prf)
        payload = puf.read_bytes()[_PUF_HEADER_LEN + DICOM_HEAD_LEN:]
        self.expect(call, analysis.entropy(payload) > _ENTROPY_FLOOR, "public_payload_entropy")
        del payload
        recovered = work / "recovered.dcm"
        call, rc, _ = self.cli("recover", [
            "recover", str(puf), str(prf), "--key-hex", self.key, "--out", str(recovered)], src.size)
        self.check_recovered(call, rc, src, recovered)


class RecordStore(Workload):
    """Records protected, put to a blob server, fetched back by the owner
    and recovered, with sharing flows and wrong-key recovers mixed in."""

    name = "record-store"
    PREFILL = 5000
    LO, HI = 2 * KIB, 256 * KIB
    OWNER, GRANTEE = "owner-1", "colleague-7"
    SHARE_EVERY = 4
    WRONG_KEY_EVERY = 8

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server: BlobServerProcess | None = None
        self.stores = 0
        self.wrong_key_slot = self.seed % self.WRONG_KEY_EVERY

    def setup_seconds(self) -> float:
        seconds = import_seconds(self.dir)
        start = time.perf_counter()
        try:
            self.prepare()
            return seconds + time.perf_counter() - start
        finally:
            self._stop_server()

    def prepare(self):
        """A fresh store: the server started and the index pre-filled with
        placements whose blobs are absent and never requested."""
        self.stores += 1
        self.store = self.dir / f"store{self.stores}"
        self.server = BlobServerProcess(self.dir / f"cloud{self.stores}",
                                        self.dir / f"serve{self.stores}.log")
        rng = rng_for(self.name, self.seed, -2)
        index = dispersion.PlacementIndex(self.store / "placements.jsonl")
        for _ in range(self.PREFILL):
            index.record(dispersion.Placement(
                record_id=rng.randbytes(16),
                puf_ref=dispersion.BlobRef(rng.randbytes(32)), puf_backend="cloud",
                prf_ref=dispersion.BlobRef(rng.randbytes(32)), prf_backend="device",
            ))

    def _stop_server(self):
        if self.server is not None:
            self.server_peak_rss_mib = self.server.peak_rss_mib()
            self.server.stop()
            self.server = None

    def teardown(self):
        self._stop_server()

    def cycle(self, i: int, work: Path):
        src = write_input(work / f"rec{i:05d}.dcm", self.input_bytes(i))
        store = ["--store", str(self.store)]
        remote = ["--remote", self.server.address]
        vault = work / "vault"
        call, rc, out = self.cli("protect", [
            "protect", str(src.path), "--mode", "dicom", "--key-hex", self.key,
            "--out-dir", str(vault)], src.size)
        if not self.expect(call, _protect_ok(rc, out), "protect_token"):
            return
        rid = out.strip()
        puf, prf = vault / (src.path.stem + ".puf"), vault / (src.path.stem + ".prf")
        self.check_containers(call, src, puf, prf)

        call, rc, out = self.cli("put", ["put", str(puf), str(prf), *store, *remote], src.size)
        lines = out.splitlines()
        ok = (rc == 0 and len(lines) == 3 and lines[0] == rid
              and re.fullmatch(r"puf [0-9a-f]{64} cloud", lines[1]) is not None
              and re.fullmatch(r"prf [0-9a-f]{64} device", lines[2]) is not None)
        if not self.expect(call, ok, "put_output"):
            return
        self.user_bytes_put += src.size

        fetched = work / "fetched"
        call, rc, out = self.cli("fetch", [
            "request", rid, "--as", self.OWNER, "--role", "owner", *store, *remote,
            "--out-dir", str(fetched)], src.size)
        got_puf, got_prf = fetched / (rid + ".puf"), fetched / (rid + ".prf")
        ok = rc == 0 and out.strip() == "Full" and got_puf.exists() and got_prf.exists()
        if not self.expect(call, ok, "fetch_decision"):
            return

        recovered = work / "recovered.dcm"
        call, rc, _ = self.cli("recover", [
            "recover", str(got_puf), str(got_prf), "--key-hex", self.key,
            "--out", str(recovered)], src.size)
        self.check_recovered(call, rc, src, recovered)

        if i % self.WRONG_KEY_EVERY == self.wrong_key_slot:
            wrong = work / "wrong.dcm"
            call, rc, _ = self.cli("wrong_key", [
                "recover", str(got_puf), str(got_prf), "--key-hex", self.wrong_key,
                "--out", str(wrong)], src.size)
            self.expect(call, rc == 4 and not wrong.exists(), "wrong_key_exit")

        if i % self.SHARE_EVERY == self.SHARE_EVERY - 1:
            self._share(rid, work, store, remote)

    def _share(self, rid: str, work: Path, store: list[str], remote: list[str]):
        call, rc, _ = self.cli("share", ["grant", rid, self.GRANTEE, "--as", self.OWNER, *store])
        self.expect(call, rc == 0, "grant_exit")
        call, rc, out = self.cli("share", ["request", rid, "--as", self.GRANTEE, *store])
        self.expect(call, rc == 0 and out.strip() == "Full", "granted_decision")
        call, rc, _ = self.cli("share", ["revoke", rid, self.GRANTEE, "--as", self.OWNER, *store])
        self.expect(call, rc == 0, "revoke_exit")
        handoff = work / "handoff"
        call, rc, out = self.cli("share", [
            "request", rid, "--as", self.GRANTEE, *store, *remote, "--out-dir", str(handoff)])
        released = sorted(p.name for p in handoff.iterdir()) if handoff.is_dir() else []
        self.expect(call, rc == 0 and out.strip() == "PufOnly" and released == [rid + ".puf"],
                    "revoked_release")


class CliPassphrase(Workload):
    """Sequential ``python -m sefrag protect|recover --passphrase-file``
    subprocesses on small DICOM-like files."""

    name = "cli-passphrase"
    rss_who = "children"
    LO, HI = 4 * KIB, 64 * KIB

    def prepare(self):
        # The timed work runs in children while this process only waits.
        # Children inherit this CPU, so the reference loop runs on the
        # CPU that does the work; on a shared virtual machine the CPUs
        # drift apart in speed.
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        rng = rng_for(self.name, self.seed, -3)
        self.passphrase = self.dir / "passphrase.txt"
        self.passphrase.write_text("correct horse %d\n" % rng.randrange(10**12))

    def teardown(self):
        os.sched_setaffinity(0, self.cpus)

    def cycle(self, i: int, work: Path):
        src = write_input(work / f"img{i:05d}.dcm", self.input_bytes(i))
        key = ["--passphrase-file", str(self.passphrase)]
        call, rc, out = self.process("protect", [
            "protect", str(src.path), "--mode", "dicom", *key, "--out-dir", str(work)], src.size)
        if not self.expect(call, _protect_ok(rc, out), "protect_token"):
            return
        puf, prf = work / (src.path.stem + ".puf"), work / (src.path.stem + ".prf")
        self.check_containers(call, src, puf, prf)
        recovered = work / "recovered.dcm"
        call, rc, _ = self.process("recover", [
            "recover", str(puf), str(prf), *key, "--out", str(recovered)], src.size)
        self.check_recovered(call, rc, src, recovered)


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (BulkImage, RecordStore, CliPassphrase)}


def run_loop(workload: Workload, seconds: float) -> list[Span]:
    """Closed loop: the next op starts when the previous one has ended.

    Runs at least one op. Each op's timed seconds and ref time (the sums
    over its calls) go to ``workload.op_seconds`` and ``op_refs``; traced
    runs get one ``op`` span each.
    """
    tracer = workload.tracer
    op_spans = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        first_call = len(workload.calls)
        if tracer is None:
            workload.op(i)
        else:
            tracer.op = i
            with tracer.span("op") as span:
                workload.op(i)
            op_spans.append(span)
        done = workload.calls[first_call:]
        workload.op_seconds.append(sum(c.seconds for c in done))
        workload.op_refs.append(sum(c.ref for c in done))
        i += 1
    return op_spans
