"""Timing harness comparing selective protection with whole-file AES.

The selective path is what ``sefrag protect`` runs: ``container.seal_stream``
of a random file in a temp directory into a fresh ``.puf``/``.prf`` pair
through ``atomic_write``, headers, the incremental AES over the private
stream, the writes and the renames included.  The baseline is the same
AES-128-CBC, ``_native.cbc``, in one update over the same bytes in memory
and their PKCS#7 block, the conventional protect-everything approach.
The two paths take turns, one run each per iteration, and each path's
MB/s and the ratio come from its fastest run: first-use costs such as
the kernel's load show in the first listed run, not in the min.  The
report names the kernel the selective path ran: native, or pure Python
and why, and the most workers any selective run reported: where the
calling thread may use a second CPU, the native pass runs a second
worker there, so the ratio is then a two-core figure.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from collections import namedtuple
from pathlib import Path

from . import _native, container, core
from .container import atomic_write
from .core import ProtectionKey

MIB = 1 << 20


class BenchReport(
    namedtuple("BenchReport",
               "input_size se_elapsed aes_baseline_elapsed aes_bytes_se aes_bytes_baseline kernel threads")
):
    """What one ``run_bench`` measured: the input size in bytes, the wall
    time of every iteration of each path in run order (``se_elapsed``,
    ``aes_baseline_elapsed``), the AES bytes each path ciphered, the
    kernel: "native (<library>, 16 lanes)", "native (<library>, 1 lane)"
    or "python (<why>)", and the most workers any selective run's pass
    reported it ran on."""

    __slots__ = ()


def run_bench(size_mb: int, iterations: int) -> BenchReport:
    """Protect a random ``size_mb`` MiB file both ways, ``iterations`` times."""
    if size_mb < 1:
        raise ValueError("bench size must be at least 1 MB")
    if size_mb >= 2048:  # the baseline's one AES update takes a C int length
        raise ValueError("bench size must be below 2048 MB")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    key = ProtectionKey.random()
    buf = os.urandom(size_mb * MIB)
    padded = buf + bytes([16]) * 16  # and its PKCS#7 block: the baseline's input, built untimed
    iv = os.urandom(16)
    with tempfile.TemporaryDirectory(prefix="sefrag-bench-") as tmp:
        src, puf, prf = (Path(tmp) / name for name in ("input.bin", "out.puf", "out.prf"))
        src.write_bytes(buf)
        workers = []

        def seal() -> int:
            """The selective pass; returns its AES bytes."""
            with src.open("rb") as f:
                _, run = container.seal_stream(f, lambda _salt: key)
                with atomic_write(puf) as write_puf, atomic_write(prf) as write_prf:
                    workers.append(run(write_puf, write_prf))
            return prf.stat().st_size - container._PRF_HEADER.size

        def baseline() -> int:
            """Whole-buffer AES; returns its ciphertext bytes."""
            return len(_native.cbc(key.bytes, iv, True)(padded))

        elapsed, aes_bytes = {seal: [], baseline: []}, {}

        def iteration():
            for run, times in elapsed.items():
                start = time.perf_counter()
                aes_bytes[run] = run()
                times.append(time.perf_counter() - start)
            # So the next seal renames onto fresh names: over an existing
            # file, a rename would also time its writeback.
            puf.unlink()
            prf.unlink()

        # The paths take turns, so a drift in the machine's speed reaches both.
        for _ in range(iterations):
            iteration()
    return BenchReport(len(buf), tuple(elapsed[seal]), tuple(elapsed[baseline]),
                       aes_bytes[seal], aes_bytes[baseline], core._kernel().name, max(workers))


def format_table(report: BenchReport) -> str:
    """The report as nine lines; MB/s and the ratio use each path's fastest run."""
    se_mb_s = report.input_size / MIB / min(report.se_elapsed)
    aes_mb_s = report.input_size / MIB / min(report.aes_baseline_elapsed)

    def spread(times: tuple[float, ...]) -> str:
        ms = [1e3 * t for t in times]
        return "min %.1f / median %.1f / max %.1f ms" % (min(ms), statistics.median(ms), max(ms))

    def runs(times: tuple[float, ...]) -> str:
        return " ".join("%.1f" % (1e3 * t) for t in times)

    lines = [
        "input size           %d bytes" % report.input_size,
        "iterations           %d" % len(report.se_elapsed),
        "selective            %.1f MB/s  (%s)" % (se_mb_s, spread(report.se_elapsed)),
        "selective runs, ms   %s" % runs(report.se_elapsed),
        "aes-128-cbc (full)   %.1f MB/s  (%s)" % (aes_mb_s, spread(report.aes_baseline_elapsed)),
        "aes-128-cbc runs, ms %s" % runs(report.aes_baseline_elapsed),
        "ratio                %.2fx" % (se_mb_s / aes_mb_s),
        "aes bytes, selective %d" % report.aes_bytes_se,
        "aes bytes, baseline  %d" % report.aes_bytes_baseline,
    ]
    return "\n".join(lines)
