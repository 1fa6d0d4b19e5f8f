"""Timing harness comparing selective protection with whole-file AES.

Both paths run over the same in-memory buffer so the numbers reflect
algorithmic cost rather than disk speed. The selective path is the one
``sefrag protect`` runs: ``container.seal_stream`` over the buffer,
headers and the incremental AES pass over the private stream included.
The baseline is the same AES-128-CBC, ``_native.cbc``, in one update over
the entire buffer and its PKCS#7 block, the conventional protect-everything
approach.  The two paths take turns, one run each per iteration, and each
path's MB/s and the ratio come from its fastest run: first-use costs such
as the kernel's load show in the first listed run, not in the min.  The
report names the kernel the selective path ran: native, or pure Python and why.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from collections import namedtuple

from . import _native, container, core
from .core import ProtectionKey

MIB = 1 << 20


class BenchReport(
    namedtuple("BenchReport", "input_size se_elapsed aes_baseline_elapsed aes_bytes_se aes_bytes_baseline kernel")
):
    """What one ``run_bench`` measured: the input size in bytes, the wall
    time of every iteration of each path in run order (``se_elapsed``,
    ``aes_baseline_elapsed``), the AES bytes each path ciphered, and the
    kernel: "native (<library>, 16 lanes)", "native (<library>, 1 lane)"
    or "python (<why>)"."""

    __slots__ = ()


def run_bench(size_mb: int, iterations: int) -> BenchReport:
    """Protect a random ``size_mb`` MiB buffer both ways, ``iterations`` times."""
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

    def seal() -> int:
        """The selective pass; returns its AES bytes."""
        _, pieces = container.seal_stream(io.BytesIO(buf), lambda _salt: key)
        next(pieces)  # the two headers
        return sum(len(prf) for _, prf in pieces)

    def baseline() -> int:
        """Whole-buffer AES; returns its ciphertext bytes."""
        return len(_native.cbc(key.bytes, iv, True)(padded))

    # The paths take turns, so a drift in the machine's speed reaches both.
    elapsed = {seal: [], baseline: []}
    aes_bytes = {}
    for _ in range(iterations):
        for run, times in elapsed.items():
            start = time.perf_counter()
            aes_bytes[run] = run()
            times.append(time.perf_counter() - start)

    return BenchReport(len(buf), tuple(elapsed[seal]), tuple(elapsed[baseline]),
                       aes_bytes[seal], aes_bytes[baseline], core._kernel().name)


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
