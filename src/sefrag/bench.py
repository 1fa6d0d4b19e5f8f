"""Timing harness comparing selective protection with whole-file AES.

Both paths run over the same in-memory buffer so the numbers reflect
algorithmic cost rather than disk speed. The selective path is the one
``sefrag protect`` runs: ``container.seal_stream`` over the buffer,
headers and the incremental AES pass over the private stream included.
The baseline is ``cryptography``'s AES-128-CBC with PKCS#7 over the
entire buffer, the conventional protect-everything approach.  Each path
runs once untimed before the timed iterations.  The report names the
kernel the selective path ran: native, or pure Python and why.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from dataclasses import dataclass

from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import container, core
from .core import ProtectionKey

MIB = 1 << 20


@dataclass(frozen=True)
class BenchReport:
    """What one ``run_bench`` measured: the AES bytes each path ciphered
    and the wall time of every iteration, in run order.

    The scalar throughput properties use the median run.
    """

    input_size: int
    iterations: int
    se_elapsed: tuple[float, ...]
    aes_baseline_elapsed: tuple[float, ...]
    aes_bytes_se: int
    aes_bytes_baseline: int
    kernel: str  # "native (<library>, 16 lanes)", "native (<library>, 1 lane)" or "python (<why>)"

    @property
    def se_throughput(self) -> float:
        """Selective-path throughput in MB/s (median iteration)."""
        return self.input_size / MIB / statistics.median(self.se_elapsed)

    @property
    def aes_throughput(self) -> float:
        """Whole-buffer AES throughput in MB/s (median iteration)."""
        return self.input_size / MIB / statistics.median(self.aes_baseline_elapsed)

    @property
    def ratio(self) -> float:
        """Speedup of the selective path over the baseline (hardware-dependent)."""
        return self.se_throughput / self.aes_throughput


def run_bench(size_mb: int, iterations: int) -> BenchReport:
    """Protect a random ``size_mb`` MiB buffer both ways, ``iterations`` times."""
    if size_mb < 1:
        raise ValueError("bench size must be at least 1 MB")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    key = ProtectionKey.random()
    buf = os.urandom(size_mb * MIB)
    iv = os.urandom(16)

    def seal() -> int:
        """The selective pass; returns its AES bytes."""
        _, pieces = container.seal_stream(io.BytesIO(buf), key)
        return sum(len(prf) for _, prf in pieces) - container._PRF_HEADER.size

    # The baseline writes into one buffer, with room for the padding block
    # and the slack update_into asks for, so its time is the cipher's, not
    # that of faulting in fresh pages for a new ciphertext each run.
    ct = bytearray(len(buf) + 32)

    def baseline() -> int:
        """Whole-buffer AES; returns its ciphertext bytes."""
        padder = padding.PKCS7(128).padder()
        enc = Cipher(algorithms.AES(key.bytes), modes.CBC(iv)).encryptor()
        n = enc.update_into(padder.update(buf), ct)
        n += enc.update_into(padder.finalize(), memoryview(ct)[n:])
        return n + len(enc.finalize())

    # One untimed pass of each path first, so that no timed run pays for
    # first use: page faults on the output buffer, the kernel's load.
    aes_bytes_se, aes_bytes_baseline = seal(), baseline()
    se_times: list[float] = []
    aes_times: list[float] = []
    for _ in range(iterations):
        for run, times in ((seal, se_times), (baseline, aes_times)):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)

    return BenchReport(
        input_size=len(buf),
        iterations=iterations,
        se_elapsed=tuple(se_times),
        aes_baseline_elapsed=tuple(aes_times),
        aes_bytes_se=aes_bytes_se,
        aes_bytes_baseline=aes_bytes_baseline,
        kernel=core._kernel().name,
    )


def format_table(report: BenchReport) -> str:
    def spread(times: tuple[float, ...]) -> str:
        return "min %.1f / median %.1f / max %.1f ms" % (
            1e3 * min(times),
            1e3 * statistics.median(times),
            1e3 * max(times),
        )

    def runs(times: tuple[float, ...]) -> str:
        return " ".join("%.1f" % (1e3 * t) for t in times)

    lines = [
        "input size           %d bytes" % report.input_size,
        "iterations           %d" % report.iterations,
        "selective            %.1f MB/s  (%s)" % (report.se_throughput, spread(report.se_elapsed)),
        "selective runs, ms   %s" % runs(report.se_elapsed),
        "aes-128-cbc (full)   %.1f MB/s  (%s)"
        % (report.aes_throughput, spread(report.aes_baseline_elapsed)),
        "aes-128-cbc runs, ms %s" % runs(report.aes_baseline_elapsed),
        "ratio                %.2fx" % report.ratio,
        "aes bytes, selective %d" % report.aes_bytes_se,
        "aes bytes, baseline  %d" % report.aes_bytes_baseline,
    ]
    return "\n".join(lines)
