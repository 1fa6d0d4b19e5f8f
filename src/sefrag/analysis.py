"""Byte-level randomness measurements for protected payloads.

Shannon entropy over byte values (8.0 for an ideal uniform source) and
the value histogram behind it, exportable as CSV for distribution plots.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyInput


@dataclass(frozen=True)
class ByteHistogram:
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != 256:
            raise ValueError("histogram needs exactly 256 buckets")

    @property
    def total(self) -> int:
        return sum(self.counts)


def histogram(data: bytes) -> ByteHistogram:
    # Counted as 1 MiB copies: Counter walks bytes faster than a view.
    view, counted = memoryview(data), Counter()
    for start in range(0, len(view), 1 << 20):
        counted.update(view[start:start + (1 << 20)].tobytes())
    return ByteHistogram(tuple(counted.get(v, 0) for v in range(256)))


def _entropy_of(hist: ByteHistogram) -> float:
    total = hist.total
    if total == 0:
        raise EmptyInput("entropy is undefined for empty input")
    # Ascending byte value keeps the float accumulation reproducible.
    acc = 0.0
    for count in hist.counts:
        if count:
            p = count / total
            acc -= p * math.log2(p)
    return acc


def entropy(data: bytes) -> float:
    """Shannon entropy of the byte-value distribution, in [0, 8]."""
    return _entropy_of(histogram(data))


def pdf_csv(hist: ByteHistogram) -> str:
    """256 lines of "value,count,probability" (probability to 6 places)."""
    total = hist.total
    lines = []
    for value, count in enumerate(hist.counts):
        p = count / total if total else 0.0
        lines.append(f"{value},{count},{p:.6f}")
    return "\n".join(lines) + "\n"
