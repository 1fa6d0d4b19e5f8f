"""Byte-level randomness measurements for protected payloads.

Shannon entropy over byte values (8.0 for an ideal uniform source) and
the value histogram behind it, a tuple of 256 counts indexed by byte
value, exportable as CSV for distribution plots.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import NotFound


def histogram(data: bytes) -> tuple[int, ...]:
    """The count of each byte value in ``data``, 256 of them."""
    # Counted as 1 MiB copies: Counter walks bytes faster than a view.
    view, counted = memoryview(data), Counter()
    for start in range(0, len(view), 1 << 20):
        counted.update(view[start:start + (1 << 20)].tobytes())
    return tuple(counted.get(v, 0) for v in range(256))


def entropy(data: bytes) -> float:
    """Shannon entropy of the byte-value distribution, in [0, 8]."""
    counts = histogram(data)
    total = sum(counts)
    if total == 0:
        raise NotFound("entropy is undefined for empty input")
    # Ascending byte value keeps the float accumulation reproducible.
    acc = 0.0
    for count in counts:
        if count:
            p = count / total
            acc -= p * math.log2(p)
    return acc


def pdf_csv(counts: tuple[int, ...]) -> str:
    """256 lines of "value,count,probability" (probability to 6 places)."""
    total = sum(counts)
    lines = []
    for value, count in enumerate(counts):
        p = count / total if total else 0.0
        lines.append(f"{value},{count},{p:.6f}")
    return "\n".join(lines) + "\n"
