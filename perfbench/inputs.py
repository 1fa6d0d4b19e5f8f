"""Seeded benchmark inputs: DICOM-like files of low-entropy 16-bit pixels.

Every file is a 128-byte preamble, ``DICM`` and gradient-plus-noise
pixel data: a ramp that rises by one every ``step`` pixels, with the two
low bits of each pixel replaced by noise. The same seed and index give
the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass
from pathlib import Path

DICOM_HEAD_LEN = 132  # preamble + "DICM", what ``--mode dicom`` keeps in plaintext
UNIT_LEN = 32
_WIDTH = 512  # pixels per row
_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class InputFile:
    path: Path
    size: int
    sha256: str

    @property
    def content_len(self) -> int:
        """Bytes after the DICOM head: what the selective kernel processes."""
        return self.size - DICOM_HEAD_LEN


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def dicom_like(rng: random.Random, size: int) -> bytes:
    if size <= DICOM_HEAD_LEN:
        raise ValueError(f"a DICOM-like file needs more than {DICOM_HEAD_LEN} bytes")
    preamble = (b"perfbench synthetic study %d" % rng.randrange(10**9)).ljust(128, b"\0")
    pixels_len = size - DICOM_HEAD_LEN
    row_len = 2 * _WIDTH
    rows = -(-pixels_len // row_len)
    base = rng.randrange(256, 1024)
    step = rng.choice((2, 4, 8))
    ramp = array("H", [base + k // step for k in range(_WIDTH + rows)]).tobytes()
    noise_mask = int.from_bytes(b"\x03\x00" * _WIDTH, "little")
    pixels = bytearray()
    for y in range(rows):
        row = int.from_bytes(ramp[2 * y:2 * y + row_len], "little")
        row ^= int.from_bytes(rng.randbytes(row_len), "little") & noise_mask
        pixels += row.to_bytes(row_len, "little")
    return preamble + b"DICM" + bytes(pixels[:pixels_len])


def write_input(path: Path, data: bytes) -> InputFile:
    path.write_bytes(data)
    return InputFile(path, len(data), hashlib.sha256(data).hexdigest())


def with_tail(size: int) -> int:
    """Smallest size >= ``size`` whose content is not a whole number of units."""
    while (size - DICOM_HEAD_LEN) % UNIT_LEN == 0:
        size += 1
    return size


def log_uniform_size(start: float, index: int, lo: int, hi: int) -> int:
    """Size of input ``index``, log-uniform over [lo, hi].

    Sizes follow a golden-ratio sequence from a seeded ``start`` in
    [0, 1), so every prefix covers the range evenly and a run's
    percentiles do not depend on how many inputs it reached.
    """
    u = (start + index * _GOLDEN) % 1.0
    return with_tail(round(lo * (hi / lo) ** u))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
