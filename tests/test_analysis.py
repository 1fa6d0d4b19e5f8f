"""Entropy and histogram behavior, including the protected-payload bound."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sefrag.analysis import entropy, histogram, pdf_csv
from sefrag.container import seal
from sefrag.core import ProtectionKey
from sefrag.errors import NotFound


def max_min_ratio(counts: tuple[int, ...]) -> float:
    """Ratio of the most to the least frequent byte value; a quick
    uniformity gauge (inf when some value never occurs)."""
    low, high = min(counts), max(counts)
    if high == 0:
        return 1.0
    return math.inf if low == 0 else high / low


class TestEntropy:
    def test_single_symbol_source(self):
        assert entropy(bytes(1024)) == 0.0

    def test_uniform_source_exact(self):
        assert entropy(bytes(range(256))) == 8.0

    def test_empty_input(self):
        with pytest.raises(NotFound, match="^entropy is undefined for empty input$"):
            entropy(b"")

    def test_two_symbol_half_half(self):
        assert entropy(b"ab" * 50) == pytest.approx(1.0)

    @given(st.binary(min_size=1, max_size=512))
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, data):
        h = entropy(data)
        assert 0.0 <= h <= 8.0

    @given(st.binary(min_size=1, max_size=128), st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_replication_invariance(self, data, k):
        assert entropy(data * k) == pytest.approx(entropy(data), abs=1e-12)

    def test_low_entropy_input_yields_high_entropy_payload(self):
        # 256 KiB of a repeating pattern still protects to >7.99 bits/byte.
        data = bytes(range(8)) * (256 * 1024 // 8)
        assert entropy(data) == 3.0
        puf, _ = seal(data, ProtectionKey(bytes(16)))
        assert entropy(puf.puf_payload) > 7.99


class TestHistogram:
    def test_empty(self):
        h = histogram(b"")
        assert h == (0,) * 256

    def test_counts(self):
        h = histogram(b"AAB")
        assert len(h) == 256
        assert h[0x41] == 2
        assert h[0x42] == 1
        assert sum(h) == 3

    def test_max_min_ratio(self):
        assert max_min_ratio(histogram(bytes(range(256)))) == 1.0
        assert max_min_ratio(histogram(b"AAB")) == math.inf
        assert max_min_ratio(histogram(b"")) == 1.0

    def test_payload_ratio_reportable(self):
        data = random.Random(1).randbytes(128 * 1024)
        puf, _ = seal(data, ProtectionKey(bytes(16)))
        ratio = max_min_ratio(histogram(puf.puf_payload))
        assert 1.0 <= ratio < 2.0


class TestPdfCsv:
    def test_row_count_always_256(self):
        for data in (b"", b"AAB", bytes(1000)):
            assert len(pdf_csv(histogram(data)).splitlines()) == 256

    def test_known_line(self):
        assert "65,2,0.666667" in pdf_csv(histogram(b"AAB")).splitlines()

    def test_empty_histogram_probabilities(self):
        lines = pdf_csv(histogram(b"")).splitlines()
        assert lines[0] == "0,0,0.000000"
        assert all(line.endswith(",0,0.000000") for line in lines)

    def test_probabilities_sum_to_one(self):
        lines = pdf_csv(histogram(bytes(range(256)) * 4)).splitlines()
        total = sum(float(line.split(",")[2]) for line in lines)
        assert total == pytest.approx(1.0, abs=1e-3)
