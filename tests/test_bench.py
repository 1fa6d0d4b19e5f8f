import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sefrag import bench, container, core
from sefrag.core import ProtectionKey

MIB = 1 << 20
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report():
    return bench.run_bench(1, iterations=3)


def test_input_size_and_iterations(report):
    assert report.input_size == MIB
    assert report.iterations == 3
    assert len(report.se_elapsed) == 3
    assert len(report.aes_baseline_elapsed) == 3


def test_counters_for_one_mib(report):
    # 32768 unit hashes + 1024 selector blocks + 1 digest pass
    assert report.hash_invocations_se == 32768 + 1024 + 1
    assert report.selected_bytes == 131072


def test_counts_match_counted_hashes_of_a_seal(sha256_calls):
    # bench derives its counts from the unit count; count one seal_stream pass instead.
    _, pieces = container.seal_stream(io.BytesIO(os.urandom(MIB)), ProtectionKey.random())
    for _ in pieces:
        pass
    counted = sum(sha256_calls.values())
    units = sha256_calls["protection"]  # one keystream hash per unit
    report = bench.run_bench(1, iterations=1)
    assert report.hash_invocations_se == counted
    assert report.selected_bytes == core.SUB_LEN * units


def test_aes_byte_accounting(report):
    # selected + digest + pkcs7 padding; aligned input has no tail
    assert report.aes_bytes_se == 131072 + 32 + 16
    assert report.aes_bytes_baseline == MIB + 16
    assert abs(report.aes_bytes_se - report.aes_bytes_baseline / 8) <= 48


def test_throughputs_positive(report):
    assert report.se_throughput > 0
    assert report.aes_throughput > 0
    assert report.ratio == pytest.approx(report.se_throughput / report.aes_throughput)


def test_table_includes_spread_and_counters(report):
    table = bench.format_table(report)
    assert "min" in table and "median" in table and "max" in table
    assert "33793" in table
    assert "131072" in table


def test_csv_has_one_row_per_iteration(report):
    rows = bench.format_csv(report).strip().splitlines()
    assert rows[0] == "iteration,se_seconds,aes_seconds"
    assert len(rows) == 1 + report.iterations


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bench.run_bench(0)
    with pytest.raises(ValueError):
        bench.run_bench(1, iterations=0)


def test_perfbench_selftest_resolves_every_wrapped_name():
    # The benchmark wraps sefrag functions by name; its self-test fails
    # when one of them is renamed or deleted.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
