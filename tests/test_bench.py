import collections
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from sefrag import _native, bench, cli, container, core
from sefrag.core import ProtectionKey

MIB = 1 << 20
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def report():
    return bench.run_bench(1, iterations=3)


def test_input_size_and_iterations(report):
    assert report.input_size == MIB
    assert bench.format_table(report).splitlines()[1] == "iterations           3"
    assert len(report.se_elapsed) == 3
    assert len(report.aes_baseline_elapsed) == 3


def test_counts_match_counted_hashes_of_a_seal(sha256_calls):
    # The selective path bench times is one seal_stream pass: count the hashes
    # of a seal, then of a bench run of one iteration.
    key = ProtectionKey.random()
    _, run = container.seal_stream(io.BytesIO(os.urandom(MIB)), lambda _salt: key)
    run(len, len)
    one_seal = collections.Counter(sha256_calls)
    sha256_calls.clear()
    report = bench.run_bench(1, iterations=1)
    assert sha256_calls == one_seal
    # selected bytes of every unit + digest + pkcs7 padding of an aligned input
    assert report.aes_bytes_se == core.SUB_LEN * one_seal["protection"] + core.DIGEST_LEN + 16


def test_aes_byte_accounting(report):
    # selected + digest + pkcs7 padding; aligned input has no tail
    assert report.aes_bytes_se == 131072 + 32 + 16
    assert report.aes_bytes_baseline == MIB + 16
    assert abs(report.aes_bytes_se - report.aes_bytes_baseline / 8) <= 48


def test_throughputs_positive(report):
    table = bench.format_table(report).splitlines()
    assert float(table[2].split()[1]) > 0 and float(table[4].split()[2]) > 0
    # MB/s and the ratio come from each path's fastest run, not its median.
    timed = report._replace(se_elapsed=(0.03125, 0.025, 0.05),
                            aes_baseline_elapsed=(0.01, 0.008, 0.016))
    table = bench.format_table(timed).splitlines()
    assert table[2] == "selective            40.0 MB/s  (min 25.0 / median 31.2 / max 50.0 ms)"
    assert table[4] == "aes-128-cbc (full)   125.0 MB/s  (min 8.0 / median 10.0 / max 16.0 ms)"
    assert table[6] == "ratio                0.32x"


def test_table_includes_spread_and_counters(report):
    table = bench.format_table(report).splitlines()
    assert "min" in table[2] and "median" in table[2] and "max" in table[2]
    assert "aes bytes, selective %d" % report.aes_bytes_se in table
    assert "aes bytes, baseline  %d" % report.aes_bytes_baseline in table


def test_table_lists_every_run_time_per_path(report):
    # In run order, in milliseconds to 0.1 ms: the spread a median hides.
    timed = report._replace(se_elapsed=(0.03012, 0.02549, 0.0412),
                            aes_baseline_elapsed=(0.00804, 0.0073, 0.01))
    table = bench.format_table(timed).splitlines()
    assert "selective runs, ms   30.1 25.5 41.2" in table
    assert "aes-128-cbc runs, ms 8.0 7.3 10.0" in table


def test_each_path_runs_once_per_iteration(monkeypatch):
    seals = []
    seal_stream = container.seal_stream

    def counted(*args, **kwargs):
        seals.append(args)
        return seal_stream(*args, **kwargs)

    monkeypatch.setattr(container, "seal_stream", counted)
    report = bench.run_bench(1, iterations=2)
    # No untimed pass is left: one seal per timed iteration.
    assert len(seals) == 2
    assert len(report.se_elapsed) == len(report.aes_baseline_elapsed) == 2


def test_threads_counts_the_pass_workers(monkeypatch, capsys):
    # Where the calling thread may use a second CPU, the native pass runs a
    # second worker there, and the ratio is a two-core figure.  bench
    # reports what the passes reported; a poller of /proc/self/task, apart
    # from them, must see the workers they counted, and none once they end.
    from test_streaming import held_to_one_cpu, pass_threads, watching_pass_threads

    native = isinstance(core._kernel(), _native.Kernel)
    with watching_pass_threads() as seen:
        threads = bench.run_bench(8, iterations=2).threads
    assert threads == (2 if seen else 1)
    assert threads == (2 if native and len(os.sched_getaffinity(0)) > 1 else 1)
    assert not pass_threads()  # none outlives its pass
    with held_to_one_cpu(), watching_pass_threads() as seen:
        assert bench.run_bench(8, iterations=1).threads == 1
    assert not seen
    monkeypatch.setattr(core, "_kernel", lambda: _native.PythonKernel("pinned by the test"))
    assert bench.run_bench(1, iterations=1).threads == 1
    assert cli.main(["bench", "--size-mb", "1", "--iterations", "1"]) == 0
    out, err = capsys.readouterr()
    kernel_line, threads = err.splitlines()
    assert kernel_line == "kernel python (pinned by the test)" and threads == "threads 1"
    assert len(out.splitlines()) == 9


def test_seals_real_files_and_leaves_none(monkeypatch, tmp_path):
    # The selective path writes a .puf/.prf pair through atomic_write on
    # each run, as sefrag protect does, onto names that do not exist yet,
    # and the temp directory goes.
    monkeypatch.setattr(bench.tempfile, "tempdir", str(tmp_path))
    written = []
    atomic_write = container.atomic_write

    def recorded(path):
        written.append((Path(path).name, Path(path).exists()))
        return atomic_write(path)

    monkeypatch.setattr(bench, "atomic_write", recorded)
    report = bench.run_bench(1, iterations=3)
    assert written == 3 * [("out.puf", False), ("out.prf", False)]
    assert report.aes_bytes_se == 131072 + 32 + 16
    assert os.listdir(tmp_path) == []


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bench.run_bench(0, iterations=1)
    with pytest.raises(ValueError):
        bench.run_bench(1, iterations=0)


def test_refuses_a_size_past_one_aes_call_before_allocating(monkeypatch):
    # The baseline ciphers the buffer and its padding block in one cbc
    # update, whose length is a C int: 2048 MiB + 16 bytes would not fit.
    monkeypatch.setattr(os, "urandom", lambda n: pytest.fail(f"asked for {n} random bytes"))
    with pytest.raises(ValueError, match="below 2048 MB"):
        bench.run_bench(2048, iterations=1)


def test_baseline_is_aes_128_cbc_with_pkcs7(monkeypatch):
    calls = []
    cbc = _native.cbc

    def recorded(key, iv, encrypt):
        update = cbc(key, iv, encrypt)

        def recorded_update(data):
            out = update(data)
            calls.append((key, iv, data, encrypt, out))
            return out

        recorded_update.ctx = update.ctx  # for a file pass, which ciphers from C
        return recorded_update

    monkeypatch.setattr(_native, "cbc", recorded)
    report = bench.run_bench(1, iterations=1)
    ((key, iv, data, encrypt, out),) = [call for call in calls if len(call[2]) == MIB + 16]
    assert encrypt and len(out) == report.aes_bytes_baseline
    padder = padding.PKCS7(128).padder()
    encryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    assert out == encryptor.update(padder.update(data[:MIB]) + padder.finalize()) + encryptor.finalize()


def test_perfbench_selftest_resolves_every_wrapped_name():
    # The benchmark wraps sefrag functions by name; its self-test fails
    # when one of them is renamed or deleted.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
