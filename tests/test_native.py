"""Building and caching the native kernel: a build happens at most once
per source version, a failed one is recorded and leaves no library, and
the pure-Python path then gives the same bytes."""

import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import sefrag
from sefrag import _native, core
from sefrag.core import ProtectionKey


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty ``~/.cache/sefrag`` under ``tmp_path``, a ``load`` that has
    not run in this process, and a list of the compiler runs."""
    monkeypatch.setenv("HOME", str(tmp_path))
    runs = []
    real_run = subprocess.run

    def run(argv, **kwargs):
        runs.append(argv)
        return real_run(argv, **kwargs)

    monkeypatch.setattr(_native.subprocess, "run", run)
    _native.load.cache_clear()
    yield runs
    _native.load.cache_clear()


def _round_trip(length: int = 3 * 32 * core.CHUNK_UNITS + 5) -> None:
    rng = random.Random(length)
    key, content = ProtectionKey(rng.randbytes(16)), rng.randbytes(length)
    streams = core.protect(content, key)
    assert core.recover(streams.puf_payload, streams.prf_plain, key) == content


def test_failed_build_is_recorded_once_and_falls_back(fresh_cache, monkeypatch):
    monkeypatch.setattr(_native, "COMPILE", ("sefrag-no-such-compiler", *_native.COMPILE[1:]))
    loaded = _native.load()
    assert loaded.kernel is None
    assert "sefrag-no-such-compiler" in loaded.detail
    # No library and no temp file: only the failure record is left.
    (record,) = _native.cache_dir().iterdir()
    assert record.name.startswith("kernel-") and record.name.endswith(".failed")
    assert record.read_text().strip() == loaded.detail
    # Not retried in this process, nor by a later one that finds the record.
    assert _native.load() is loaded
    _native.load.cache_clear()
    assert _native.load() == loaded
    assert len(fresh_cache) == 1
    # core runs the pure path and still recovers the content.
    assert core._kernel() is None
    _round_trip()


def test_build_is_cached_private_and_loaded_by_later_processes(fresh_cache):
    loaded = _native.load()
    if loaded.kernel is None:
        pytest.skip(f"native kernel unavailable: {loaded.detail}")
    root = _native.cache_dir()
    assert stat.S_IMODE(root.stat().st_mode) == 0o700
    assert [p.name for p in root.iterdir()] == [loaded.kernel.path.name]
    assert loaded.kernel.path.suffix == ".so"
    _native.load.cache_clear()
    assert _native.load().kernel.path == loaded.kernel.path
    assert len(fresh_cache) == 1
    _round_trip()


def test_compile_command_is_part_of_the_library_name(fresh_cache, monkeypatch):
    first = _native.load()
    _native.load.cache_clear()
    monkeypatch.setattr(_native, "COMPILE", (*_native.COMPILE, "-DSEFRAG_VARIANT"))
    second = _native.load()
    if first.kernel is None or second.kernel is None:
        pytest.skip(f"native kernel unavailable: {first.detail}")
    assert first.kernel.path != second.kernel.path
    assert len(fresh_cache) == 2


def test_kernel_checks_buffer_lengths_before_calling_c():
    kernel = _native.load().kernel
    if kernel is None:
        pytest.skip(f"native kernel unavailable: {_native.load().detail}")
    key = bytes(16)
    with pytest.raises(ValueError):
        kernel.protect(bytes(63), bytes(2), key, 0)
    with pytest.raises(ValueError):
        kernel.protect(bytes(64), bytes(2), bytes(15), 0)
    with pytest.raises(ValueError):
        kernel.recover(bytes(56), bytes(7), bytes(2), key, 0)
    with pytest.raises(ValueError):
        kernel.recover(bytes(55), bytes(8), bytes(2), key, 0)
    with pytest.raises(ValueError):
        kernel.derive(b"pw", 0)
    # Selector bytes above 7 are masked, never used as an offset.
    assert kernel.protect(bytes(range(32)), b"\xff", key, 0) == kernel.protect(bytes(range(32)), b"\x07", key, 0)


def test_unusable_cache_falls_back_without_raising(fresh_cache, tmp_path, monkeypatch):
    # A HOME that is a file: the cache directory cannot be created.
    home = tmp_path / "home-is-a-file"
    home.write_bytes(b"")
    monkeypatch.setenv("HOME", str(home))
    loaded = _native.load()
    assert loaded.kernel is None and loaded.detail
    assert fresh_cache == []
    _round_trip()


def test_cache_writable_by_others_is_not_used(fresh_cache):
    root = _native.cache_dir()
    root.mkdir(parents=True)
    root.chmod(0o777)
    loaded = _native.load()
    assert loaded.kernel is None and "not private" in loaded.detail
    assert fresh_cache == [] and list(root.iterdir()) == []


def test_concurrent_first_uses_build_one_library(tmp_path):
    if _native.load().kernel is None:
        pytest.skip(f"native kernel unavailable: {_native.load().detail}")
    env = dict(os.environ, HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(sefrag.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    probe = "from sefrag import _native; print(_native.load().detail)"
    procs = [subprocess.Popen([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    details = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    (library,) = (tmp_path / ".cache" / "sefrag").iterdir()
    assert library.suffix == ".so"
    assert details == [str(library)] * 2
