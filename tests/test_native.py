"""Building and caching the native kernel: a build happens at most once
per source version, a failed one is recorded and leaves no library, and
``load`` then returns the pure-Python kernel, which gives the same bytes."""

import collections
import gc
import io
import itertools
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import _package_env
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from sefrag import _native, container, core
from sefrag.core import ProtectionKey
from sefrag.errors import IntegrityFailure


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

    # ``_native`` imports subprocess only when it builds.
    monkeypatch.setattr(subprocess, "run", run)
    _native.load.cache_clear()
    yield runs
    _native.load.cache_clear()


def native_names(library) -> set[str]:
    """The names the native kernel may give on this CPU: 16 lanes where
    Linux lists both AVX-512F and AVX-512VL for an x86-64 CPU, else 1
    lane; either where there is no /proc/cpuinfo to ask."""
    lanes = {"16 lanes", "1 lane"}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        flags = set(cpuinfo.read_text().split())
        vector = os.uname().machine == "x86_64" and {"avx512f", "avx512vl"} <= flags
        lanes = {"16 lanes" if vector else "1 lane"}
    return {f"native ({library}, {count})" for count in lanes}


def _round_trip(length: int = 3 * 32 * core.CHUNK_UNITS + 5) -> None:
    rng = random.Random(length)
    key, content = ProtectionKey(rng.randbytes(16)), rng.randbytes(length)
    streams = core.protect(content, key)
    assert core.recover(streams.puf_payload, streams.prf_plain, key) == content


@pytest.mark.parametrize("compile_command, error", [
    pytest.param(("sefrag-no-such-compiler", *_native.COMPILE[1:]), "sefrag-no-such-compiler",
                 id="no-compiler"),
    # The compiler runs and fails: its first error line is the reason.
    pytest.param((*_native.COMPILE, "-include", "sefrag-missing-header.h"),
                 "fatal error: sefrag-missing-header.h: No such file or directory",
                 id="compiler-error",
                 marks=pytest.mark.skipif(shutil.which("cc") is None, reason="cc is not on PATH")),
])
def test_failed_build_is_recorded_once_and_falls_back(fresh_cache, monkeypatch, compile_command, error):
    monkeypatch.setattr(_native, "COMPILE", compile_command)
    loaded = _native.load()
    assert isinstance(loaded, _native.PythonKernel)
    assert error in loaded.name
    # No library and no temp file: only the failure record is left.
    (record,) = _native.cache_dir().iterdir()
    assert record.name.startswith("kernel-") and record.name.endswith(".failed")
    assert loaded.name == f"python ({record.read_text().strip()})"
    # Not retried in this process, nor by a later one that finds the record.
    assert _native.load() is loaded
    _native.load.cache_clear()
    assert _native.load().name == loaded.name
    assert len(fresh_cache) == 1
    # core runs the pure path and still recovers the content.
    assert isinstance(core._kernel(), _native.PythonKernel)
    _round_trip()


def test_build_is_cached_private_and_loaded_by_later_processes(fresh_cache):
    loaded = _native.load()
    if not isinstance(loaded, _native.Kernel):
        pytest.skip(f"native kernel unavailable: {loaded.name}")
    root = _native.cache_dir()
    assert stat.S_IMODE(root.stat().st_mode) == 0o700
    assert [p.name for p in root.iterdir()] == [loaded.path.name]
    assert loaded.path.suffix == ".so"
    _native.load.cache_clear()
    assert _native.load().path == loaded.path
    assert len(fresh_cache) == 1
    _round_trip()


def test_compile_command_is_part_of_the_library_name(fresh_cache, monkeypatch):
    first = _native.load()
    _native.load.cache_clear()
    monkeypatch.setattr(_native, "COMPILE", (*_native.COMPILE, "-DSEFRAG_VARIANT"))
    second = _native.load()
    if not isinstance(first, _native.Kernel) or not isinstance(second, _native.Kernel):
        pytest.skip(f"native kernel unavailable: {first.name}")
    assert first.path != second.path
    assert len(fresh_cache) == 2



def test_readme_spells_the_compile_command():
    # The README's Install section is the one written copy of the command.
    command = " ".join([*_native.COMPILE, "-o", "<library>", "_kernel.c", *_native.LIBS])
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert f"\n{command}\n" in readme


def test_docs_name_counterparts_that_exist():
    # The C header comment and README's native-kernel section name the
    # Python side of the kernel; each name must still resolve.
    root = Path(__file__).resolve().parent.parent
    header = _native.SOURCE.read_text().split("*/")[0]
    readme = (root / "README.md").read_text()
    section = readme.split("### The native kernel, built on first use")[1].split("\n## ")[0]
    modules = {"core": core, "container": container, "_native": _native}
    pattern = re.compile(r"\b(core|container|_native)((?:\.[A-Za-z_]\w*)+)")
    for text in (header, section):
        names = pattern.findall(text)
        assert len(names) >= 5
        for module, path in names:
            obj = modules[module]
            for attr in path[1:].split("."):
                assert hasattr(obj, attr), f"{module}{path} does not exist"
                obj = getattr(obj, attr)


def test_only_derive_and_cbc_return_a_status():
    # cbc's libcrypto calls are checked too, all but the one with no result.
    checked = {name for name in _native._EVP_SIGNATURES if getattr(_native._libcrypto(), name).errcheck is not None}
    assert checked == set(_native._EVP_SIGNATURES) - {"EVP_CIPHER_CTX_free"}
    kernel = _native.load()
    if not isinstance(kernel, _native.Kernel):
        pytest.skip(f"native kernel unavailable: {kernel.name}")
    checked = {name for name in _native._SIGNATURES if getattr(kernel._lib, name).errcheck is not None}
    assert checked == {"sefrag_derive"}
    assert kernel._lib.sefrag_protect.restype is None and kernel._lib.sefrag_recover.restype is None


def test_kernel_compiles_without_warnings(tmp_path, monkeypatch):
    if not isinstance(_native.load(), _native.Kernel):
        pytest.skip(f"native kernel unavailable: {_native.load().name}")
    monkeypatch.setattr(_native, "COMPILE", (*_native.COMPILE, "-Wall", "-Wextra", "-Werror"))
    reason = _native._build(tmp_path / "kernel.so")
    assert reason is None, reason


def test_kernel_pairs_tool_runs_one_source_against_itself():
    # tools/kernel_pairs.py, one round over one chunk: it builds, times
    # both directions on each side and finds the bytes equal.
    if not isinstance(_native.load(), _native.Kernel):
        pytest.skip(f"native kernel unavailable: {_native.load().name}")
    tool = Path(__file__).resolve().parent.parent / "tools" / "kernel_pairs.py"
    source = str(_native.SOURCE)
    proc = subprocess.run([sys.executable, str(tool), source, source, "--rounds", "1", "--calls", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (line,) = proc.stdout.splitlines()
    result = json.loads(line)
    assert result["equal"] and result["first"] == ["old"]
    assert result["lanes"]["old"] == result["lanes"]["new"] in (1, 16)
    for direction in ("protect_ms", "recover_ms"):
        assert [len(result[direction][side]) for side in ("old", "new")] == [1, 1]
        assert all(ms > 0 for side in ("old", "new") for ms in result[direction][side])


@pytest.mark.skipif(sys.platform != "linux", reason="/proc/thread-self is Linux only")
def test_other_cpus_leaves_out_the_one_the_caller_runs_on():
    # A thread held to one CPU runs there alone: glibc's sched_getcpu and
    # the kernel's record in /proc agree on it, and that thread has no
    # other CPU to offer a helper.
    if _native._sched_getcpu() is None:
        pytest.skip("the C library has no sched_getcpu")
    allowed, found = os.sched_getaffinity(0), {}

    def pinned(cpu):
        os.sched_setaffinity(0, {cpu})  # this thread's alone
        fields = Path("/proc/thread-self/stat").read_text().rsplit(")", 1)[1].split()
        found[cpu] = _native._sched_getcpu()(), int(fields[36]), _native.other_cpus()  # field 39, processor

    for cpu in sorted(allowed):
        thread = threading.Thread(target=pinned, args=(cpu,))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert found == {cpu: (cpu, cpu, set()) for cpu in allowed}
    others = _native.other_cpus()
    assert others < allowed and len(others) == len(allowed) - 1
    assert os.sched_getaffinity(0) == allowed


def test_kernel_checks_buffer_lengths_before_calling_c():
    kernel = _native.load()
    if not isinstance(kernel, _native.Kernel):
        pytest.skip(f"native kernel unavailable: {kernel.name}")
    key = bytes(16)
    with pytest.raises(ValueError):
        kernel.protect(bytes(63), 2, key, 0)
    with pytest.raises(ValueError):
        kernel.protect(bytes(64), 2, bytes(15), 0)
    with pytest.raises(ValueError):
        kernel.recover(bytes(56), bytes(7), 2, key, 0)
    with pytest.raises(ValueError):
        kernel.recover(bytes(55), bytes(8), 2, key, 0)
    with pytest.raises(ValueError):
        kernel.derive(b"pw", 0)
    # Unit 0's selector byte under the zero key is 0xdc: it is masked to 4,
    # never used as an offset.
    assert kernel.protect(bytes(range(32)), 1, key, 0)[1] == bytes(range(16, 20))


def test_unusable_cache_falls_back_without_raising(fresh_cache, tmp_path, monkeypatch):
    # A HOME that is a file: the cache directory cannot be created.
    home = tmp_path / "home-is-a-file"
    home.write_bytes(b"")
    monkeypatch.setenv("HOME", str(home))
    loaded = _native.load()
    assert isinstance(loaded, _native.PythonKernel) and loaded.name != "python ()"
    assert fresh_cache == []
    _round_trip()


def test_cache_writable_by_others_is_not_used(fresh_cache):
    root = _native.cache_dir()
    root.mkdir(parents=True)
    root.chmod(0o777)
    loaded = _native.load()
    assert isinstance(loaded, _native.PythonKernel) and "not private" in loaded.name
    assert fresh_cache == [] and list(root.iterdir()) == []


def test_concurrent_first_uses_build_one_library(tmp_path):
    if not isinstance(_native.load(), _native.Kernel):
        pytest.skip(f"native kernel unavailable: {_native.load().name}")
    env = dict(_package_env(), HOME=str(tmp_path))
    probe = "from sefrag import _native; print(_native.load().name)"
    procs = [subprocess.Popen([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    details = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    (library,) = (tmp_path / ".cache" / "sefrag").iterdir()
    assert library.suffix == ".so"
    assert details[0] == details[1] and details[0] in native_names(library)


def test_both_kernels_have_one_interface(fresh_cache, monkeypatch):
    """``core._kernel()`` has ``protect``, ``recover``, ``derive`` and a
    ``name`` whether the native build succeeds or fails, and both give
    the same bytes."""
    built = core._kernel()
    if isinstance(built, _native.Kernel):
        assert built.name in native_names(built.path)
    _native.load.cache_clear()
    monkeypatch.setattr(_native, "COMPILE", ("sefrag-no-such-compiler", *_native.COMPILE[1:]))
    fallback = core._kernel()
    assert isinstance(fallback, _native.PythonKernel)
    assert fallback.name.startswith("python (") and "sefrag-no-such-compiler" in fallback.name
    units, key = bytes(range(64)), bytes(range(16))
    outputs = []
    for kernel in (built, fallback):
        assert all(callable(getattr(kernel, fn)) for fn in ("protect", "recover", "derive"))
        public, picked = kernel.protect(units, 2, key, 5)
        assert kernel.recover(public, picked, 2, key, 5) == units
        with pytest.raises(ValueError):
            kernel.derive(b"pw", 0)
        outputs.append((public, picked, kernel.derive(b"pw", 3)))
    assert outputs[0] == outputs[1]


# NIST SP 800-38A, F.2.1 and F.2.2: CBC-AES128, the first two blocks.
NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_PLAIN = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51")
NIST_CIPHER = bytes.fromhex("7649abac8119b246cee98e9b12e9197d" "5086cb9b507219ee95db113a917678b2")


class TestCbc:
    """``_native.cbc``, the one AES of both kernels: a stream whose
    ``update`` carries the chain in one libcrypto context."""

    def test_nist_vectors(self):
        assert _native.cbc(NIST_KEY, NIST_IV, True)(NIST_PLAIN) == NIST_CIPHER
        assert _native.cbc(NIST_KEY, NIST_IV, False)(NIST_CIPHER) == NIST_PLAIN
        assert _native.cbc(NIST_KEY, NIST_IV, True)(b"") == b""

    def test_matches_cryptography_on_random_inputs(self):
        rng = random.Random(31)
        for size in (0, 16, 48, 16 << 10):
            key, iv, data = rng.randbytes(16), rng.randbytes(16), rng.randbytes(size)
            cipher = Cipher(algorithms.AES(key), modes.CBC(iv))
            encryptor, decryptor = cipher.encryptor(), cipher.decryptor()
            assert _native.cbc(key, iv, True)(data) == encryptor.update(data) + encryptor.finalize(), size
            assert _native.cbc(key, iv, False)(data) == decryptor.update(data) + decryptor.finalize(), size

    def test_chaining_across_split_updates_matches_one_call(self):
        rng = random.Random(38)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        sizes = [0, 1, 15, 16, 17, 16 << 10, 15]  # the last piece completes the final block
        data = rng.randbytes(sum(sizes))
        ends = list(itertools.accumulate(sizes))
        bounds = list(zip([0] + ends, ends))
        pieces = [data[start:end] for start, end in bounds]
        whole = _native.cbc(key, iv, True)(data)
        encrypt = _native.cbc(key, iv, True)
        outputs = [encrypt(piece) for piece in pieces]
        assert b"".join(outputs) == whole
        # Each update returns exactly the whole blocks completed so far.
        assert [len(out) for out in outputs] == [0, 0, 16, 16, 16, 16 << 10, 16]
        decrypt = _native.cbc(key, iv, False)
        assert b"".join(decrypt(whole[start:end]) for start, end in bounds) == data

    def test_bad_lengths_raise_before_c_runs(self, monkeypatch):
        class Huge:
            """A stand-in whose length is a whole number of blocks past a C int."""

            def __len__(self):
                return 2**31

        class Recorder:
            """A libcrypto stand-in that records each function looked up."""

            def __getattr__(self, name):
                looked_up.append(name)
                return lambda *args: 1

        looked_up = []
        monkeypatch.setattr(_native, "_libcrypto", Recorder)
        key, iv = bytes(16), bytes(16)
        for bad in [(bytes(15), iv), (bytes(17), iv), (key, bytes(15)), (key, bytes(17))]:
            for encrypt in (True, False):
                with pytest.raises(ValueError):
                    _native.cbc(*bad, encrypt)
        assert looked_up == []
        # A good stream reaches the recorder, but an update past a C int does not.
        for encrypt in (True, False):
            update = _native.cbc(key, iv, encrypt)
            with pytest.raises(ValueError):
                update(Huge())
            assert "EVP_CipherUpdate" not in looked_up
        update(bytes(16))
        assert "EVP_CipherUpdate" in looked_up

    @pytest.fixture
    def libcrypto_calls(self, monkeypatch):
        """A Counter of the contexts ``cbc`` makes and frees, and the byte
        counts it gives ``EVP_CipherUpdate`` (under ``"update bytes"``),
        counted by a proxy in front of libcrypto."""
        lib, calls = _native._libcrypto(), collections.Counter()

        class Counting:
            """libcrypto, counting the contexts and the bytes ciphered."""

            def __getattr__(self, name):
                fn = getattr(lib, name)
                if name not in ("EVP_CIPHER_CTX_new", "EVP_CIPHER_CTX_free", "EVP_CipherUpdate"):
                    return fn

                def counted(*args):
                    calls[name] += 1
                    if name == "EVP_CipherUpdate":
                        calls["update bytes"] += args[4]
                    return fn(*args)

                return counted

        monkeypatch.setattr(_native, "_libcrypto", Counting)
        return calls

    def test_every_stream_frees_its_one_context(self, libcrypto_calls):
        rng = random.Random(33)
        key, data = ProtectionKey(rng.randbytes(16)), rng.randbytes(3 * core.CHUNK_UNITS * core.UNIT_LEN + 4096)
        puf, prf = container.seal(data, key)  # one
        assert container.open(puf, prf, key) == data  # one: the padding check and the pass
        _, pieces = container.seal_stream(io.BytesIO(data), lambda _salt: key)
        next(pieces), next(pieces)  # the headers and the first chunk, then dropped: one
        del pieces
        with pytest.raises(IntegrityFailure, match="padding"):  # one
            container.open(puf, prf, ProtectionKey(rng.randbytes(16)))
        flipped = prf._replace(ciphertext=bytes([prf.ciphertext[0] ^ 1]) + prf.ciphertext[1:])
        with pytest.raises(IntegrityFailure, match="digest"):  # one
            container.open(puf, flipped, key)
        gc.collect()
        # Once per pass, not per chunk: each pass above spans four chunks.
        assert (libcrypto_calls["EVP_CIPHER_CTX_new"], libcrypto_calls["EVP_CIPHER_CTX_free"]) == (5, 5)

    def test_a_wrong_key_fails_on_one_block_before_any_public_byte(self, libcrypto_calls):
        rng = random.Random(35)
        key, data = ProtectionKey(rng.randbytes(16)), rng.randbytes(3 * core.CHUNK_UNITS * core.UNIT_LEN + 4096)
        puf, prf = container.seal(data, key)
        gc.collect()
        libcrypto_calls.clear()
        puf_src, prf_src = io.BytesIO(puf.to_bytes()), io.BytesIO(prf.to_bytes())
        with pytest.raises(IntegrityFailure, match="padding"):
            container.open_stream(puf_src, prf_src, lambda _salt: ProtectionKey(rng.randbytes(16)))
        gc.collect()
        # One context, one block deciphered, and the .puf still at its payload.
        assert libcrypto_calls == {"EVP_CIPHER_CTX_new": 1, "EVP_CIPHER_CTX_free": 1,
                                   "EVP_CipherUpdate": 1, "update bytes": 16}
        assert puf_src.tell() == len(puf.to_bytes()) - len(puf.puf_payload)

    def test_a_libcrypto_without_the_evp_calls_is_an_os_error(self, monkeypatch):
        monkeypatch.setitem(_native._EVP_SIGNATURES, "EVP_sefrag_no_such_call", (None, ()))
        _native._libcrypto.cache_clear()
        try:
            with pytest.raises(OSError, match="_hashlib.*EVP_sefrag_no_such_call"):
                _native.cbc(bytes(16), bytes(16), True)
        finally:
            _native._libcrypto.cache_clear()
