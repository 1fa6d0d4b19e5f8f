"""What the package loads: ``import sefrag`` loads no submodule, the
protect/recover start path stays narrow, and every public name has one
home, the module that defines it."""

import hashlib
import importlib
import os
import socket
import subprocess
import sys

import pytest
from conftest import _package_env

import sefrag
from sefrag import core

KEY = "000102030405060708090a0b0c0d0e0f"

# Modules only the storage, sharing, analysis and bench commands use.
OFF_PATH = ["sefrag.analysis", "sefrag.bench", "sefrag.dispersion", "sefrag.sharing"]

# Standard modules the one-shot start path must not import: logging costs
# several milliseconds per process, and concurrent.futures imports it; a
# long pass runs its second worker in C, so it needs no queue either.
NOT_AT_START = {"logging", "concurrent.futures", "queue"}

# Heavy modules that protect and recover leave unloaded: dataclasses
# imports inspect, and no sefrag module imports cryptography, since
# _native.cbc runs the AES on the libcrypto hashlib maps.
HEAVY = {"dataclasses", "inspect", "cryptography"}

# Each module and the public names it defines; none may go missing.
HOMES = {
    "analysis": "entropy histogram pdf_csv",
    "bench": "BenchReport run_bench",
    "container": "PrfContainer PufContainer derive_key open seal",
    "core": "ProtectedStreams ProtectionKey protect recover",
    "dispersion": "BlobRef BlobServer DirectoryBackend Placement PlacementIndex RemoteBackend disperse",
    "errors": "BackendUnavailable FormatError IntegrityFailure NotFound SefragError",
    "sharing": "Decision PolicyStore grant release request_access revoke",
}
HOME_OF = {name: module for module, names in HOMES.items() for name in names.split()}

# Runs ``python -m sefrag ARGV`` the way the interpreter does, then reports
# the exit status and the modules that were loaded.
PROBE = """
import runpy, sys
sys.argv = ["sefrag", *sys.argv[1:]]
try:
    runpy.run_module("sefrag", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("exit", code, *sorted(sys.modules))
"""


def _fresh(*argv, cwd) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_package_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    word, code, *modules = proc.stdout.splitlines()[-1].split()
    assert word == "exit"
    return int(code), modules


class TestStartPath:
    def test_import_sefrag_loads_no_submodule(self, tmp_path):
        # The exit word is 1 if the package root answers for a public name.
        code, modules = _fresh(
            "-c", "import sys, sefrag; m = sorted(sys.modules); print('exit', int(hasattr(sefrag, 'seal')), *m)",
            cwd=tmp_path,
        )
        assert "sefrag" in modules
        assert not [m for m in modules if m.startswith("sefrag.")]
        assert code == 0

    def test_import_cli(self, tmp_path):
        code, modules = _fresh(
            "-c", "import sys, sefrag.cli; print('exit 0', *sorted(sys.modules))", cwd=tmp_path
        )
        assert "sefrag.cli" in modules
        assert not set(OFF_PATH) & set(modules)
        # The native kernel loads on the first chunk or KDF call, not at import.
        assert not {"ctypes", "sefrag._native"} & set(modules)
        assert not NOT_AT_START & set(modules)
        assert not HEAVY & set(modules)

    def test_protect_then_recover_with_passphrase_file(self, tmp_path):
        src = tmp_path / "scan.bin"
        src.write_bytes(bytes(128) + b"DICM" + os.urandom(5000))
        pw = tmp_path / "pw.txt"
        pw.write_bytes(b"correct horse\n")
        code, modules = _fresh(
            "-c", PROBE, "protect", src, "--mode", "dicom", "--passphrase-file", pw,
            "--out-dir", tmp_path / "w", cwd=tmp_path,
        )
        assert code == 0
        assert "sefrag.container" in modules
        assert not set(OFF_PATH) & set(modules)
        code, modules = _fresh(
            "-c", PROBE, "recover", tmp_path / "w" / "scan.puf", tmp_path / "w" / "scan.prf",
            "--passphrase-file", pw, "--out", tmp_path / "back.bin", cwd=tmp_path,
        )
        assert code == 0
        assert not set(OFF_PATH) & set(modules)
        assert (tmp_path / "back.bin").read_bytes() == src.read_bytes()

    def test_protect_with_a_warm_kernel_cache_does_not_import_subprocess(self, tmp_path):
        # Only a build runs the compiler; loading the cached library (or
        # reading a recorded failure) needs no subprocess.  Either kernel
        # keeps the heavy modules out.
        src = tmp_path / "scan.bin"
        src.write_bytes(os.urandom(5000))
        pw = tmp_path / "pw.txt"
        pw.write_bytes(b"correct horse\n")
        runs = [
            ("protect", src, "--key-hex", KEY, "--out-dir", tmp_path / "w"),
            ("protect", src, "--passphrase-file", pw, "--out-dir", tmp_path / "p"),
            ("recover", tmp_path / "p" / "scan.puf", tmp_path / "p" / "scan.prf", "--passphrase-file", pw,
             "--out", tmp_path / "back.bin"),
        ]
        for argv in runs:
            code, modules = _fresh("-c", PROBE, *argv, cwd=tmp_path)
            assert code == 0
            assert "sefrag._native" in modules
            assert "subprocess" not in modules
            assert not NOT_AT_START & set(modules)
            assert not HEAVY & set(modules)
        assert (tmp_path / "back.bin").read_bytes() == src.read_bytes()

    def test_three_chunk_pass_loads_nothing_more(self, tmp_path):
        # A pass of three chunks or more runs a second worker where another
        # CPU is allowed, a thread the kernel starts: it loads no module that
        # a short pass, which starts none, leaves out, threading included.
        found = {}
        for name, size in (("short", 5000), ("long", 3 * 32 * core.CHUNK_UNITS + 5)):
            src = tmp_path / f"{name}.bin"
            src.write_bytes(os.urandom(size))
            vault, back = tmp_path / f"{name}-vault", tmp_path / f"{name}-back.bin"
            for argv in (("protect", src, "--key-hex", KEY, "--out-dir", vault),
                         ("recover", vault / f"{name}.puf", vault / f"{name}.prf", "--key-hex", KEY, "--out", back)):
                code, modules = _fresh("-c", PROBE, *argv, cwd=tmp_path)
                assert code == 0
                found[name, argv[0]] = set(modules)
            assert back.read_bytes() == src.read_bytes()
        for command in ("protect", "recover"):
            short, long = found["short", command], found["long", command]
            assert long == short, command
            assert not (NOT_AT_START | HEAVY | {"subprocess"}) & long, command

    def test_bench_loads_no_cryptography(self, tmp_path):
        code, modules = _fresh("-c", PROBE, "bench", "--size-mb", "1", "--iterations", "1", cwd=tmp_path)
        assert code == 0
        assert "sefrag.bench" in modules
        assert "cryptography" not in modules

    def test_analysis_commands_load_no_dataclasses(self, tmp_path):
        src = tmp_path / "scan.bin"
        src.write_bytes(os.urandom(5000))
        for argv in (("entropy", src), ("pdf", src, "--out", tmp_path / "pdf.csv")):
            code, modules = _fresh("-c", PROBE, *argv, cwd=tmp_path)
            assert code == 0
            assert "sefrag.analysis" in modules
            assert not {"dataclasses", "inspect"} & set(modules)
        assert len((tmp_path / "pdf.csv").read_text().splitlines()) == 256

    def test_store_command_loads_its_modules(self, tmp_path, capsys):
        # BlobRef and Placement are namedtuples and sharing keeps plain dicts
        # and sets, so no storage or sharing command loads dataclasses; a
        # sharing command that fetches nothing loads no wire stack either.
        from sefrag import cli

        src, store = tmp_path / "scan.bin", tmp_path / "s"
        src.write_bytes(os.urandom(5000))
        assert cli.main(["protect", str(src), "--key-hex", KEY, "--out-dir", str(tmp_path / "w")]) == 0
        record = capsys.readouterr().out.strip()
        puf, prf = tmp_path / "w" / "scan.puf", tmp_path / "w" / "scan.prf"
        blob = hashlib.sha256(puf.read_bytes()).hexdigest()
        light = {"dataclasses", "inspect", "socketserver"}
        policy_only = light | {"sefrag.dispersion", "mmap"}
        with socket.create_server(("127.0.0.1", 0)) as taken:
            runs = [
                (("get", "00" * 32, "--store", store, "--out", tmp_path / "x"), 5, "sefrag.dispersion", light),
                (("put", puf, prf, "--store", store), 0, "sefrag.dispersion", light),
                (("get", blob, "--store", store, "--out", tmp_path / "x"), 0, "sefrag.dispersion", light),
                (("request", record, "--as", "o", "--role", "owner", "--store", store, "--out-dir", tmp_path / "out"),
                 0, "sefrag.sharing", light),
                (("request", record, "--as", "carol", "--store", store), 0, "sefrag.sharing", policy_only),
                (("grant", record, "carol", "--as", "o", "--store", store), 0, "sefrag.sharing", policy_only),
                (("serve", "--bind", "127.0.0.1:%d" % taken.getsockname()[1], "--root", tmp_path / "srv"),
                 6, "sefrag.dispersion", light),
            ]
            for argv, expected, module, absent in runs:
                code, modules = _fresh("-c", PROBE, *argv, cwd=tmp_path)
                assert code == expected, argv
                assert module in modules
                assert not absent & set(modules), argv
        assert (tmp_path / "x").read_bytes() == puf.read_bytes()
        assert sorted(os.listdir(tmp_path / "out")) == [record + ".prf", record + ".puf"]


class TestPublicNames:
    @pytest.mark.parametrize("name", sorted(HOME_OF))
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module("sefrag." + HOME_OF[name])
        assert getattr(home, name).__module__ == home.__name__
        assert not hasattr(sefrag, name)

    def test_from_imports(self):
        from sefrag import dispersion
        from sefrag.dispersion import PlacementIndex

        assert PlacementIndex is dispersion.PlacementIndex
        with pytest.raises(ImportError):
            exec("from sefrag import PlacementIndex", {})

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sefrag.no_such_name
        with pytest.raises(ImportError):
            exec("from sefrag import no_such_name", {})
        assert not hasattr(sefrag, "serve")
