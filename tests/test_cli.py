import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import _package_env

from sefrag import _native, cli, container, core, errors
from sefrag.cli import main
from sefrag.container import PufContainer
from sefrag.dispersion import PlacementIndex, RemoteBackend

KEY = "000102030405060708090a0b0c0d0e0f"
OTHER_KEY = "ffeeddccbbaa99887766554433221100"
# Passphrase flags whose key would fail if it were asked for: a missing
# file, or a prompt that a test replaces with pytest.fail.
UNREACHABLE_KEY = pytest.mark.parametrize("key_flag", [["--passphrase-file", "missing.txt"], ["--passphrase"]],
                                          ids=["missing-file", "prompt"])


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def parser_exit_code(*argv) -> int:
    """The code of the ``SystemExit`` argparse raises on rejecting ``argv``."""
    with pytest.raises(SystemExit) as exited:
        run_cli(*argv)
    return exited.value.code


def run_with_file_size_limit(limit: int, *argv) -> subprocess.CompletedProcess:
    """``python -m sefrag argv`` in a child that may write at most ``limit``
    bytes to any one file: a longer write stops partway with EFBIG, as on
    a disk that fills up mid-write."""
    resource = pytest.importorskip("resource")

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    return subprocess.run(
        [sys.executable, "-m", "sefrag", *map(str, argv)],
        env=_package_env(), capture_output=True, text=True, preexec_fn=limit_file_size, timeout=60,
    )


def puf_head(path) -> bytes:
    """The plaintext head a ``.puf`` file carries."""
    return PufContainer.from_bytes(Path(path).read_bytes()).head


def mismatched_pair(tmp_path) -> tuple[Path, Path]:
    """The ``.puf`` of one record and the ``.prf`` of another, sealed under KEY."""
    for name in ("a", "b"):
        (tmp_path / f"{name}.bin").write_bytes(os.urandom(500))
        assert run_cli("protect", tmp_path / f"{name}.bin", "--key-hex", KEY, "--out-dir", tmp_path / "w") == 0
    return tmp_path / "w" / "a.puf", tmp_path / "w" / "b.prf"


@pytest.fixture
def sample(tmp_path):
    src = tmp_path / "sample.bin"
    src.write_bytes(bytes(range(256)) * 300 + b"tail")
    return src


class TestProtectRecover:
    def test_round_trip_bitwise(self, sample, tmp_path, capsys):
        assert run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w") == 0
        record = capsys.readouterr().out.strip()
        assert len(record) == 32 and bytes.fromhex(record)
        out = tmp_path / "back.bin"
        assert (
            run_cli(
                "recover",
                tmp_path / "w" / "sample.puf",
                tmp_path / "w" / "sample.prf",
                "--key-hex",
                KEY,
                "--out",
                out,
            )
            == 0
        )
        assert out.read_bytes() == sample.read_bytes()

    def test_missing_input_exits_2(self, tmp_path):
        assert run_cli("protect", tmp_path / "absent.bin", "--key-hex", KEY) == 2

    def test_dicom_mode_on_plain_file_exits_3(self, sample, tmp_path):
        assert run_cli("protect", sample, "--key-hex", KEY, "--mode", "dicom") == 3

    def test_wrong_key_exits_4_and_leaves_no_file(self, sample, tmp_path):
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        out = tmp_path / "nope.bin"
        code = run_cli(
            "recover",
            tmp_path / "w" / "sample.puf",
            tmp_path / "w" / "sample.prf",
            "--key-hex",
            OTHER_KEY,
            "--out",
            out,
        )
        assert code == 4
        assert not out.exists()

    def test_swapped_arguments_exit_3(self, sample, tmp_path):
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        code = run_cli(
            "recover",
            tmp_path / "w" / "sample.prf",
            tmp_path / "w" / "sample.puf",
            "--key-hex",
            KEY,
            "--out",
            tmp_path / "x.bin",
        )
        assert code == 3

    def test_no_key_flag_exits_2(self, sample):
        assert parser_exit_code("protect", sample) == 2

    @pytest.mark.parametrize("pair", [("--key-hex", KEY, "--passphrase"),
                                      ("--key-hex", KEY, "--passphrase-file", "pw.txt"),
                                      ("--passphrase", "--passphrase-file", "pw.txt")])
    def test_two_key_flags_exit_2_and_write_nothing(self, pair, sample, tmp_path, monkeypatch, capsys):
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pw.txt").write_bytes(b"correct horse\n")
        monkeypatch.setattr("getpass.getpass", lambda prompt="": pytest.fail("prompted"))
        capsys.readouterr()
        out = tmp_path / "o"
        assert parser_exit_code("protect", sample, *pair, "--out-dir", out) == 2
        assert parser_exit_code("recover", tmp_path / "w" / "sample.puf", tmp_path / "w" / "sample.prf",
                                *pair, "--out", out / "back.bin") == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_empty_key_flag_value_exits_2_and_never_prompts(self, sample, tmp_path, monkeypatch, capsys):
        # An empty value is still the flag given, not a missing one that
        # would fall through to the passphrase prompt.
        monkeypatch.setattr("getpass.getpass", lambda prompt="": pytest.fail("prompted"))
        for flag in ("--key-hex", "--passphrase-file"):
            assert run_cli("protect", sample, flag, "", "--out-dir", tmp_path / "w") == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "w").exists()

    def test_bad_key_hex_exits_2(self, sample):
        assert run_cli("protect", sample, "--key-hex", "zz") == 2

    def test_key_hex_with_spaces_exits_2_and_writes_nothing(self, sample, tmp_path, capsys):
        spaced = " ".join(KEY[i:i + 2] for i in range(0, 32, 2))
        assert run_cli("protect", sample, "--key-hex", spaced, "--out-dir", tmp_path / "w") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: protection key must be 32 hex chars\n"
        assert not (tmp_path / "w").exists()

    def test_passphrase_file_round_trip(self, sample, tmp_path):
        pw = tmp_path / "pw.txt"
        pw.write_bytes(b"correct horse\n")
        assert (
            run_cli(
                "protect", sample, "--passphrase-file", pw, "--out-dir", tmp_path / "w"
            )
            == 0
        )
        out = tmp_path / "back.bin"
        # salt travels in the private container, so the passphrase alone suffices
        assert (
            run_cli(
                "recover",
                tmp_path / "w" / "sample.puf",
                tmp_path / "w" / "sample.prf",
                "--passphrase-file",
                pw,
                "--out",
                out,
            )
            == 0
        )
        assert out.read_bytes() == sample.read_bytes()

    def test_prompted_passphrase(self, sample, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("getpass.getpass", lambda prompt="": "spoken secret")
        assert run_cli("protect", sample, "--passphrase", "--out-dir", tmp_path / "w") == 0
        out = tmp_path / "back.bin"
        assert (
            run_cli(
                "recover",
                tmp_path / "w" / "sample.puf",
                tmp_path / "w" / "sample.prf",
                "--passphrase",
                "--out",
                out,
            )
            == 0
        )
        assert out.read_bytes() == sample.read_bytes()

    def test_cross_record_pair_exits_4(self, tmp_path, capsys):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(os.urandom(500))
        b.write_bytes(os.urandom(500))
        run_cli("protect", a, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        run_cli("protect", b, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        code = run_cli(
            "recover",
            tmp_path / "w" / "a.puf",
            tmp_path / "w" / "b.prf",
            "--key-hex",
            KEY,
            "--out",
            tmp_path / "x.bin",
        )
        assert code == 4

    @UNREACHABLE_KEY
    def test_not_dicom_exits_3_before_the_key(self, key_flag, sample, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("getpass.getpass", lambda prompt="": pytest.fail("prompted"))
        assert run_cli("protect", sample, "--mode", "dicom", *key_flag, "--out-dir", tmp_path / "w") == 3
        assert not (tmp_path / "w").exists()

    @UNREACHABLE_KEY
    def test_mismatched_pair_exits_4_before_the_key(self, key_flag, tmp_path, monkeypatch):
        puf, prf = mismatched_pair(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("getpass.getpass", lambda prompt="": pytest.fail("prompted"))
        assert run_cli("recover", puf, prf, *key_flag, "--out", tmp_path / "x.bin") == 4
        assert not (tmp_path / "x.bin").exists()

    def test_mismatched_pair_derives_no_key(self, tmp_path, monkeypatch):
        puf, prf = mismatched_pair(tmp_path)
        (tmp_path / "pw.txt").write_bytes(b"correct horse\n")
        monkeypatch.setattr(container, "derive_key", lambda *args: pytest.fail("derived a key"))
        assert run_cli("recover", puf, prf, "--passphrase-file", tmp_path / "pw.txt", "--out", tmp_path / "x.bin") == 4

    def test_raw_key_record_with_a_passphrase_exits_4_before_the_key(self, sample, tmp_path):
        # The .prf's all-zero KDF salt marks a raw key: the passphrase file is never read.
        assert run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w") == 0
        proc = subprocess.run(
            [sys.executable, "-m", "sefrag", "recover", tmp_path / "w" / "sample.puf", tmp_path / "w" / "sample.prf",
             "--passphrase-file", "/nonexistent", "--out", tmp_path / "x.bin"],
            env=_package_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == "" and "--key-hex" in proc.stderr
        assert not (tmp_path / "x.bin").exists()

    def test_failed_puf_rename_leaves_only_the_prf(self, sample, tmp_path, monkeypatch, capsys):
        # cmd_protect's .puf write encloses its .prf write, so the .prf is
        # renamed first: a .puf never lands without its .prf beside it.
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).suffix == ".puf":
                raise OSError(28, "No space left on device", str(dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "w"
        assert run_cli("protect", sample, "--key-hex", KEY, "--out-dir", out) == 2
        assert capsys.readouterr().out == ""
        assert os.listdir(out) == ["sample.prf"]

    def test_output_cut_short_leaves_nothing(self, sample, tmp_path):
        out = tmp_path / "w"
        proc = run_with_file_size_limit(32 << 10, "protect", sample, "--key-hex", KEY, "--out-dir", out)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert os.listdir(out) == []

    def test_output_cut_short_keeps_existing_pair(self, sample, tmp_path):
        out = tmp_path / "w"
        assert run_cli("protect", sample, "--key-hex", KEY, "--out-dir", out) == 0
        before = {name: (out / name).read_bytes() for name in ("sample.puf", "sample.prf")}
        proc = run_with_file_size_limit(32 << 10, "protect", sample, "--key-hex", OTHER_KEY, "--out-dir", out)
        assert proc.returncode == 2
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


class TestExitCodes:
    # The documented code for every error class the commands raise,
    # written out here rather than read from the classes.
    DOCUMENTED = [
        (ValueError, 2),
        (OSError, 2),
        (FileNotFoundError, 2),
        (errors.FormatError, 3),
        (errors.IntegrityFailure, 4),
        (errors.NotFound, 5),
        (errors.BackendUnavailable, 6),
    ]

    def test_every_error_class_is_listed(self):
        raised = {cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.SefragError)}
        assert raised - {errors.SefragError} <= {cls for cls, _ in self.DOCUMENTED}

    @pytest.mark.parametrize("exc_type, code", DOCUMENTED, ids=lambda v: getattr(v, "__name__", str(v)))
    def test_error_maps_to_documented_code(self, exc_type, code, tmp_path, monkeypatch, capsys):
        def failing(args):
            raise exc_type("simulated failure")

        monkeypatch.setattr(cli, "cmd_entropy", failing)
        assert run_cli("entropy", tmp_path / "any") == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: simulated failure\n"

    @pytest.mark.parametrize("case", [
        "not-dicom", "too-short", "empty-passphrase", "unknown-record", "port-taken",
        "wrong-key", "raw-key-record", "mismatched-pair", "not-owner", "empty-entropy",
    ])
    def test_case_without_its_own_class_keeps_code_and_message(self, case, tmp_path, capsys):
        # Cases that share an error class: the message tells them apart, and nothing is written.
        src, out = tmp_path / "scan.bin", tmp_path / "out"
        src.write_bytes(bytes(300))
        (tmp_path / "empty.txt").write_bytes(b"")
        record = "ab" * container.FILE_ID_LEN
        # A pair sealed with --key-hex KEY, the .prf of another record, and a store alice owns.
        puf, other_prf = mismatched_pair(tmp_path)
        prf = puf.with_suffix(".prf")
        puf_id, other_id = capsys.readouterr().out.split()
        assert run_cli("grant", record, "carol", "--as", "alice", "--store", tmp_path / "s") == 0
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            argv, code, message = {
                "not-dicom": (["protect", src, "--key-hex", KEY, "--mode", "dicom", "--out-dir", out],
                              3, "no DICM marker at offset 128\n"),
                "too-short": (["protect", src, "--key-hex", KEY, "--mode", "fixed:999", "--out-dir", out],
                              3, "input is 300 bytes, fixed header wants 999\n"),
                "empty-passphrase": (["protect", src, "--passphrase-file", tmp_path / "empty.txt", "--out-dir", out],
                                     2, "passphrase must not be empty\n"),
                "unknown-record": (["request", record, "--as", "bob", "--store", tmp_path / "s", "--out-dir", out],
                                   5, f"no placement for record {record}\n"),
                # The OS's reason follows the address.
                "port-taken": (["serve", "--bind", f"127.0.0.1:{port}", "--root", out], 6,
                               f"cannot bind 127.0.0.1:{port}: "),
                "wrong-key": (["recover", puf, prf, "--key-hex", OTHER_KEY, "--out", out / "x.bin"],
                              4, "private stream padding invalid (wrong key?)\n"),
                "raw-key-record": (["recover", puf, prf, "--passphrase-file", tmp_path / "empty.txt",
                                    "--out", out / "x.bin"],
                                   4, "the record was sealed with a raw key: recover it with --key-hex\n"),
                "mismatched-pair": (["recover", puf, other_prf, "--key-hex", KEY, "--out", out / "x.bin"],
                                    4, f"public fragment {puf_id} does not pair with private fragment {other_id}\n"),
                "not-owner": (["grant", record, "dave", "--as", "mallory", "--store", tmp_path / "s"],
                              4, "store is owned by 'alice', not 'mallory'\n"),
                "empty-entropy": (["entropy", tmp_path / "empty.txt"], 5, "entropy is undefined for empty input\n"),
            }[case]
            assert run_cli(*argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def failing(args):
            raise KeyError("not a documented failure")

        monkeypatch.setattr(cli, "cmd_entropy", failing)
        with pytest.raises(KeyError):
            run_cli("entropy", tmp_path / "any")


# Imports sefrag.cli and runs ``entropy FILE`` twice in one process, then
# prints how many ArgumentParser objects existed after the import and
# after each call.
COUNT_PARSERS = """
import argparse, sys
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from sefrag import cli
counts = [built]
for _ in range(2):
    assert cli.main(["entropy", sys.argv[1]]) == 0
    counts.append(built)
print(*counts)
"""


class TestParserReuse:
    def test_parser_is_built_on_first_call_only(self, tmp_path):
        path = tmp_path / "zeros.bin"
        path.write_bytes(bytes(64))
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_PARSERS, str(path)],
            env=_package_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        after_import, after_first, after_second = map(int, proc.stdout.split()[-3:])
        assert after_import == 0
        assert after_first > 0
        assert after_second == after_first

    def test_replaced_command_takes_effect_after_parser_is_built(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "zeros.bin"
        path.write_bytes(bytes(64))
        assert run_cli("entropy", path) == 0
        assert capsys.readouterr().out == "0.0000\n"
        seen = []

        def replaced(args):
            seen.append(args.path)
            return 0

        monkeypatch.setattr(cli, "cmd_entropy", replaced)
        assert run_cli("entropy", path) == 0
        assert seen == [str(path)]
        assert capsys.readouterr().out == ""

    def test_protect_mode_defaults_to_raw_after_a_fixed_split(self, sample, tmp_path):
        assert run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "a", "--mode", "fixed:4") == 0
        assert run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "b") == 0
        assert puf_head(tmp_path / "a" / "sample.puf") == sample.read_bytes()[:4]
        assert puf_head(tmp_path / "b" / "sample.puf") == b""

    def test_request_keeps_the_head_after_an_anonymized_request(self, sample, tmp_path, capsys):
        work, store = tmp_path / "w", tmp_path / "store"
        assert run_cli("protect", sample, "--key-hex", KEY, "--out-dir", work, "--mode", "fixed:4") == 0
        record = capsys.readouterr().out.strip()
        assert run_cli("put", work / "sample.puf", work / "sample.prf", "--store", store) == 0
        heads = []
        for out, extra in ((tmp_path / "anon", ["--anonymize"]), (tmp_path / "plain", [])):
            assert run_cli("request", record, "--as", "peer", "--store", store, "--out-dir", out, *extra) == 0
            heads.append(puf_head(out / f"{record}.puf"))
        assert heads == [b"", sample.read_bytes()[:4]]


class TestAnalysisCommands:
    def test_entropy_of_zero_file(self, tmp_path, capsys):
        path = tmp_path / "zeros.bin"
        path.write_bytes(bytes(4096))
        assert run_cli("entropy", path) == 0
        assert capsys.readouterr().out.strip() == "0.0000"

    def test_entropy_of_sealed_payload(self, tmp_path, capsys):
        src = tmp_path / "pattern.bin"
        src.write_bytes(b"patient record 1234\n" * 13108)
        run_cli("protect", src, "--key-hex", KEY, "--out-dir", tmp_path)
        capsys.readouterr()
        assert run_cli("entropy", tmp_path / "pattern.puf") == 0
        assert float(capsys.readouterr().out) > 7.99

    def test_entropy_of_private_container_parses(self, sample, tmp_path, capsys):
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        capsys.readouterr()
        assert run_cli("entropy", tmp_path / "w" / "sample.prf") == 0
        assert 0.0 <= float(capsys.readouterr().out) <= 8.0

    def test_entropy_of_empty_file_exits_5(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert run_cli("entropy", path) == 5

    def test_pdf_has_256_rows(self, sample, tmp_path):
        out = tmp_path / "dist.csv"
        assert run_cli("pdf", sample, "--out", out) == 0
        assert len(out.read_text().strip().splitlines()) == 256

    def test_pdf_cut_short_leaves_nothing(self, sample, tmp_path):
        out = tmp_path / "w"
        out.mkdir()
        proc = run_with_file_size_limit(1 << 10, "pdf", sample, "--out", out / "pdf.csv")
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert os.listdir(out) == []


class TestBenchCommand:
    def test_bench_csv_exits_2_and_writes_nothing(self, tmp_path):
        csv = tmp_path / "timings.csv"
        assert parser_exit_code("bench", "--size-mb", 1, "--iterations", 1, "--csv", csv) == 2
        assert not csv.exists()

    def test_bench_names_the_kernel_it_timed_on_stderr(self, capsys, monkeypatch):
        assert run_cli("bench", "--size-mb", 1, "--iterations", 1) == 0
        out, err = capsys.readouterr()
        kernel = core._kernel()
        native = isinstance(kernel, _native.Kernel)
        assert err.splitlines() == [f"kernel {kernel.name}"]
        assert kernel.name.startswith(f"native ({kernel.path}, " if native else "python (")
        labels = [line[:20].rstrip() for line in out.splitlines()]
        assert labels == ["input size", "iterations", "selective", "selective runs, ms",
                          "aes-128-cbc (full)", "aes-128-cbc runs, ms", "ratio",
                          "aes bytes, selective", "aes bytes, baseline"]
        python = _native.PythonKernel("cc: not found")
        monkeypatch.setattr(core, "_kernel", lambda: python)
        assert run_cli("bench", "--size-mb", 1, "--iterations", 1) == 0
        assert capsys.readouterr().err == "kernel python (cc: not found)\n"

    def test_bench_size_zero_exits_2(self):
        assert run_cli("bench", "--size-mb", 0) == 2

    def test_bench_size_past_one_aes_call_exits_2_before_allocating(self, capsys, monkeypatch):
        # The baseline is one cbc update, whose length is a C int.
        monkeypatch.setattr(os, "urandom", lambda n: pytest.fail(f"asked for {n} random bytes"))
        assert run_cli("bench", "--size-mb", 2048) == 2
        assert capsys.readouterr() == ("", "error: bench size must be below 2048 MB\n")


# Runs ``sefrag ARGV`` in a child whose import of MODULE fails, as if it
# were not installed.
WITHOUT = """
import sys
sys.modules[sys.argv[1]] = None
from sefrag.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_without(module: str, *argv, home=None) -> subprocess.CompletedProcess:
    env = _package_env() if home is None else dict(_package_env(), HOME=str(home))
    return subprocess.run([sys.executable, "-c", WITHOUT, module, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


class TestMissingModules:
    @pytest.mark.parametrize("kernel", ["native", "python"])
    def test_every_aes_command_runs_without_cryptography(self, sample, tmp_path, kernel):
        home = None
        if kernel == "python":
            # load() refuses a cache directory others can write to.
            home = tmp_path / "home"
            (home / ".cache" / "sefrag").mkdir(parents=True)
            (home / ".cache" / "sefrag").chmod(0o777)
        elif not isinstance(_native.load(), _native.Kernel):
            pytest.skip(f"native kernel unavailable: {_native.load().name}")
        protect = run_without("cryptography", "protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w",
                              home=home)
        assert (protect.returncode, protect.stderr) == (0, "")
        back = tmp_path / "back.bin"
        recover = run_without("cryptography", "recover", tmp_path / "w" / "sample.puf", tmp_path / "w" / "sample.prf",
                              "--key-hex", KEY, "--out", back, home=home)
        assert (recover.returncode, recover.stderr) == (0, "")
        assert back.read_bytes() == sample.read_bytes()
        bench = run_without("cryptography", "bench", "--size-mb", 1, "--iterations", 1, home=home)
        assert bench.returncode == 0, bench.stderr
        assert bench.stderr.startswith(f"kernel {kernel} (")

    def test_protect_without_libcrypto_exits_2_and_writes_nothing(self, sample, tmp_path):
        proc = run_without("_hashlib", "protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: no libcrypto for AES-128-CBC") and "_hashlib" in line
        assert proc.stdout == ""
        assert not (tmp_path / "w").exists() or list((tmp_path / "w").iterdir()) == []


class TestStoreCommands:
    @pytest.fixture
    def sealed(self, sample, tmp_path, capsys):
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        record = capsys.readouterr().out.strip()
        return record, tmp_path / "w" / "sample.puf", tmp_path / "w" / "sample.prf"

    def test_put_then_get_both_fragments(self, sealed, tmp_path, capsys):
        record, puf, prf = sealed
        store = tmp_path / "store"
        assert run_cli("put", puf, prf, "--store", store) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == record
        ids = dict(line.split()[:2] for line in lines[1:])
        for kind, path in (("puf", puf), ("prf", prf)):
            out = tmp_path / f"fetched.{kind}"
            assert run_cli("get", ids[kind], "--store", store, "--out", out) == 0
            assert out.read_bytes() == path.read_bytes()

    def test_get_id_with_spaces_exits_2_and_writes_nothing(self, sealed, tmp_path, capsys):
        _, puf, prf = sealed
        store = tmp_path / "store"
        run_cli("put", puf, prf, "--store", store)
        puf_id = capsys.readouterr().out.splitlines()[1].split()[1]
        spaced = " ".join(puf_id[i:i + 8] for i in range(0, 64, 8))
        out = tmp_path / "got.puf"
        assert run_cli("get", spaced, "--store", store, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: blob id must be 64 hex chars\n"
        assert not out.exists()

    def test_get_finds_device_blob_while_the_cloud_is_down(self, sealed, tmp_path, capsys):
        _, puf, prf = sealed
        store = tmp_path / "store"
        run_cli("put", puf, prf, "--store", store)
        ids = dict(line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:])
        with socket.socket() as sock:  # a loopback port with no listener once closed
            sock.bind(("127.0.0.1", 0))
            down = f"127.0.0.1:{sock.getsockname()[1]}"
        out = tmp_path / "got.prf"
        assert run_cli("get", ids["prf"], "--store", store, "--remote", down, "--out", out) == 0
        assert out.read_bytes() == prf.read_bytes()
        assert run_cli("get", ids["puf"], "--store", store, "--remote", down, "--out", tmp_path / "got.puf") == 6

    def test_get_unknown_id_exits_5(self, tmp_path):
        assert run_cli("get", "00" * 32, "--store", tmp_path / "s", "--out", tmp_path / "x") == 5
        # A read-only command creates nothing.
        assert not (tmp_path / "s").exists()
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where", ["directory", "remote"])
    def test_get_of_an_overwritten_blob_exits_4_and_writes_nothing(self, where, sealed, tmp_path, capsys):
        _, puf, prf = sealed
        store, out = tmp_path / "store", tmp_path / "out"
        if where == "directory":
            assert run_cli("put", puf, prf, "--store", store) == 0
            puf_id = capsys.readouterr().out.splitlines()[1].split()[1]
            self._overwrite(store / "cloud", puf_id)
            assert run_cli("get", puf_id, "--store", store, "--out", out / "got.puf") == 4
            message = f"blob {puf_id} fails its hash check"
        else:
            with subprocess.Popen(
                [sys.executable, "-m", "sefrag", "serve", "--bind", "127.0.0.1:0", "--root", str(tmp_path / "srv")],
                env=_package_env(), stdout=subprocess.PIPE, text=True,
            ) as proc:
                try:
                    addr = proc.stdout.readline().strip()
                    assert run_cli("put", puf, prf, "--store", store, "--remote", addr) == 0
                    puf_id = capsys.readouterr().out.splitlines()[1].split()[1]
                    self._overwrite(tmp_path / "srv", puf_id)
                    # The device store lacks the blob, so the server answers: ERROR.
                    assert run_cli("get", puf_id, "--store", store, "--remote", addr,
                                   "--out", out / "got.puf") == 4
                finally:
                    proc.send_signal(signal.SIGTERM)
                    assert proc.wait(timeout=10) == 0
            message = f"server could not produce a valid blob {puf_id}"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @staticmethod
    def _overwrite(root: Path, blob_id: str):
        path = root / blob_id[:2] / blob_id
        path.write_bytes(b"rotten" + path.read_bytes()[6:])

    def test_put_swapped_fragments_exits_3(self, sealed, tmp_path):
        _, puf, prf = sealed
        assert run_cli("put", prf, puf, "--store", tmp_path / "store") == 3

    def test_put_of_two_records_fragments_exits_4(self, sealed, tmp_path, capsys):
        _, puf, _ = sealed
        other = tmp_path / "other.bin"
        other.write_bytes(b"another record" * 40)
        run_cli("protect", other, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        capsys.readouterr()
        store = tmp_path / "store"
        assert run_cli("put", puf, tmp_path / "w" / "other.prf", "--store", store) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: public and private containers carry different file ids\n"
        assert not store.exists()

    def test_sharing_lifecycle(self, sealed, tmp_path, capsys):
        record, puf, prf = sealed
        store = tmp_path / "store"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()

        def decision_for(party, *extra):
            assert run_cli("request", record, "--as", party, "--store", store, *extra) == 0
            return capsys.readouterr().out.strip().splitlines()[0]

        assert decision_for("stranger") == "PufOnly"
        assert run_cli("grant", record, "stranger", "--as", "owner-1", "--store", store) == 0
        assert decision_for("stranger") == "Full"
        assert run_cli("revoke", record, "stranger", "--as", "owner-1", "--store", store) == 0
        assert decision_for("stranger") == "PufOnly"
        assert decision_for("dr-lee", "--role", "doctor") == "Full"
        assert decision_for("impostor", "--role", "owner") == "Denied"

    def test_grant_and_revoke_reject_remote(self, sealed, tmp_path):
        record, _, _ = sealed
        store = tmp_path / "store"
        for command in ("grant", "revoke"):
            argv = (command, record, "p", "--as", "o", "--store", store, "--remote", "127.0.0.1:9")
            assert parser_exit_code(*argv) == 2
        assert not store.exists()

    @pytest.mark.parametrize("flags", [("--anonymize",), ("--remote", "nonsense:1"), ("--remote", "")])
    def test_request_flags_without_out_dir_exit_2_before_any_decision(self, flags, sealed, tmp_path, capsys):
        record, puf, prf = sealed
        store = tmp_path / "store"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()
        before = sorted(store.rglob("*"))
        assert run_cli("request", record, "--as", "o", "--role", "owner", "--store", store, *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --remote and --anonymize need --out-dir\n"
        assert sorted(store.rglob("*")) == before

    def test_grant_by_non_owner_exits_4(self, sealed, tmp_path):
        record, puf, prf = sealed
        store = tmp_path / "store"
        assert run_cli("grant", record, "x", "--as", "owner-1", "--store", store) == 0
        assert run_cli("grant", record, "y", "--as", "owner-2", "--store", store) == 4

    def test_request_out_dir_releases_only_permitted(self, sealed, tmp_path, capsys):
        record, puf, prf = sealed
        store = tmp_path / "store"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()
        out = tmp_path / "released"
        assert run_cli("request", record, "--as", "peer", "--store", store, "--out-dir", out) == 0
        assert capsys.readouterr().out.strip() == "PufOnly"
        assert (out / f"{record}.puf").exists()
        assert not (out / f"{record}.prf").exists()

    def test_request_out_dir_for_unplaced_record_exits_5(self, sealed, tmp_path, capsys):
        code = run_cli(
            "request", "11" * 16, "--as", "p", "--store", tmp_path / "s", "--out-dir", tmp_path / "o"
        )
        assert code == 5
        # Also with an index that holds other records, and a trusted role.
        _, puf, prf = sealed
        run_cli("put", puf, prf, "--store", tmp_path / "s")
        capsys.readouterr()
        code = run_cli(
            "request", "11" * 16, "--as", "dr", "--role", "doctor",
            "--store", tmp_path / "s", "--out-dir", tmp_path / "o",
        )
        assert code == 5
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "o").exists()

    def test_request_out_dir_skips_index_lines_that_are_not_placements(self, sealed, tmp_path, capsys):
        record, puf, prf = sealed
        store = tmp_path / "s"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()
        stray = "11" * 16
        with (store / "placements.jsonl").open("a") as fp:
            fp.write('{"record_id": "%s"}\n[1]\n' % stray)
        out = tmp_path / "o"
        assert run_cli("request", stray, "--as", "dr", "--role", "doctor", "--store", store, "--out-dir", out) == 5
        assert capsys.readouterr().out == ""
        assert run_cli("request", record, "--as", "dr", "--role", "doctor", "--store", store, "--out-dir", out) == 0
        assert (out / f"{record}.prf").read_bytes() == prf.read_bytes()

    @pytest.mark.parametrize("backend", ["cloud", "device"])
    def test_request_out_dir_for_unknown_backend_exits_5(self, sealed, tmp_path, capsys, backend):
        record, puf, prf = sealed
        store = tmp_path / "s"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()
        index = store / "placements.jsonl"
        index.write_text(index.read_text().replace(f'"backend": "{backend}"', '"backend": "nowhere"'))
        out = tmp_path / "o"
        out.mkdir()
        assert run_cli("request", record, "--as", "dr", "--role", "doctor", "--store", store, "--out-dir", out) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert os.listdir(out) == []

    @pytest.mark.parametrize("text", ['{"policies": [{"grants": []}]}', "[]"])
    def test_malformed_policy_file_exits_3(self, tmp_path, capsys, text):
        store = tmp_path / "s"
        store.mkdir()
        (store / "policy.json").write_text(text)
        for argv in (("request", "11" * 16, "--as", "p"), ("grant", "11" * 16, "p", "--as", "owner")):
            assert run_cli(*argv, "--store", store) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_request_out_dir_reads_index_once(self, sealed, tmp_path, capsys, monkeypatch):
        record, puf, prf = sealed
        store = tmp_path / "store"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()
        reads = []
        for name in ("lookup", "records"):
            method = getattr(PlacementIndex, name)

            def counted(self, *args, _method=method, _name=name):
                reads.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(PlacementIndex, name, counted)
        out = tmp_path / "released"
        code = run_cli("request", record, "--as", "dr", "--role", "doctor", "--store", store, "--out-dir", out)
        assert code == 0
        assert capsys.readouterr().out.strip() == "Full"
        assert reads == ["lookup"]
        assert (out / f"{record}.puf").read_bytes() == puf.read_bytes()
        assert (out / f"{record}.prf").read_bytes() == prf.read_bytes()

    def test_out_dir_write_cut_short_keeps_existing_files(self, sealed, tmp_path, capsys):
        record, puf, prf = sealed
        store = tmp_path / "store"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()
        out = tmp_path / "released"
        out.mkdir()
        (out / f"{record}.puf").write_bytes(b"older release")
        proc = run_with_file_size_limit(
            32 << 10, "request", record, "--as", "dr", "--role", "doctor", "--store", store, "--out-dir", out
        )
        assert proc.returncode == 2
        assert proc.stdout == "Full\n"
        assert os.listdir(out) == [f"{record}.puf"]
        assert (out / f"{record}.puf").read_bytes() == b"older release"

    def test_bad_record_id_exits_2(self, tmp_path):
        assert run_cli("request", "not-hex", "--as", "p", "--store", tmp_path / "s") == 2
        assert run_cli("request", "abcd", "--as", "p", "--store", tmp_path / "s") == 2

    def test_record_id_with_spaces_exits_2_and_writes_nothing(self, sealed, tmp_path, capsys):
        record, puf, prf = sealed
        store = tmp_path / "s"
        run_cli("put", puf, prf, "--store", store)
        capsys.readouterr()
        before = sorted(store.rglob("*"))
        spaced = " ".join(record[i : i + 8] for i in range(0, 32, 8))
        out = tmp_path / "o"
        for argv in (("grant", spaced, "p", "--as", "o"),
                     ("request", spaced, "--as", "o", "--role", "owner", "--out-dir", out)):
            assert run_cli(*argv, "--store", store) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: record id must be 32 hex chars\n"
        assert sorted(store.rglob("*")) == before
        assert not (tmp_path / "o").exists()


# Grants ten parties to one record through ``cli.main``, each save held
# back a little, which widens the window between a policy load and its
# save that a concurrent writer could slip into.
GRANTER = """
import sys, time
from sefrag import cli, sharing

save = sharing.PolicyStore.save


def slow_save(self):
    time.sleep(0.02)
    save(self)


sharing.PolicyStore.save = slow_save
store, record, prefix = sys.argv[1:]
for i in range(10):
    assert cli.main(["grant", record, f"{prefix}-{i}", "--as", "owner-1", "--store", store]) == 0
"""


class TestConcurrentPolicyEdits:
    def test_concurrent_grants_all_land(self, tmp_path):
        store, record = tmp_path / "store", "ab" * 16
        granters = [
            subprocess.Popen([sys.executable, "-c", GRANTER, str(store), record, prefix], env=_package_env(),
                             stderr=subprocess.PIPE, text=True)
            for prefix in ("alice", "bob")
        ]
        for proc in granters:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        policy = json.loads((store / "policy.json").read_text())
        (entry,) = policy["policies"]
        assert sorted(g["party"] for g in entry["grants"]) == sorted(
            f"{prefix}-{i}" for prefix in ("alice", "bob") for i in range(10)
        )


class TestServeCommand:
    def test_serve_put_get_and_clean_shutdown(self, sample, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sefrag", "serve", "--bind", "127.0.0.1:0", "--root", str(tmp_path / "srv")],
            env=_package_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            addr = proc.stdout.readline().strip()
            assert addr.startswith("127.0.0.1:")

            run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
            store = tmp_path / "store"
            assert (
                run_cli(
                    "put",
                    tmp_path / "w" / "sample.puf",
                    tmp_path / "w" / "sample.prf",
                    "--store",
                    store,
                    "--remote",
                    addr,
                )
                == 0
            )
            # the public fragment went over the wire, not onto the local disk
            assert not (store / "cloud").exists()
            assert any((tmp_path / "srv").rglob("*"))
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            proc.stdout.close()
            proc.stderr.close()

    def test_server_holds_a_put_payload_once(self, tmp_path):
        if not Path("/proc/self/status").exists():
            pytest.skip("no /proc/<pid>/status to read the server's VmHWM from")

        def vm_hwm_kib(pid: int) -> int:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
            raise AssertionError("no VmHWM line")

        size = 32 << 20
        with subprocess.Popen(
            [sys.executable, "-m", "sefrag", "serve", "--bind", "127.0.0.1:0", "--root", str(tmp_path / "srv")],
            env=_package_env(),
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                host, port = proc.stdout.readline().strip().rsplit(":", 1)
                before = vm_hwm_kib(proc.pid)
                RemoteBackend(host, int(port)).put(os.urandom(size))
                grown = (vm_hwm_kib(proc.pid) - before) * 1024
            finally:
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10) == 0
        assert grown < 1.5 * size, f"server VmHWM grew {grown / 2**20:.1f} MiB on a {size >> 20} MiB PUT"

    def test_unreachable_remote_exits_6(self, sample, tmp_path):
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        code = run_cli(
            "put",
            tmp_path / "w" / "sample.puf",
            tmp_path / "w" / "sample.prf",
            "--store",
            tmp_path / "store",
            "--remote",
            "127.0.0.1:1",
        )
        assert code == 6

    def test_bad_bind_address_exits_2(self, tmp_path):
        assert run_cli("serve", "--bind", "nonsense", "--root", tmp_path) == 2

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_bind_port_out_of_range_exits_2(self, port, tmp_path, capsys):
        assert run_cli("serve", "--bind", f"127.0.0.1:{port}", "--root", tmp_path / "srv") == 2
        assert capsys.readouterr().err == f"error: bad port in '127.0.0.1:{port}'\n"

    def test_empty_remote_exits_2_and_stores_nothing(self, sample, tmp_path, capsys):
        # An empty --remote is a malformed host:port, not a request for the directory cloud.
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        capsys.readouterr()
        store = tmp_path / "store"
        code = run_cli("put", tmp_path / "w" / "sample.puf", tmp_path / "w" / "sample.prf",
                       "--store", store, "--remote", "")
        assert code == 2
        assert capsys.readouterr() == ("", "error: expected host:port, got ''\n")
        assert not store.exists()

    def test_remote_port_out_of_range_exits_2_and_stores_nothing(self, sample, tmp_path, capsys):
        run_cli("protect", sample, "--key-hex", KEY, "--out-dir", tmp_path / "w")
        capsys.readouterr()
        store = tmp_path / "store"
        code = run_cli("put", tmp_path / "w" / "sample.puf", tmp_path / "w" / "sample.prf",
                       "--store", store, "--remote", "127.0.0.1:70000")
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: bad port in '127.0.0.1:70000'\n"
        assert not store.exists()
