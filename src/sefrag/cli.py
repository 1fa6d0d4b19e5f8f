"""Command-line surface: protect and recover files, inspect randomness,
time the pipeline, move fragments between stores, and manage sharing.

Exit codes are stable so scripts can branch on them:

    0  success
    2  usage problem (rejected flag or value, unreadable input, empty passphrase, no libcrypto)
    3  malformed container, policy file or --mode value, or wrong file type
    4  integrity or authorization failure
    5  missing or unusable content (empty input, unknown record or blob)
    6  network trouble (unreachable backend, bind failure)

stdout carries machine-readable results (record ids, blob ids, decision
tokens, entropy values); diagnostics go to stderr.

The argument parser is built once per process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

# Only what protect and recover use is imported here; every other
# command imports its modules when it runs, so a short-lived
# ``python -m sefrag protect`` does not pay for storage or sharing code.
# Calls go through module and class attributes (``dispersion.disperse``),
# which is where the layer tracer hooks in.
from . import container
from .container import atomic_write
from .core import ProtectionKey, _fromhex
from .errors import IntegrityFailure, NotFound, SefragError


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    # Past 65535, bind() overflows and getaddrinfo() keeps the low 16 bits.
    if not (port.isascii() and port.isdigit()) or int(port) > 0xFFFF:
        raise ValueError(f"bad port in {text!r}")
    return host, int(port)


def _read_passphrase(args) -> bytes:
    if args.passphrase_file is not None:
        return Path(args.passphrase_file).read_bytes().rstrip(b"\r\n")
    import getpass

    return getpass.getpass("passphrase: ").encode()


def _key(args, kdf_salt: bytes) -> ProtectionKey:
    """Resolve the key flag; a passphrase is stretched with ``kdf_salt``."""
    if args.key_hex is not None:
        return ProtectionKey.from_hex(args.key_hex)
    if kdf_salt == container.ZERO_SALT:
        # A record sealed with a raw key: fail before the passphrase is read.
        raise IntegrityFailure("the record was sealed with a raw key: recover it with --key-hex")
    return container.derive_key(_read_passphrase(args), kdf_salt)


def _backends(args, store: Path) -> dict:
    """The device and cloud backends by name, device first, so that a
    lookup in every backend tries the local one before the network."""
    from .dispersion import DirectoryBackend, RemoteBackend

    if args.remote is not None:
        host, port = _parse_hostport(args.remote)
        cloud = RemoteBackend(host, port, name="cloud")
    else:
        cloud = DirectoryBackend(store / "cloud", name="cloud")
    return {"device": DirectoryBackend(store / "device", name="device"), "cloud": cloud}


def _placement_index(store: Path):
    from .dispersion import PlacementIndex

    return PlacementIndex(store / "placements.jsonl")


def _policy_store(store: Path):
    from .sharing import PolicyStore

    return PolicyStore.load(store / "policy.json")


def cmd_protect(args) -> int:
    out_dir = Path(args.out_dir)
    stem = Path(args.input).stem or Path(args.input).name
    with Path(args.input).open("rb") as src:
        salt = container.ZERO_SALT if args.key_hex else os.urandom(16)
        file_id, seal = container.seal_stream(src, lambda kdf_salt: _key(args, kdf_salt), args.mode, salt)
        with atomic_write(out_dir / (stem + ".puf")) as puf, atomic_write(out_dir / (stem + ".prf")) as prf:
            seal(puf, prf)
    print(file_id.hex())
    return 0


def cmd_recover(args) -> int:
    with Path(args.puf).open("rb") as puf, Path(args.prf).open("rb") as prf:
        recover = container.open_stream(puf, prf, lambda kdf_salt: _key(args, kdf_salt))
        with atomic_write(args.out) as write:
            recover(write)
    return 0


def cmd_entropy(args) -> int:
    from . import analysis

    print("%.4f" % analysis.entropy(container.body(Path(args.path).read_bytes())))
    return 0


def cmd_pdf(args) -> int:
    from . import analysis

    data = container.body(Path(args.path).read_bytes())
    with atomic_write(args.out) as write:
        write(analysis.pdf_csv(analysis.histogram(data)).encode())
    return 0


def cmd_bench(args) -> int:
    from . import bench

    report = bench.run_bench(args.size_mb, iterations=args.iterations)
    print(f"kernel {report.kernel}", file=sys.stderr)
    print(f"threads {report.threads}", file=sys.stderr)
    print(bench.format_table(report))
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from .dispersion import BlobServer

    host, port = _parse_hostport(args.bind)
    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    with BlobServer(host, port, args.root) as server:
        # Installed once bound, so a failed bind leaves the caller's handlers.
        signal.signal(signal.SIGINT, _on_signal)
        signal.signal(signal.SIGTERM, _on_signal)
        print("%s:%d" % server.server_address, flush=True)
        stop.wait()
    return 0


def cmd_put(args) -> int:
    from . import dispersion

    puf, prf = Path(args.puf).read_bytes(), Path(args.prf).read_bytes()
    store = Path(args.store)
    backends = _backends(args, store)
    placement = dispersion.disperse(puf, prf, backends["device"], backends["cloud"], _placement_index(store))
    print(placement.record_id.hex())
    print("puf %s %s" % (placement.puf_ref.hex, placement.puf_backend))
    print("prf %s %s" % (placement.prf_ref.hex, placement.prf_backend))
    return 0


def cmd_get(args) -> int:
    from .dispersion import BlobRef

    ref = BlobRef.from_hex(args.id)
    for backend in _backends(args, Path(args.store)).values():
        try:
            payload = backend.get(ref)
        except NotFound:
            continue
        with atomic_write(args.out) as write:
            write(payload)
        return 0
    raise NotFound(f"no blob {args.id} on any configured backend")


def cmd_grant_or_revoke(args) -> int:
    """One load-modify-save of the policy file, under an exclusive lock on
    a sibling ``policy.json.lock`` so that concurrent edits all land."""
    import fcntl

    from . import sharing

    record_id = _fromhex(args.record, container.FILE_ID_LEN, "record id")
    store_dir = Path(args.store)
    store_dir.mkdir(parents=True, exist_ok=True)
    with (store_dir / "policy.json.lock").open("ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        change = getattr(sharing, args.command)  # sharing.grant or sharing.revoke
        change(_policy_store(store_dir), args.caller, args.party, record_id)
    return 0


def cmd_request(args) -> int:
    if args.out_dir is None and (args.remote is not None or args.anonymize):
        raise ValueError("--remote and --anonymize need --out-dir")
    from . import sharing

    store_dir = Path(args.store)
    store = _policy_store(store_dir)
    record_id = _fromhex(args.record, container.FILE_ID_LEN, "record id")
    placement = None
    if args.out_dir is not None:
        placement = _placement_index(store_dir).lookup(record_id)
        if placement is None:
            raise NotFound(f"no placement for record {record_id.hex()}")
        backends = _backends(args, store_dir)
        for name in (placement.puf_backend, placement.prf_backend):
            if name not in backends:
                raise NotFound(f"record {record_id.hex()} is placed on unknown backend {name!r}")
    decision = sharing.request_access(store, args.caller, args.role, record_id)
    print(decision.value)
    if placement is not None and decision != sharing.Decision.DENIED:
        released = sharing.release(decision, placement, backends, anonymize=args.anonymize)
        for suffix, data in zip((".puf", ".prf"), released):
            if data is not None:
                with atomic_write(Path(args.out_dir) / (args.record + suffix)) as write:
                    write(data)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call.

    Parsing leaves it unchanged: each call gets a fresh ``Namespace``,
    and every default is immutable.
    """
    parser = argparse.ArgumentParser(
        prog="sefrag",
        description="Split files into a small private fragment and a large "
        "keystream-protected public fragment, disperse them, and share them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    key_flags = argparse.ArgumentParser(add_help=False)
    key = key_flags.add_mutually_exclusive_group(required=True)
    key.add_argument("--key-hex", help="raw 128-bit key as 32 hex chars")
    key.add_argument("--passphrase", action="store_true", help="prompt for a passphrase")
    key.add_argument("--passphrase-file", help="read the passphrase from a file")

    store_flag = argparse.ArgumentParser(add_help=False)
    store_flag.add_argument("--store", default="sefrag-store", help="local state directory")
    remote_flag = argparse.ArgumentParser(add_help=False)
    remote_flag.add_argument("--remote", help="host:port of a blob server to use as the cloud")

    p = sub.add_parser("protect", parents=[key_flags], help="seal a file into .puf/.prf")
    p.add_argument("input")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--mode", default="raw", help="header split: raw, dicom, or fixed:<n>")

    p = sub.add_parser("recover", parents=[key_flags], help="rebuild the original file")
    p.add_argument("puf")
    p.add_argument("prf")
    p.add_argument("--out", required=True)

    p = sub.add_parser("entropy", help="print byte entropy of a file or container payload")
    p.add_argument("path")

    p = sub.add_parser("pdf", help="write the byte-value distribution as CSV")
    p.add_argument("path")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="time selective protection against full AES")
    p.add_argument("--size-mb", type=int, default=1)
    p.add_argument("--iterations", type=int, default=9)

    p = sub.add_parser("serve", help="run a blob server")
    p.add_argument("--bind", default="127.0.0.1:0")
    p.add_argument("--root", required=True, help="directory holding the blobs")

    p = sub.add_parser("put", parents=[store_flag, remote_flag], help="disperse a sealed pair")
    p.add_argument("puf")
    p.add_argument("prf")

    p = sub.add_parser("get", parents=[store_flag, remote_flag], help="fetch a blob by id")
    p.add_argument("id")
    p.add_argument("--out", required=True)

    for name, summary in (("grant", "allow a party full access"), ("revoke", "withdraw a grant")):
        p = sub.add_parser(name, parents=[store_flag], help=summary)
        p.add_argument("record")
        p.add_argument("party")
        p.add_argument("--as", dest="caller", required=True, help="acting owner id")

    p = sub.add_parser("request", parents=[store_flag, remote_flag], help="ask what a party may see")
    p.add_argument("record")
    p.add_argument("--as", dest="caller", required=True, help="requesting party id")
    p.add_argument("--role", default="requester", help="owner, doctor, authority, or requester")
    p.add_argument("--out-dir", help="also fetch the permitted fragments into this directory")
    p.add_argument("--anonymize", action="store_true", help="strip the plaintext header (needs --out-dir)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up by name on every call, so a replaced ``cmd_*`` takes
    # effect even though the parser outlives it.
    command = "grant_or_revoke" if args.command in ("grant", "revoke") else args.command
    try:
        return globals()["cmd_" + command](args)
    except (SefragError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Each error class carries its exit code; ValueError and OSError
        # are usage problems (bad values, unreadable or unwritable paths, no libcrypto).
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
