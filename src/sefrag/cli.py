"""Command-line surface: protect and recover files, inspect randomness,
time the pipeline, move fragments between stores, and manage sharing.

Exit codes are stable so scripts can branch on them:

    0  success
    2  usage problem (bad flags, unreadable input, empty passphrase)
    3  malformed container or wrong file type
    4  integrity or authorization failure
    5  missing or unusable content (empty input, unknown record or blob)
    6  network trouble (unreachable backend, bind failure)

stdout carries machine-readable results (record ids, blob ids, decision
tokens, entropy values); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import getpass
import os
import signal
import sys
import tempfile
import threading
from pathlib import Path

from . import analysis, bench, container, dispersion, sharing
from .container import PrfContainer, PufContainer
from .core import ProtectionKey
from .dispersion import Backend, BlobRef, DirectoryBackend, PlacementIndex, RemoteBackend
from .errors import (
    BackendUnavailable,
    BadPadding,
    BindError,
    CorruptBlob,
    EmptyInput,
    EmptyPassphrase,
    FormatError,
    IntegrityFailure,
    NotFound,
    NotOwner,
    PairMismatch,
    SameBackend,
    UnknownRecord,
)
from .sharing import Decision, Party, PolicyStore


class _Usage(Exception):
    """Command invoked with unusable arguments."""


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise _Usage(f"expected host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise _Usage(f"bad port in {text!r}") from None


def _read_passphrase(args) -> bytes:
    if args.passphrase_file:
        return Path(args.passphrase_file).read_bytes().rstrip(b"\r\n")
    return getpass.getpass("passphrase: ").encode()


def _key_for_protect(args) -> tuple[ProtectionKey, bytes]:
    """Resolve the key flags; returns the key and the salt to persist."""
    if args.key_hex:
        return ProtectionKey.from_hex(args.key_hex), container.ZERO_SALT
    if args.passphrase or args.passphrase_file:
        salt = os.urandom(16)
        return container.derive_key(_read_passphrase(args), salt), salt
    raise _Usage("provide --key-hex, --passphrase, or --passphrase-file")


def _key_for_recover(args, prf: PrfContainer) -> ProtectionKey:
    if args.key_hex:
        return ProtectionKey.from_hex(args.key_hex)
    if args.passphrase or args.passphrase_file:
        return container.derive_key(_read_passphrase(args), prf.kdf_salt)
    raise _Usage("provide --key-hex, --passphrase, or --passphrase-file")


def _record_id(text: str) -> bytes:
    try:
        rid = bytes.fromhex(text)
    except ValueError:
        raise _Usage(f"record id must be hex, got {text!r}") from None
    if len(rid) != container.FILE_ID_LEN:
        raise _Usage(f"record id must be {2 * container.FILE_ID_LEN} hex chars")
    return rid


def _device_backend(store: Path) -> DirectoryBackend:
    return DirectoryBackend(store / "device", name="device")


def _cloud_backend(args, store: Path) -> Backend:
    if args.remote:
        host, port = _parse_hostport(args.remote)
        return RemoteBackend(host, port, name="cloud")
    return DirectoryBackend(store / "cloud", name="cloud")


def _placement_index(store: Path) -> PlacementIndex:
    return PlacementIndex(store / "placements.jsonl")


def _policy_store(store: Path) -> PolicyStore:
    return PolicyStore.load(store / "policy.json")


def _atomic_write(path: Path, data: bytes):
    """Write via a sibling temp file so failures leave no partial output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cmd_protect(args) -> int:
    data = Path(args.input).read_bytes()
    key, salt = _key_for_protect(args)
    puf, prf = container.seal(data, key, mode=args.mode, kdf_salt=salt)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem or Path(args.input).name
    (out_dir / (stem + ".puf")).write_bytes(puf.to_bytes())
    (out_dir / (stem + ".prf")).write_bytes(prf.to_bytes())
    print(puf.file_id.hex())
    return 0


def cmd_recover(args) -> int:
    puf = PufContainer.from_bytes(Path(args.puf).read_bytes())
    prf = PrfContainer.from_bytes(Path(args.prf).read_bytes())
    key = _key_for_recover(args, prf)
    data = container.open(puf, prf, key)
    _atomic_write(Path(args.out), data)
    return 0


def _analysis_bytes(raw: bytes) -> bytes:
    """Pick the protected portion of a container, or the raw bytes."""
    if raw[:4] == container.PUF_MAGIC:
        return PufContainer.from_bytes(raw).puf_payload
    if raw[:4] == container.PRF_MAGIC:
        return PrfContainer.from_bytes(raw).ciphertext
    return raw


def cmd_entropy(args) -> int:
    data = _analysis_bytes(Path(args.path).read_bytes())
    print("%.4f" % analysis.entropy(data))
    return 0


def cmd_pdf(args) -> int:
    data = _analysis_bytes(Path(args.path).read_bytes())
    hist = analysis.histogram(data)
    Path(args.out).write_text(analysis.pdf_csv(hist), encoding="utf-8")
    return 0


def cmd_bench(args) -> int:
    report = bench.run_bench(args.size_mb, iterations=args.iterations)
    print(bench.format_table(report))
    if args.csv:
        Path(args.csv).write_text(bench.format_csv(report), encoding="utf-8")
    return 0


def cmd_serve(args) -> int:
    host, port = _parse_hostport(args.bind)
    server = dispersion.serve((host, port), args.root)
    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    server.start()
    print("%s:%d" % server.address, flush=True)
    stop.wait()
    server.stop()
    return 0


def cmd_put(args) -> int:
    puf = PufContainer.from_bytes(Path(args.puf).read_bytes())
    prf = PrfContainer.from_bytes(Path(args.prf).read_bytes())
    if puf.file_id != prf.file_id:
        raise PairMismatch("public and private containers carry different file ids")
    store = Path(args.store)
    placement = dispersion.disperse(
        puf,
        prf,
        _device_backend(store),
        _cloud_backend(args, store),
        index=_placement_index(store),
    )
    print(placement.record_id.hex())
    print("puf %s %s" % (placement.puf_ref.hex, placement.puf_backend))
    print("prf %s %s" % (placement.prf_ref.hex, placement.prf_backend))
    return 0


def cmd_get(args) -> int:
    ref = BlobRef.from_hex(args.id)
    store = Path(args.store)
    payload = None
    for backend in (_cloud_backend(args, store), _device_backend(store)):
        try:
            payload = backend.get(ref)
            break
        except NotFound:
            continue
    if payload is None:
        raise NotFound(f"no blob {args.id} on any configured backend")
    _atomic_write(Path(args.out), payload)
    return 0


def cmd_grant(args) -> int:
    store = _policy_store(Path(args.store))
    sharing.grant(store, Party(args.caller, "owner"), args.party, _record_id(args.record))
    return 0


def cmd_revoke(args) -> int:
    store = _policy_store(Path(args.store))
    sharing.revoke(store, Party(args.caller, "owner"), args.party, _record_id(args.record))
    return 0


def cmd_request(args) -> int:
    store_dir = Path(args.store)
    store = _policy_store(store_dir)
    party = Party(args.caller, args.role)
    record_id = _record_id(args.record)
    placement = None
    if args.out_dir:
        placement = _placement_index(store_dir).lookup(record_id)
        if placement is None:
            raise UnknownRecord(f"no placement for record {record_id.hex()}")
    decision = sharing.request_access(store, party, record_id)
    print(decision.value)
    if placement is not None and decision != Decision.DENIED:
        backends = {
            "device": _device_backend(store_dir),
            "cloud": _cloud_backend(args, store_dir),
        }
        released = sharing.release(decision, placement, backends, anonymize=args.anonymize)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if released.puf_bytes is not None:
            (out_dir / (args.record + ".puf")).write_bytes(released.puf_bytes)
        if released.prf_bytes is not None:
            (out_dir / (args.record + ".prf")).write_bytes(released.prf_bytes)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sefrag",
        description="Split files into a small private fragment and a large "
        "keystream-protected public fragment, disperse them, and share them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    key_flags = argparse.ArgumentParser(add_help=False)
    key_flags.add_argument("--key-hex", help="raw 128-bit key as 32 hex chars")
    key_flags.add_argument("--passphrase", action="store_true", help="prompt for a passphrase")
    key_flags.add_argument("--passphrase-file", help="read the passphrase from a file")

    store_flags = argparse.ArgumentParser(add_help=False)
    store_flags.add_argument("--store", default="sefrag-store", help="local state directory")
    store_flags.add_argument("--remote", help="host:port of a blob server to use as the cloud")

    p = sub.add_parser("protect", parents=[key_flags], help="seal a file into .puf/.prf")
    p.add_argument("input")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--mode", default="raw", help="header split: raw, dicom, or fixed:<n>")
    p.set_defaults(func=cmd_protect)

    p = sub.add_parser("recover", parents=[key_flags], help="rebuild the original file")
    p.add_argument("puf")
    p.add_argument("prf")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("entropy", help="print byte entropy of a file or container payload")
    p.add_argument("path")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("pdf", help="write the byte-value distribution as CSV")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("bench", help="time selective protection against full AES")
    p.add_argument("--size-mb", type=int, default=1)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--csv", help="also write per-iteration timings to this file")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="run a blob server")
    p.add_argument("--bind", default="127.0.0.1:0")
    p.add_argument("--root", required=True, help="directory holding the blobs")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("put", parents=[store_flags], help="disperse a sealed pair")
    p.add_argument("puf")
    p.add_argument("prf")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", parents=[store_flags], help="fetch a blob by id")
    p.add_argument("id")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("grant", parents=[store_flags], help="allow a party full access")
    p.add_argument("record")
    p.add_argument("party")
    p.add_argument("--as", dest="caller", required=True, help="acting owner id")
    p.set_defaults(func=cmd_grant)

    p = sub.add_parser("revoke", parents=[store_flags], help="withdraw a grant")
    p.add_argument("record")
    p.add_argument("party")
    p.add_argument("--as", dest="caller", required=True, help="acting owner id")
    p.set_defaults(func=cmd_revoke)

    p = sub.add_parser("request", parents=[store_flags], help="ask what a party may see")
    p.add_argument("record")
    p.add_argument("--as", dest="caller", required=True, help="requesting party id")
    p.add_argument("--role", default="requester", help="owner, doctor, authority, or requester")
    p.add_argument("--out-dir", help="also fetch the permitted fragments into this directory")
    p.add_argument("--anonymize", action="store_true", help="strip the plaintext header")
    p.set_defaults(func=cmd_request)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptyPassphrase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IntegrityFailure, BadPadding, PairMismatch, NotOwner, SameBackend, CorruptBlob) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (EmptyInput, NotFound, UnknownRecord) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (BackendUnavailable, BindError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
