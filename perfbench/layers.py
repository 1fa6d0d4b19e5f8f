"""sefrag's layer boundaries and the per-layer metrics computed from their spans.

Layers are the package's modules: ``cli``, ``container``, ``core``,
``dispersion`` and ``sharing``. Only documented public callables are
wrapped. Per-unit helpers (``reinsert``, ``unit_keystream``,
``split_unit``) never are: with hundreds of thousands of calls per file
the wrapper would become the measurement.

Every time and call count is per workload op (one input file through
its whole cycle), so a faster program that completes more ops in a run
does not read as more busy time. Each metric names the end-to-end
metric and workload it should move, so a change can state its
prediction before it is measured. Whatever moves a call's time moves
the gated ``op_p50_ref`` of the same workload too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from sefrag import cli, container, core, dispersion, sharing

from spans import Boundary, Span, busy, descendants, self_times


def _cli_tags(args, _result) -> dict:
    argv = args[0]
    return {"cmd": argv[0], "fetch": "--out-dir" in argv}


def _protect_tags(args, result) -> dict:
    if result is None:
        return {}
    return {"content_bytes": len(args[0]), "units": len(result.puf_payload) // core.REMAINDER_LEN}


def _recover_tags(args, _result) -> dict:
    return {"units": len(args[0]) // core.REMAINDER_LEN}


def _seal_tags(_args, result) -> dict:
    return {} if result is None else {"aes_bytes": len(result[1].ciphertext)}


def _put_tags(args, _result) -> dict:
    return {"bytes": len(args[1])}


def boundaries() -> list[Boundary]:
    d = dispersion
    return [
        Boundary(cli, "main", "cli.main", _cli_tags),
        Boundary(container, "seal", "container.seal", _seal_tags),
        Boundary(container, "open", "container.open"),
        Boundary(container, "derive_key", "container.derive_key"),
        Boundary(container.PufContainer, "to_bytes", "container.pack.puf"),
        Boundary(container.PrfContainer, "to_bytes", "container.pack.prf"),
        Boundary(container.PufContainer, "from_bytes", "container.unpack.puf"),
        Boundary(container.PrfContainer, "from_bytes", "container.unpack.prf"),
        Boundary(core, "protect", "core.protect", _protect_tags),
        Boundary(core, "recover", "core.recover", _recover_tags),
        Boundary(core, "selector_stream", "core.selector_stream"),
        Boundary(d, "disperse", "dispersion.disperse"),
        Boundary(d.RemoteBackend, "put", "dispersion.remote.put", _put_tags),
        Boundary(d.RemoteBackend, "get", "dispersion.remote.get"),
        Boundary(d.DirectoryBackend, "put", "dispersion.directory.put", _put_tags),
        Boundary(d.DirectoryBackend, "get", "dispersion.directory.get"),
        Boundary(d.PlacementIndex, "record", "dispersion.index.record"),
        Boundary(d.PlacementIndex, "lookup", "dispersion.index.lookup"),
        Boundary(d.PlacementIndex, "records", "dispersion.index.records"),
        Boundary(sharing, "grant", "sharing.grant"),
        Boundary(sharing, "revoke", "sharing.revoke"),
        Boundary(sharing, "request_access", "sharing.request_access"),
        Boundary(sharing, "release", "sharing.release"),
        Boundary(sharing.PolicyStore, "load", "sharing.policy_load"),
        Boundary(sharing.PolicyStore, "save", "sharing.policy_save"),
    ]


class Trace:
    """Spans of one traced phase, with ``ops`` workload ops and the
    values measured outside the wrappers (``extras``)."""

    def __init__(self, spans: list[Span], ops: int, extras: dict[str, float]):
        self.spans = spans
        self.selfs = self_times(spans)
        self.ops = max(ops, 1)
        self.extras = extras

    def _named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, *names: str) -> float:
        return busy(self.spans, lambda s: s.name in names) / self.ops

    def self_time(self, name: str, **tags) -> float:
        total = sum(
            self.selfs[s.id] for s in self._named(name)
            if all(s.tags.get(k) == v for k, v in tags.items())
        )
        return total / self.ops

    def calls(self, name: str) -> float:
        return len(self._named(name)) / self.ops

    def failed(self, name: str) -> float:
        return sum(1 for s in self._named(name) if s.tags.get("failed")) / self.ops

    def tag_total(self, key: str, *names: str) -> int:
        return sum(s.tags.get(key, 0) for s in self.spans if s.name in names)

    def ratio(self, num: float, den: float) -> float:
        return num / den if den else 0.0

    def scans_per_fetch(self) -> float:
        fetches = [s for s in self._named("cli.main")
                   if s.tags.get("cmd") == "request" and s.tags.get("fetch")]
        scans = sum(1 for f in fetches for s in descendants(self.spans, f)
                    if s.name == "dispersion.index.records")
        return self.ratio(scans, len(fetches))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    value: Callable[[Trace], float]


def _m(name, unit, moves, value, better="lower") -> LayerMetric:
    return LayerMetric(name, unit, better, moves, value)


def _backend(kind: str, op: str, moves: str) -> list[LayerMetric]:
    span = f"dispersion.{kind}.{op}"
    return [
        _m(f"{span}.busy_ms", "ms/op", moves, lambda t: 1e3 * t.busy(span)),
        _m(f"{span}.calls", "calls/op", moves, lambda t: t.calls(span)),
        _m(f"{span}.failed", "calls/op", moves, lambda t: t.failed(span)),
    ]


_BULK = "protect_p50_ms and recover_p50_ms on bulk-image"
_STORE_PUT = "put_p50_ms and op_p50_ref on record-store"
_STORE_FETCH = "fetch_p50_ms and op_p50_ref on record-store"
_SHARE = "share_p50_ms and fetch_p50_ms on record-store"

METRICS: list[LayerMetric] = [
    _m("cli.protect.self_ms", "ms/op",
       "protect_p50_ms on bulk-image and record-store",
       lambda t: 1e3 * t.self_time("cli.main", cmd="protect")),
    _m("cli.recover.self_ms", "ms/op",
       "recover_p50_ms on bulk-image and record-store",
       lambda t: 1e3 * t.self_time("cli.main", cmd="recover")),
    _m("cli.put.self_ms", "ms/op", _STORE_PUT,
       lambda t: 1e3 * t.self_time("cli.main", cmd="put")),
    _m("cli.request.self_ms", "ms/op", _STORE_FETCH + "; share_p50_ms on record-store",
       lambda t: 1e3 * t.self_time("cli.main", cmd="request")),
    _m("cli.startup_ms", "ms",
       "protect_p50_ms and recover_p50_ms on cli-passphrase only",
       lambda t: t.extras["cli.startup_ms"]),
    _m("core.protect.busy_s", "s/op",
       "protect_p50_ms on bulk-image; on record-store at a smaller share",
       lambda t: t.busy("core.protect")),
    _m("core.protect.calls", "calls/op", "protect_p50_ms on bulk-image",
       lambda t: t.calls("core.protect")),
    _m("core.recover.busy_s", "s/op",
       "recover_p50_ms on bulk-image; on record-store at a smaller share",
       lambda t: t.busy("core.recover")),
    _m("core.recover.calls", "calls/op", "recover_p50_ms on bulk-image",
       lambda t: t.calls("core.recover")),
    _m("core.selector_stream.busy_s", "s/op", _BULK,
       lambda t: t.busy("core.selector_stream")),
    _m("core.selector_stream.calls", "calls/op", _BULK,
       lambda t: t.calls("core.selector_stream")),
    _m("core.units", "units/op", _BULK,
       lambda t: t.tag_total("units", "core.protect", "core.recover") / t.ops),
    _m("container.seal.self_s", "s/op", "protect_p50_ms on bulk-image",
       lambda t: t.self_time("container.seal")),
    _m("container.open.self_s", "s/op", "recover_p50_ms on bulk-image",
       lambda t: t.self_time("container.open")),
    _m("container.pack.busy_ms", "ms/op", _STORE_PUT + "; fetch_p50_ms on record-store",
       lambda t: 1e3 * t.busy("container.pack.puf", "container.pack.prf")),
    _m("container.unpack.busy_ms", "ms/op", _STORE_PUT + "; fetch_p50_ms on record-store",
       lambda t: 1e3 * t.busy("container.unpack.puf", "container.unpack.prf")),
    _m("container.derive_key.busy_ms", "ms/op",
       "protect_p50_ms and recover_p50_ms on cli-passphrase",
       lambda t: 1e3 * t.busy("container.derive_key")),
    _m("container.derive_key.calls", "calls/op",
       "protect_p50_ms and recover_p50_ms on cli-passphrase",
       lambda t: t.calls("container.derive_key")),
    _m("container.aes_bytes_per_content_byte", "ratio",
       "protect_p50_ms on bulk-image (the paper's 1/8 cipher share)",
       lambda t: t.ratio(t.tag_total("aes_bytes", "container.seal"),
                         t.tag_total("content_bytes", "core.protect"))),
    *_backend("remote", "put", _STORE_PUT),
    *_backend("remote", "get", _STORE_FETCH),
    *_backend("directory", "put", _STORE_PUT),
    *_backend("directory", "get", _STORE_FETCH),
    _m("dispersion.index.lookup.busy_ms", "ms/op", _STORE_FETCH,
       lambda t: 1e3 * t.busy("dispersion.index.lookup")),
    _m("dispersion.index.scans_per_fetch", "scans", _STORE_FETCH,
       lambda t: t.scans_per_fetch()),
    _m("dispersion.index.record.busy_ms", "ms/op", _STORE_PUT,
       lambda t: 1e3 * t.busy("dispersion.index.record")),
    _m("dispersion.stored_bytes_per_user_byte", "ratio", _STORE_PUT,
       lambda t: t.ratio(t.tag_total("bytes", "dispersion.remote.put", "dispersion.directory.put"),
                         t.extras["user_bytes_put"])),
    _m("dispersion.server.peak_rss_mib", "MiB", _STORE_PUT + "; fetch_p50_ms on record-store",
       lambda t: t.extras["server_peak_rss_mib"]),
    _m("sharing.request_access.busy_ms", "ms/op", _SHARE,
       lambda t: 1e3 * t.busy("sharing.request_access")),
    _m("sharing.release.self_ms", "ms/op", _SHARE,
       lambda t: 1e3 * t.self_time("sharing.release")),
    _m("sharing.grant.busy_ms", "ms/op", _SHARE, lambda t: 1e3 * t.busy("sharing.grant")),
    _m("sharing.revoke.busy_ms", "ms/op", _SHARE, lambda t: 1e3 * t.busy("sharing.revoke")),
    _m("sharing.policy_load.busy_ms", "ms/op", _SHARE,
       lambda t: 1e3 * t.busy("sharing.policy_load")),
    _m("sharing.policy_save.busy_ms", "ms/op", _SHARE,
       lambda t: 1e3 * t.busy("sharing.policy_save")),
    _m("ref.aes_cbc_full.mb_s", "MiB/s",
       "nothing: whole-file AES-CBC over the same inputs, the paper's reference",
       lambda t: t.extras["aes_mib_s"], better="higher"),
    _m("ref.protect_over_aes", "ratio",
       "protect_p50_ms on bulk-image (protect MiB/s over whole-file AES MiB/s)",
       lambda t: t.ratio(t.extras["protect_mib_s"], t.extras["aes_mib_s"]), better="higher"),
    _m("trace.overhead_pct", "%", "nothing: traced over untraced ref time of the same ops, minus one",
       lambda t: t.extras["overhead_pct"]),
]
