"""Selective protection of files by fragmentation and dispersion.

Content is processed in 32-byte units: a keyed selector picks one
4-byte sub-fragment per unit for the private stream, and the other 28
bytes travel in a public fragment XORed with a hash keystream derived
from the selected bytes, the key, and the unit index. The private
stream (selected bytes, tail, integrity digest) is AES-protected and
stays on trusted storage; the public fragment goes to an untrusted
backend.  Without the private stream its keystreams cannot be recomputed
directly, but whoever also holds the key recovers each unit by trying
the 2^32 values of its selected sub-fragment, so the key is as secret
as the private stream.

Public names are imported from their module on first use (PEP 562), so
``python -m sefrag protect`` does not load storage, sharing, analysis
or bench code it never calls.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_HOMES = {
    "analysis": "entropy histogram pdf_csv",
    "bench": "BenchReport run_bench",
    "container": "PrfContainer PufContainer derive_key open seal",
    "core": "ProtectedStreams ProtectionKey protect recover",
    "dispersion": "BlobRef BlobServer DirectoryBackend Placement PlacementIndex RemoteBackend "
    "disperse",
    "errors": "BackendUnavailable CorruptBlob FormatError IntegrityFailure NotFound SefragError",
    "sharing": "Decision PolicyStore grant release request_access revoke",
}
# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}
_SUBMODULES = frozenset(_HOMES)

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
