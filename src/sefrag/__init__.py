"""Selective protection of files by fragmentation and dispersion.

Content is processed in 32-byte units: a keyed selector picks one
4-byte sub-fragment per unit for the private stream, and the other 28
bytes travel in a public fragment XORed with a hash keystream derived
from the selected bytes, the key, and the unit index. The private
stream (selected bytes, tail, integrity digest) is AES-protected and
stays on trusted storage; the public fragment is safe to hand to an
untrusted backend, which learns nothing even if it also knows the key.
"""

from .analysis import ByteHistogram, entropy, entropy_of, histogram, pdf_csv
from .bench import BenchReport, run_bench
from .container import (
    PrfContainer,
    PufContainer,
    derive_key,
    open,
    seal,
    split_header,
    strip_header,
)
from .core import ProtectedStreams, ProtectionKey, protect, recover
from .dispersion import (
    Backend,
    BlobRef,
    BlobServer,
    DirectoryBackend,
    MemoryBackend,
    Placement,
    PlacementIndex,
    RemoteBackend,
    disperse,
    serve,
)
from .errors import (
    BackendUnavailable,
    BadPadding,
    BindError,
    CorruptBlob,
    EmptyInput,
    EmptyPassphrase,
    FormatError,
    IntegrityFailure,
    LengthMismatch,
    NotDicom,
    NotFound,
    NotOwner,
    PairMismatch,
    SameBackend,
    SefragError,
    TooShort,
    UnknownRecord,
)
from .sharing import (
    Decision,
    Party,
    PolicyStore,
    Release,
    Role,
    SharePolicy,
    grant,
    release,
    request_access,
    revoke,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "BackendUnavailable",
    "BadPadding",
    "BenchReport",
    "BindError",
    "BlobRef",
    "BlobServer",
    "ByteHistogram",
    "CorruptBlob",
    "Decision",
    "DirectoryBackend",
    "EmptyInput",
    "EmptyPassphrase",
    "FormatError",
    "IntegrityFailure",
    "LengthMismatch",
    "MemoryBackend",
    "NotDicom",
    "NotFound",
    "NotOwner",
    "PairMismatch",
    "Party",
    "Placement",
    "PlacementIndex",
    "PolicyStore",
    "PrfContainer",
    "ProtectedStreams",
    "ProtectionKey",
    "PufContainer",
    "Release",
    "RemoteBackend",
    "Role",
    "SameBackend",
    "SefragError",
    "SharePolicy",
    "TooShort",
    "UnknownRecord",
    "derive_key",
    "disperse",
    "entropy",
    "entropy_of",
    "grant",
    "histogram",
    "open",
    "pdf_csv",
    "protect",
    "recover",
    "release",
    "request_access",
    "revoke",
    "run_bench",
    "seal",
    "serve",
    "split_header",
    "strip_header",
    "__version__",
]
