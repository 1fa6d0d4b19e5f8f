"""Exception types shared across the package.

Grouped here because most of them cross module boundaries: the container
layer re-raises engine errors, the CLI exits with each class's stable
``exit_code``, and tests assert on exact types.
"""


class SefragError(Exception):
    """Base class for all sefrag errors.

    ``exit_code`` is the CLI's exit status for the class; every class the
    package raises sets its own, and 1 marks an unclassified error.
    """

    exit_code = 1


class FormatError(SefragError):
    """Malformed container, wire frame, or stream structure."""

    exit_code = 3


class NotDicom(FormatError):
    """Input lacks the DICM marker expected at offset 128."""


class TooShort(FormatError):
    """Input shorter than the requested fixed-length header."""


class LengthMismatch(FormatError):
    """Public/private stream lengths are mutually inconsistent."""


class IntegrityFailure(SefragError):
    """Recovered content does not match its stored digest.

    ``attempted`` holds the reconstructed byte stream so callers can
    inspect what a failed recovery would have produced.
    """

    exit_code = 4

    def __init__(self, message: str, attempted: bytes | None = None):
        super().__init__(message)
        self.attempted = attempted


class BadPadding(SefragError):
    """Private-stream decryption produced invalid padding (wrong key or
    corrupted ciphertext)."""

    exit_code = 4


class PairMismatch(SefragError):
    """Public and private containers carry different file ids."""

    exit_code = 4


class EmptyPassphrase(SefragError):
    """Key derivation was given an empty passphrase."""

    exit_code = 2


class EmptyInput(SefragError):
    """Entropy is undefined for zero-length input."""

    exit_code = 5


class NotFound(SefragError):
    """No blob stored under the requested id."""

    exit_code = 5


class CorruptBlob(SefragError):
    """Stored blob bytes no longer hash to their id."""

    exit_code = 4


class BackendUnavailable(SefragError):
    """Storage backend cannot be reached."""

    exit_code = 6


class SameBackend(SefragError):
    """Public and private fragments may not share a backend."""

    exit_code = 4


class BindError(SefragError):
    """Blob server could not bind its address."""

    exit_code = 6


class NotOwner(SefragError):
    """Policy mutation attempted by a party other than the owner."""

    exit_code = 4


class UnknownRecord(SefragError):
    """No placement exists for the requested record id."""

    exit_code = 5
