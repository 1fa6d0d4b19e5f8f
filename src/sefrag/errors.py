"""Exception types shared across the package.

Grouped here because most of them cross module boundaries: the container
layer re-raises engine errors, the CLI exits with each class's stable
``exit_code``, and tests assert on exact types.  A case has its own
class only when its exit code or some ``except`` tells it apart; the
message says which case it is.  A bad value the caller passed, such as
an empty passphrase, raises ``ValueError`` (exit 2).
"""


class SefragError(Exception):
    """Base class for all sefrag errors.

    ``exit_code`` is the CLI's exit status for the class; every class the
    package raises sets its own, and 1 marks an unclassified error.
    """

    exit_code = 1


class FormatError(SefragError):
    """Malformed container, wire frame, stream structure or stream lengths, or
    an input without the DICM marker at offset 128 or shorter than its fixed header."""

    exit_code = 3


class IntegrityFailure(SefragError):
    """Recovered content does not match its stored digest.

    It carries no reconstructed output: ``core.recover_chunks`` yields
    every piece before it raises, so a caller that wants to inspect a
    failed recovery keeps the pieces itself.
    """

    exit_code = 4


class BadPadding(SefragError):
    """Private-stream decryption produced invalid padding (wrong key or
    corrupted ciphertext)."""

    exit_code = 4


class PairMismatch(SefragError):
    """Public and private containers carry different file ids."""

    exit_code = 4


class EmptyInput(SefragError):
    """Entropy is undefined for zero-length input."""

    exit_code = 5


class NotFound(SefragError):
    """No blob stored under the requested id, or no placement exists for
    the requested record id."""

    exit_code = 5


class CorruptBlob(SefragError):
    """Stored blob bytes no longer hash to their id."""

    exit_code = 4


class BackendUnavailable(SefragError):
    """Storage backend cannot be reached, or the blob server could not
    bind its address."""

    exit_code = 6


class SameBackend(SefragError):
    """Public and private fragments may not share a backend."""

    exit_code = 4


class NotOwner(SefragError):
    """Policy mutation attempted by a party other than the owner."""

    exit_code = 4
