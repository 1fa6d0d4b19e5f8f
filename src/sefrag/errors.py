"""Exception types shared across the package.

Grouped here because most of them cross module boundaries: the container
layer re-raises engine errors, the CLI exits with each class's stable
``exit_code``, and tests assert on exact types.  A case has its own
class only when its exit code or some ``except`` tells it apart; the
message says which case it is.  Exits 3 to 6 have one class each.
A bad value the caller passed, such as an empty passphrase, raises
``ValueError`` (exit 2).
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
    """An integrity or authorization check failed: recovered content does
    not match its stored digest, private-stream decryption produced
    invalid padding (wrong key or corrupted ciphertext), a blob fails its
    hash check or a server answers its GET with ERROR, a passphrase met
    a record sealed with a raw key, the public and private containers
    carry different file ids or would share a backend, or a policy
    change came from a party other than the store's owner.

    It carries no reconstructed output: ``container.open_stream`` writes
    every piece before its digest check raises, so a caller that wants
    to inspect a failed recovery keeps what its writer got.
    """

    exit_code = 4


class NotFound(SefragError):
    """No blob stored under the requested id, no placement exists for
    the requested record id, a record is placed on an unknown backend,
    or the input to ``entropy`` is empty."""

    exit_code = 5


class BackendUnavailable(SefragError):
    """Storage backend cannot be reached, or the blob server could not
    bind its address."""

    exit_code = 6
