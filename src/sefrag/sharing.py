"""User-centric access control for private-fragment release.

The owner's device holds a small JSON policy store.  A role is a plain
string: the trusted roles "owner", "doctor" and "authority" always see
full records; a "requester" gets the public fragment only, unless the
owner has granted them access and not revoked it since; any other role
gets nothing.  Decisions gate ``release``, which fetches the
corresponding container bytes from the placed backends and can strip
the plaintext file header for anonymized hand-over.

Policy JSON, one object per record::

    {"record_id": "<hex>", "grants": [{"party": ..., "ts": ...}], "revoked": [...]}

Identity is presented, not authenticated; key conveyance to a grantee
is likewise out of scope here.
"""

from __future__ import annotations

import enum
import json
import time
from pathlib import Path

from . import container
from .errors import FormatError, IntegrityFailure


class Decision(str, enum.Enum):
    PUF_ONLY = "PufOnly"
    FULL = "Full"
    DENIED = "Denied"


class PolicyStore:
    """Owner's policy file: the owner id plus one policy per record.

    Exactly one owner per store; the first party to perform an owner
    action claims the slot, afterwards the id must match.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.owner_id: str | None = None
        # Record id -> (party id -> granted-at, revoked party ids); a party
        # is in at most one of the two.
        self._policies: dict[bytes, tuple[dict[str, float], set[str]]] = {}

    @classmethod
    def load(cls, path: str | Path) -> "PolicyStore":
        store = cls(path)
        if store.path.exists():
            try:
                obj = json.loads(store.path.read_text(encoding="utf-8"))
                store.owner_id = obj.get("owner")
                for entry in obj.get("policies", []):
                    store._policies[bytes.fromhex(entry["record_id"])] = (
                        {g["party"]: g["ts"] for g in entry.get("grants", [])},
                        set(entry.get("revoked", [])),
                    )
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise FormatError(f"{store.path} is not a policy file ({type(exc).__name__}: {exc})") from None
        return store

    def save(self):
        policies = [
            {
                "record_id": record_id.hex(),
                "grants": [{"party": p, "ts": ts} for p, ts in sorted(grants.items())],
                "revoked": sorted(revoked),
            }
            for record_id, (grants, revoked) in self._policies.items()
        ]
        with container.atomic_write(self.path) as write:
            write((json.dumps({"owner": self.owner_id, "policies": policies}, indent=2) + "\n").encode("utf-8"))

    def _change(self, owner_id: str, record_id: bytes) -> tuple[dict[str, float], set[str]]:
        """The record's grants and revocations, for the store's owner only."""
        if self.owner_id is None:
            self.owner_id = owner_id
        elif owner_id != self.owner_id:
            raise IntegrityFailure(f"store is owned by {self.owner_id!r}, not {owner_id!r}")
        return self._policies.setdefault(record_id, ({}, set()))


def grant(store: PolicyStore, owner_id: str, grantee_id: str, record_id: bytes) -> None:
    """The owner grants a party full access to one record; idempotent."""
    grants, revoked = store._change(owner_id, record_id)
    revoked.discard(grantee_id)
    grants.setdefault(grantee_id, time.time())
    store.save()


def revoke(store: PolicyStore, owner_id: str, grantee_id: str, record_id: bytes) -> None:
    """The owner withdraws a party's access to one record; never-granted
    parties revoke to a no-op."""
    grants, revoked = store._change(owner_id, record_id)
    grants.pop(grantee_id, None)
    revoked.add(grantee_id)
    store.save()


def request_access(store: PolicyStore, party_id: str, role: str, record_id: bytes) -> Decision:
    """Decide what a party, presenting ``role``, may see of one record.

    Trusted roles get everything; a requester needs an active grant to
    go beyond the public fragment; unrecognized roles (and owner
    impostors) get nothing.
    """
    if role == "owner":
        if store.owner_id is not None and party_id != store.owner_id:
            return Decision.DENIED
        return Decision.FULL
    if role in ("doctor", "authority"):
        return Decision.FULL
    if role != "requester":
        return Decision.DENIED
    grants, _ = store._policies.get(record_id, ({}, None))
    return Decision.FULL if party_id in grants else Decision.PUF_ONLY


def release(
    decision: Decision, placement, backends, anonymize: bool = False
) -> tuple[bytes | None, bytes | None]:
    """Fetch the fragments a decision allows: the ``.puf`` and ``.prf``
    container bytes, each None when withheld.

    ``placement`` is the record's ``dispersion.Placement``, and
    ``backends`` maps each backend name it gives to a
    ``dispersion.DirectoryBackend`` or ``dispersion.RemoteBackend``.

    ``anonymize`` strips the plaintext file header from the released
    public container (identity markers live there in most record
    formats); the protected content is untouched.
    """
    if decision == Decision.DENIED:
        return None, None
    puf = backends[placement.puf_backend].get(placement.puf_ref)
    if anonymize:
        puf = container._strip_head(puf)
    if decision == Decision.PUF_ONLY:
        return puf, None
    return puf, backends[placement.prf_backend].get(placement.prf_ref)
