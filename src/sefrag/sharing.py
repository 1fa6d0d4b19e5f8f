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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from . import container
from .dispersion import DirectoryBackend, Placement, RemoteBackend
from .errors import FormatError, NotOwner


class Decision(str, enum.Enum):
    PUF_ONLY = "PufOnly"
    FULL = "Full"
    DENIED = "Denied"


@dataclass(frozen=True)
class Party:
    """A participant as presented to the policy engine; ``role`` is kept
    as the raw string so unrecognized claims can be denied."""

    id: str
    role: str


@dataclass
class SharePolicy:
    """Per-record grant state; a party is either granted or revoked,
    never both."""

    record_id: bytes
    grants: dict[str, float] = field(default_factory=dict)  # party id -> granted-at
    revoked: set[str] = field(default_factory=set)

    def to_json(self) -> dict:
        return {
            "record_id": self.record_id.hex(),
            "grants": [{"party": p, "ts": ts} for p, ts in sorted(self.grants.items())],
            "revoked": sorted(self.revoked),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SharePolicy":
        return cls(
            record_id=bytes.fromhex(obj["record_id"]),
            grants={g["party"]: g["ts"] for g in obj.get("grants", [])},
            revoked=set(obj.get("revoked", [])),
        )


class PolicyStore:
    """Owner's policy file: the owner id plus one policy per record.

    Exactly one owner per store; the first party to perform an owner
    action claims the slot, afterwards the id must match.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.owner_id: str | None = None
        self._policies: dict[bytes, SharePolicy] = {}

    @classmethod
    def load(cls, path: str | Path) -> "PolicyStore":
        store = cls(path)
        if store.path.exists():
            try:
                obj = json.loads(store.path.read_text(encoding="utf-8"))
                store.owner_id = obj.get("owner")
                for entry in obj.get("policies", []):
                    policy = SharePolicy.from_json(entry)
                    store._policies[policy.record_id] = policy
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise FormatError(f"{store.path} is not a policy file ({type(exc).__name__}: {exc})") from None
        return store

    def save(self):
        obj = {
            "owner": self.owner_id,
            "policies": [p.to_json() for p in self._policies.values()],
        }
        with container.atomic_write(self.path) as write:
            write((json.dumps(obj, indent=2) + "\n").encode("utf-8"))

    def policy_for(self, record_id: bytes) -> SharePolicy:
        if record_id not in self._policies:
            self._policies[record_id] = SharePolicy(record_id)
        return self._policies[record_id]

    def _check_owner(self, caller: Party):
        if caller.role != "owner":
            raise NotOwner(f"{caller.id!r} holds role {caller.role!r}, not owner")
        if self.owner_id is None:
            self.owner_id = caller.id
        elif caller.id != self.owner_id:
            raise NotOwner(f"store is owned by {self.owner_id!r}, not {caller.id!r}")


def grant(store: PolicyStore, caller: Party, grantee_id: str, record_id: bytes) -> SharePolicy:
    """Owner grants a party full access to one record; idempotent."""
    store._check_owner(caller)
    policy = store.policy_for(record_id)
    policy.revoked.discard(grantee_id)
    policy.grants.setdefault(grantee_id, time.time())
    store.save()
    return policy


def revoke(store: PolicyStore, caller: Party, grantee_id: str, record_id: bytes) -> SharePolicy:
    """Owner withdraws a party's access to one record; never-granted
    parties revoke to a no-op."""
    store._check_owner(caller)
    policy = store.policy_for(record_id)
    policy.grants.pop(grantee_id, None)
    policy.revoked.add(grantee_id)
    store.save()
    return policy


def request_access(store: PolicyStore, party: Party, record_id: bytes) -> Decision:
    """Decide what a party may see of one record.

    Trusted roles get everything; a requester needs an active grant to
    go beyond the public fragment; unrecognized roles (and owner
    impostors) get nothing.
    """
    if party.role == "owner":
        if store.owner_id is not None and party.id != store.owner_id:
            return Decision.DENIED
        return Decision.FULL
    if party.role in ("doctor", "authority"):
        return Decision.FULL
    if party.role != "requester":
        return Decision.DENIED
    policy = store._policies.get(record_id)
    if policy and party.id in policy.grants:
        return Decision.FULL
    return Decision.PUF_ONLY


def release(
    decision: Decision,
    placement: Placement,
    backends: Mapping[str, DirectoryBackend | RemoteBackend],
    anonymize: bool = False,
) -> tuple[bytes | None, bytes | None]:
    """Fetch the fragments a decision allows: the ``.puf`` and ``.prf``
    container bytes, each None when withheld.

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
