"""Fixtures shared by the test modules."""

import collections
import hashlib
import types

import pytest

from sefrag import core

# What a SHA-256 call in ``sefrag.core`` hashes, told apart by message length.
_HASH_KINDS = {
    core.SUB_LEN + core.KEY_LEN + 8: "protection",  # selected || key || LE64(unit)
    core.KEY_LEN + len(core._SELECTOR_DOMAIN) + 8: "selector",  # key || "FRAG-SEL" || LE64(block)
    0: "digest",  # the content digest starts empty and is fed by update()
}


@pytest.fixture
def sha256_calls(monkeypatch):
    """A Counter of the SHA-256 calls ``sefrag.core`` makes, by kind.

    ``core.hashlib`` is replaced by a namespace whose ``sha256`` tallies
    every call before it hashes, so the counts are counted, not derived
    from output sizes.
    """
    calls = collections.Counter()

    def sha256(data=b""):
        calls[_HASH_KINDS.get(len(data), len(data))] += 1
        return hashlib.sha256(data)

    monkeypatch.setattr(core, "hashlib", types.SimpleNamespace(sha256=sha256))
    return calls
