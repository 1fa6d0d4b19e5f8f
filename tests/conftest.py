"""Fixtures shared by the test modules."""

import collections
import hashlib
import types

import pytest

from sefrag import _native, core

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
    from output sizes.  The pure-Python kernel is pinned, because the
    native one hashes in C, out of the counter's sight.
    """
    calls = collections.Counter()

    def sha256(data=b""):
        calls[_HASH_KINDS.get(len(data), len(data))] += 1
        return hashlib.sha256(data)

    monkeypatch.setattr(core, "hashlib", types.SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(core, "_kernel", lambda: None)
    return calls


@pytest.fixture(params=["python", "native"])
def kernel_path(request, monkeypatch):
    """Run the test once on each kernel path.  The native half skips,
    naming the reason, when the kernel cannot be built here."""
    if request.param == "python":
        monkeypatch.setattr(core, "_kernel", lambda: None)
    else:
        loaded = _native.load()
        if loaded.kernel is None:
            pytest.skip(f"native kernel unavailable: {loaded.detail}")
        monkeypatch.setattr(core, "_kernel", lambda: loaded.kernel)
    return request.param


@pytest.fixture
def each_kernel_path(monkeypatch):
    """Run one test body on each kernel path, under one test id.

    Iterating ``each_kernel_path()`` patches ``core._kernel`` to one path
    per step and yields ``(name, protect_chunk, recover_chunk)``, that
    path's chunk functions.  The pure-Python path always runs; the native
    one when the kernel builds here (the native half of ``kernel_path``
    names the reason when it does not).
    """
    native = _native.load().kernel

    def paths():
        for kernel in (None, native) if native else (None,):
            monkeypatch.setattr(core, "_kernel", lambda: kernel)
            if kernel:
                yield "native", kernel.protect, kernel.recover
            else:
                yield "python", core._protect_chunk, core._recover_chunk

    return paths
