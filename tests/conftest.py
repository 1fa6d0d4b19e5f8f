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
    python = _native.PythonKernel("pinned by sha256_calls")
    monkeypatch.setattr(core, "_kernel", lambda: python)
    return calls


@pytest.fixture(params=["python", "native"])
def kernel_path(request, monkeypatch):
    """Run the test once on each kernel path.  The native half skips,
    naming the reason, when the kernel cannot be built here."""
    if request.param == "python":
        kernel = _native.PythonKernel("pinned by kernel_path")
    else:
        kernel = _native.load()
        if not isinstance(kernel, _native.Kernel):
            pytest.skip(f"native kernel unavailable: {kernel.name}")
    monkeypatch.setattr(core, "_kernel", lambda: kernel)
    return request.param


@pytest.fixture
def each_kernel_path(monkeypatch):
    """Run one test body on each kernel path, under one test id.

    Iterating ``each_kernel_path()`` patches ``core._kernel`` to one
    kernel per step and yields ``(path, protect_chunk, recover_chunk)``:
    ``"python"`` or ``"native"`` and that kernel's chunk functions.  The
    pure-Python kernel always runs; the native one when it builds here
    (the native half of ``kernel_path`` names the reason when it does not).
    """
    kernels = [_native.PythonKernel("pinned by each_kernel_path")]
    if isinstance(_native.load(), _native.Kernel):
        kernels.append(_native.load())

    def paths():
        for kernel in kernels:
            monkeypatch.setattr(core, "_kernel", lambda: kernel)
            yield kernel.name.split()[0], kernel.protect, kernel.recover

    return paths
