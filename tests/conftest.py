"""Fixtures shared by the test modules."""

import collections
import hashlib
import os
import types
from pathlib import Path

import pytest

import sefrag
from sefrag import _native, core

# What a SHA-256 call in ``sefrag.core`` or the pure-Python kernel hashes,
# told apart by message length.
_HASH_KINDS = {
    core.SUB_LEN + core.KEY_LEN + 8: "protection",  # selected || key || LE64(unit)
    core.KEY_LEN + len(core._SELECTOR_DOMAIN) + 8: "selector",  # key || "FRAG-SEL" || LE64(block)
    0: "digest",  # the content digest starts empty and is fed by update()
}


@pytest.fixture
def sha256_calls(monkeypatch):
    """A Counter of the SHA-256 calls ``sefrag.core`` and the pure-Python
    kernel in ``sefrag._native`` make, by kind.

    ``core.hashlib`` and ``_native.hashlib`` are replaced by a namespace
    whose ``sha256`` tallies every call before it hashes, so the counts
    are counted, not derived from output sizes.  The pure-Python kernel is pinned, because the
    native one hashes in C, out of the counter's sight.
    """
    calls = collections.Counter()

    def sha256(data=b""):
        calls[_HASH_KINDS.get(len(data), len(data))] += 1
        return hashlib.sha256(data)

    counted = types.SimpleNamespace(sha256=sha256)
    monkeypatch.setattr(core, "hashlib", counted)
    monkeypatch.setattr(_native, "hashlib", counted)
    python = _native.PythonKernel("pinned by sha256_calls")
    monkeypatch.setattr(core, "_kernel", lambda: python)
    return calls


def _package_env() -> dict:
    """Environment whose PYTHONPATH starts with this sefrag's package root,
    so a child interpreter imports the same sources from any directory."""
    root = str(Path(sefrag.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))


# One test id per kernel family, ``python`` and ``native``, for tests whose
# body is costly enough that each family should pass or fail on its own.
per_kernel_family = pytest.mark.parametrize("each_kernel_path", ["python", "native"], indirect=True)


@pytest.fixture(scope="session")
def kernels(tmp_path_factory) -> list:
    """The kernels this machine runs, as ``(label, kernel)`` pairs.

    ``python`` always; where the native kernel builds, also ``native``,
    the loaded one, and ``ubsan``, the same source compiled once per
    session with undefined-behaviour checks into a temp directory.  Where
    the native kernel builds, a failed UBSan build fails the tests that
    use this list, naming the compiler's first error line.
    """
    found = [("python", _native.PythonKernel("pinned by each_kernel_path"))]
    native = _native.load()
    if not isinstance(native, _native.Kernel):
        return found
    library = tmp_path_factory.mktemp("ubsan") / "kernel.so"
    # Without -fno-sanitize-recover a report is printed and the call goes
    # on, so the test that reached the site fails and the run continues.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "COMPILE", (*_native.COMPILE, "-O1", "-g", "-fsanitize=undefined"))
        reason = _native._build(library)
    if reason is not None:
        pytest.fail(f"UBSan build of the kernel failed: {reason}")
    return [*found, ("native", native), ("ubsan", _native.Kernel(library))]


@pytest.fixture
def each_kernel_path(request, kernels, monkeypatch, capfd):
    """Run one test body on each kernel path, under one test id.

    Iterating ``each_kernel_path()`` patches ``core._kernel`` to one
    kernel per step and yields ``(path, protect_chunk, recover_chunk)``:
    ``"python"``, ``"native"`` or ``"ubsan"`` and that kernel's chunk
    functions.  The pure-Python kernel always runs; the two native ones
    where the native kernel builds here.  A test marked ``per_kernel_family``
    gets one id per family instead: ``python`` runs the pure-Python kernel,
    ``native`` the native and UBSan builds, and skips, naming the reason,
    where the native kernel does not build.  At teardown the test fails if
    UBSan reported on stderr; it reports each source site once per
    process, so the first test that reaches a site fails.
    """
    family = getattr(request, "param", None)
    chosen = [(label, kernel) for label, kernel in kernels
              if family is None or (label == "python") == (family == "python")]
    if not chosen:
        pytest.skip(f"native kernel unavailable: {_native.load().name}")

    def paths():
        for label, kernel in chosen:
            monkeypatch.setattr(core, "_kernel", lambda: kernel)
            yield label, kernel.protect, kernel.recover

    yield paths
    err = capfd.readouterr().err
    if "runtime error:" in err:
        pytest.fail(f"UBSan reported undefined behaviour in the kernel:\n{err}")
