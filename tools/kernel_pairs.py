"""Time the native chunk kernel of two C sources against each other.

    python tools/kernel_pairs.py OLD.c NEW.c [--rounds N] [--calls N]

Both sources are built with ``sefrag._native.COMPILE`` and ``LIBS`` into a
temp directory, once when both sides name one file.  Each round times
``--calls`` calls of ``sefrag_protect``, then as many of
``sefrag_recover``, over 4,096 units each (8 MiB at the default 64 calls,
the chunks of one file), into buffers allocated before the timed passes,
on each library in turn; which one runs first alternates from round to
round.  Each round also times one whole file pass each way on each
library whose file passes (``sefrag_seal_pass``, ``sefrag_open_pass``)
are defined as in the current ``_kernel.c``, compared as text, since
``sefrag._native.Kernel`` calls them with the current arguments:
``container.seal_stream`` of the same bytes from a file in a temp
directory into a fresh pair there, and ``open_stream`` back, with the
pass choosing its second worker as in ``sefrag protect``.  A round's
time for one library and direction is the fastest of ``REPEATS``
passes.  Both libraries must give the same bytes, and each file pass the
input back, or the tool exits 1.

Prints one JSON line: each side's per-round times in ms (``seal_ms`` and
``open_ms`` stay empty for a library without those file passes), the
order the sides ran in, and the lane count each library reports on this
CPU.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sefrag import _native, container, core  # noqa: E402
from sefrag.core import CHUNK_UNITS, REMAINDER_LEN, SUB_LEN, UNIT_LEN, ProtectionKey  # noqa: E402

REPEATS = 5
SIDES = ("old", "new")
# The chunk functions, which every version of the source has.
CHUNK_SIGNATURES = {name: _native._SIGNATURES[name] for name in ("sefrag_protect", "sefrag_recover", "sefrag_lanes")}


def pass_definitions(source: Path) -> list[str | None]:
    """The text of each file pass's definition in ``source``, from the start
    of its line to the end of its parameter list, or None where it has none."""
    text = source.read_text()
    return [match and match.group() for match in
            (re.search(rf"^.*\b{name}\([^)]*\)", text, re.M) for name in ("sefrag_seal_pass", "sefrag_open_pass"))]


def build(sources: dict[str, Path], out: Path) -> dict[str, Path]:
    """Compile each source file once, all at once; a source given on both
    sides is one library.  Returns each side's library."""
    paths = {side: source.resolve() for side, source in sources.items()}
    libraries = {path: out / f"kernel{n}.so" for n, path in enumerate(dict.fromkeys(paths.values()))}
    procs = [subprocess.Popen([*_native.COMPILE, "-o", str(library), str(path), *_native.LIBS])
             for path, library in libraries.items()]
    if any([proc.wait() for proc in procs]):
        sys.exit("a kernel source failed to build")
    return {side: libraries[path] for side, path in paths.items()}


def passes(lib: ctypes.CDLL, units: bytes, key: bytes, calls: int):
    """Protect then recover ``calls`` chunks; the fastest pass of each in
    ms, and the bytes each direction wrote."""
    pub = ctypes.create_string_buffer(REMAINDER_LEN * CHUNK_UNITS * calls)
    picked = ctypes.create_string_buffer(SUB_LEN * CHUNK_UNITS * calls)
    back = ctypes.create_string_buffer(UNIT_LEN * CHUNK_UNITS * calls)

    def view(buf, width: int, c: int):
        """Chunk c's part of ``buf``, written in place by the C code."""
        return (ctypes.c_char * (width * CHUNK_UNITS)).from_buffer(buf, width * CHUNK_UNITS * c)

    chunks = [(c * CHUNK_UNITS, units[UNIT_LEN * CHUNK_UNITS * c:UNIT_LEN * CHUNK_UNITS * (c + 1)],
               view(pub, REMAINDER_LEN, c), view(picked, SUB_LEN, c), view(back, UNIT_LEN, c))
              for c in range(calls)]

    def protect():
        for first, chunk, pub_c, picked_c, _ in chunks:
            lib.sefrag_protect(chunk, CHUNK_UNITS, key, first, pub_c, picked_c)

    def recover():
        for first, _, pub_c, picked_c, back_c in chunks:
            lib.sefrag_recover(pub_c, picked_c, CHUNK_UNITS, key, first, back_c)

    times = []
    for run in (protect, recover):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        times.append(1e3 * best)
    return times, (pub.raw, picked.raw, back.raw)


def file_passes(kernel: _native.Kernel, src: Path, key: ProtectionKey) -> tuple[list[float], bool]:
    """Seal and open ``src`` on ``kernel``'s file passes: the fastest of
    ``REPEATS`` runs each way, in ms, and whether every open gave ``src``
    back."""
    core._kernel = lambda: kernel
    work, best, equal = src.parent, [float("inf")] * 2, True
    for _ in range(REPEATS):
        puf, prf, back = work / "pass.puf", work / "pass.prf", work / "pass.out"
        start = time.perf_counter()
        with src.open("rb") as f:
            _, seal = container.seal_stream(f, lambda _salt: key)
            with container.atomic_write(puf) as write_puf, container.atomic_write(prf) as write_prf:
                seal(write_puf, write_prf)
        best[0] = min(best[0], time.perf_counter() - start)
        start = time.perf_counter()
        with puf.open("rb") as p, prf.open("rb") as q:
            recover = container.open_stream(p, q, lambda _salt: key)
            with container.atomic_write(back) as write:
                recover(write)
        best[1] = min(best[1], time.perf_counter() - start)
        equal = equal and back.read_bytes() == src.read_bytes()
        for path in (puf, prf, back):  # fresh names each time, as a rename over a file also times its writeback
            path.unlink()
    return [1e3 * t for t in best], equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--calls", type=int, default=64, help="4,096-unit chunk calls per pass")
    args = parser.parse_args(argv)
    rng = random.Random(28)
    units, key = rng.randbytes(UNIT_LEN * CHUNK_UNITS * args.calls), rng.randbytes(16)
    result = {"old": str(args.old), "new": str(args.new), "calls": args.calls, "units_per_call": CHUNK_UNITS,
              "repeats": REPEATS, "first": [], "protect_ms": {"old": [], "new": []},
              "recover_ms": {"old": [], "new": []}, "seal_ms": {"old": [], "new": []},
              "open_ms": {"old": [], "new": []}}
    with tempfile.TemporaryDirectory() as tmp:
        paths = build({"old": args.old, "new": args.new}, Path(tmp))
        libs = {side: _native._bind(str(path), CHUNK_SIGNATURES) for side, path in paths.items()}
        # The file passes run on the sides whose passes take the arguments _native passes.
        current = pass_definitions(_native.SOURCE)
        kernels = {side: _native.Kernel(paths[side]) for side, source in (("old", args.old), ("new", args.new))
                   if None not in current and pass_definitions(source) == current}
        src = Path(tmp) / "input.bin"
        src.write_bytes(units)
        result["lanes"] = {side: lib.sefrag_lanes() for side, lib in libs.items()}
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            result["first"].append(order[0])
            outputs, returned = {}, True
            for side in order:
                (protect_ms, recover_ms), outputs[side] = passes(libs[side], units, key, args.calls)
                result["protect_ms"][side].append(round(protect_ms, 3))
                result["recover_ms"][side].append(round(recover_ms, 3))
                if side in kernels:
                    (seal_ms, open_ms), back = file_passes(kernels[side], src, ProtectionKey(key))
                    result["seal_ms"][side].append(round(seal_ms, 3))
                    result["open_ms"][side].append(round(open_ms, 3))
                    returned = returned and back
            if outputs["old"] != outputs["new"] or outputs["old"][2] != units or not returned:
                print(json.dumps(dict(result, equal=False)))
                return 1
    print(json.dumps(dict(result, equal=True)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
