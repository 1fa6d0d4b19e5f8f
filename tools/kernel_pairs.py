"""Time the native chunk kernel of two C sources against each other.

    python tools/kernel_pairs.py OLD.c NEW.c [--rounds N] [--calls N]

Both sources are built with ``sefrag._native.COMPILE`` and ``LIBS`` into a
temp directory, once when both sides name one file.  Each round times
``--calls`` calls of ``sefrag_protect``, then as many of
``sefrag_recover``, over 4,096 units each (8 MiB at the default 64 calls,
the chunks of one file), into buffers allocated before the timed passes,
on each library in turn; which one runs first alternates from round to
round.  A round's time for one library and direction is the fastest of
``REPEATS`` passes.  Both libraries must give the same bytes, or the tool
exits 1.

Prints one JSON line: each side's per-round times in ms, the order the
sides ran in, and the lane count each library reports on this CPU.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sefrag import _native  # noqa: E402
from sefrag.core import CHUNK_UNITS, REMAINDER_LEN, SUB_LEN, UNIT_LEN  # noqa: E402

REPEATS = 5
SIDES = ("old", "new")


def build(sources: dict[str, Path], out: Path) -> dict[str, ctypes.CDLL]:
    """Compile each source file once, all at once, and load the libraries;
    a source given on both sides is one library."""
    paths = {side: source.resolve() for side, source in sources.items()}
    libraries = {path: out / f"kernel{n}.so" for n, path in enumerate(dict.fromkeys(paths.values()))}
    procs = [subprocess.Popen([*_native.COMPILE, "-o", str(library), str(path), *_native.LIBS])
             for path, library in libraries.items()]
    if any([proc.wait() for proc in procs]):
        sys.exit("a kernel source failed to build")
    return {side: _native._bind(str(libraries[path]), _native._SIGNATURES) for side, path in paths.items()}


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
              "recover_ms": {"old": [], "new": []}}
    with tempfile.TemporaryDirectory() as tmp:
        libs = build({"old": args.old, "new": args.new}, Path(tmp))
        result["lanes"] = {side: lib.sefrag_lanes() for side, lib in libs.items()}
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            result["first"].append(order[0])
            outputs = {}
            for side in order:
                (protect_ms, recover_ms), outputs[side] = passes(libs[side], units, key, args.calls)
                result["protect_ms"][side].append(round(protect_ms, 3))
                result["recover_ms"][side].append(round(recover_ms, 3))
            if outputs["old"] != outputs["new"] or outputs["old"][2] != units:
                print(json.dumps(dict(result, equal=False)))
                return 1
    print(json.dumps(dict(result, equal=True)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
