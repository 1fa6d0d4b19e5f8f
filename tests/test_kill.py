"""Commands killed with SIGKILL partway: every final name they leave is
absent or whole, and running the command again succeeds.

Each child is a ``python -m sefrag`` process, killed at seeded points
spread over the runtime of a full run measured first, one child at a
time, so the points follow this machine's speed rather than fixed delays.
"""

import random
import signal
import subprocess
import sys
import time

from conftest import _package_env

from sefrag.cli import main

KEY = "000102030405060708090a0b0c0d0e0f"
KILLS = 6


def sefrag(*argv) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "sefrag", *map(str, argv)], env=_package_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def kill_points(runtime: float, seed: int) -> list[float]:
    """``KILLS`` seeded delays, one in each equal slice of ``runtime``."""
    rng = random.Random(seed)
    return [runtime * (k + rng.random()) / KILLS for k in range(KILLS)]


def test_protect_killed_anywhere_leaves_each_fragment_whole_or_absent(tmp_path):
    data = random.Random(36).randbytes(8 << 20)
    src = tmp_path / "in.bin"
    src.write_bytes(data)

    def protect(out_dir) -> subprocess.Popen:
        return sefrag("protect", src, "--mode", "raw", "--key-hex", KEY, "--out-dir", out_dir)

    # The second of two full runs is timed: the first also warms the caches.
    for _ in range(2):
        start = time.perf_counter()
        with protect(tmp_path / "full") as child:
            assert child.wait(timeout=60) == 0, child.stderr.read()
        runtime = time.perf_counter() - start
    sizes = {suffix: (tmp_path / "full" / f"in{suffix}").stat().st_size for suffix in (".puf", ".prf")}

    for k, delay in enumerate(kill_points(runtime, seed=37)):
        out_dir = tmp_path / f"kill-{k}"
        with protect(out_dir) as child:
            time.sleep(delay)
            child.send_signal(signal.SIGKILL)  # a no-op if it has already exited
            child.wait(timeout=60)
        puf, prf = out_dir / "in.puf", out_dir / "in.prf"
        temps = sorted(p.name for p in out_dir.glob(".*.tmp")) if out_dir.exists() else []
        where = f"killed at {delay * 1e3:.0f} of {runtime * 1e3:.0f} ms, {len(temps)} temp files left: {temps}"
        # The .prf is renamed into place before the .puf.
        assert prf.exists() or not puf.exists(), where
        for path in (puf, prf):
            assert not path.exists() or path.stat().st_size == sizes[path.suffix], where
        if puf.exists():
            assert main(["recover", str(puf), str(prf), "--key-hex", KEY, "--out", str(out_dir / "back.bin")]) == 0
            assert (out_dir / "back.bin").read_bytes() == data, where
        with protect(out_dir) as rerun:
            assert rerun.wait(timeout=60) == 0, f"{where}; rerun: {rerun.stderr.read()}"
        assert {path.suffix: path.stat().st_size for path in (puf, prf)} == sizes, where


def test_recover_killed_anywhere_leaves_the_output_whole_or_absent(tmp_path):
    data = random.Random(38).randbytes(8 << 20)
    src, vault = tmp_path / "in.bin", tmp_path / "vault"
    src.write_bytes(data)
    assert main(["protect", str(src), "--mode", "raw", "--key-hex", KEY, "--out-dir", str(vault)]) == 0

    def recover(out) -> subprocess.Popen:
        return sefrag("recover", vault / "in.puf", vault / "in.prf", "--key-hex", KEY, "--out", out)

    # The second of two full runs is timed: the first also warms the caches.
    for _ in range(2):
        start = time.perf_counter()
        with recover(tmp_path / "full.bin") as child:
            assert child.wait(timeout=60) == 0, child.stderr.read()
        runtime = time.perf_counter() - start

    for k, delay in enumerate(kill_points(runtime, seed=39)):
        out_dir = tmp_path / f"kill-{k}"
        out = out_dir / "back.bin"
        with recover(out) as child:
            time.sleep(delay)
            child.send_signal(signal.SIGKILL)  # a no-op if it has already exited
            child.wait(timeout=60)
        temps = sorted(p.name for p in out_dir.glob(".*.tmp")) if out_dir.exists() else []
        where = f"killed at {delay * 1e3:.0f} of {runtime * 1e3:.0f} ms, {len(temps)} temp files left: {temps}"
        assert not out.exists() or out.read_bytes() == data, where
        with recover(out) as rerun:
            assert rerun.wait(timeout=60) == 0, f"{where}; rerun: {rerun.stderr.read()}"
        assert out.read_bytes() == data, where
