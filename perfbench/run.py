"""sefrag benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk-image --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs the workload untraced for half of ``--seconds``, then
again with spans recorded at every layer boundary for the other half,
and reports the per-layer metrics of ``layers.METRICS``. Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed output
check makes the run exit 1 and name the check on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # before the timed loop, and again after it
PROBE_REPS = 5
TAIL_MIN_SAMPLES = 100  # p90 needs ten samples beyond it


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def environment() -> str:
    import cryptography
    from cryptography.hazmat.backends.openssl.backend import backend

    return (f"python={sys.version.split()[0]} cryptography={cryptography.__version__} "
            f"openssl=\"{backend.openssl_version_text()}\" nproc={len(os.sched_getaffinity(0))} "
            "disk=page-cache-not-device")


class Report:
    """End-to-end metrics, printed as they are added."""

    def __init__(self):
        self.gated: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, n: int, gated: bool = False, note: str = ""):
        print(f"metric {name} {value:.6g} {unit} n={n}{note}")
        if gated:
            self.gated[name] = {"value": value, "unit": unit}

    def latency(self, name: str, calls: list, ref: bool = False):
        if not calls:
            return
        ms = [1e3 * c.seconds for c in calls]
        self.add(f"{name}_p50_ms", statistics.median(ms), "ms", len(ms))
        note = "" if len(ms) >= TAIL_MIN_SAMPLES else f" (p90 wants n>={TAIL_MIN_SAMPLES})"
        self.add(f"{name}_p90_ms", percentile(ms, 90), "ms", len(ms), note=note)
        if ref:
            self.add(f"{name}_p50_ref", statistics.median(c.ref for c in calls), "ref", len(ms))


def end_to_end(workload, setup: list[float]) -> dict[str, dict]:
    calls = workload.calls
    by_kind: dict[str, list] = {}
    for c in calls:
        by_kind.setdefault(c.kind, []).append(c)

    def of(kind: str) -> list:
        return by_kind.get(kind, [])

    report = Report()
    report.add("setup_s", statistics.median(setup), "s", len(setup), gated=True)
    failed = sum(not c.ok for c in calls)
    report.add("error_rate", failed / len(calls), "ratio", len(calls))
    who = resource.RUSAGE_CHILDREN if workload.rss_who == "children" else resource.RUSAGE_SELF
    report.add("peak_rss_mib", resource.getrusage(who).ru_maxrss / 1024, "MiB", 1, gated=True,
               note=f" ({workload.rss_who})")
    report.latency("protect", of("protect"), ref=True)
    report.latency("recover", of("recover"), ref=True)
    ops = len(workload.op_seconds)
    report.add("files_per_s", ops / sum(workload.op_seconds), "1/s", ops)
    report.add("op_p50_ref", statistics.median(workload.op_refs), "ref", ops, gated=True)
    report.add("reference_p50_ms", 1e3 * statistics.median(c.seconds / c.ref for c in calls),
               "ms", len(calls))
    for kind in ("protect", "recover"):
        done = of(kind)
        mib = sum(c.nbytes for c in done) / (1 << 20)
        report.add(f"{kind}_mb_s", mib / sum(c.seconds for c in done), "MiB/s", len(done))
    report.latency("put", of("put"))
    report.latency("fetch", of("fetch"))
    if of("share"):
        share_ms = [1e3 * c.seconds for c in of("share")]
        report.add("share_p50_ms", statistics.median(share_ms), "ms", len(share_ms))
    return report.gated


def timed_run(cls, seed: int, seconds: float, tmp: Path):
    import layers
    from spans import wrapped
    from workloads import run_loop

    checks: Counter[str] = Counter()
    workload = cls(seed, tmp / "run")
    if wrapped(layers.boundaries()):
        checks["no_wrappers"] += 1
    # Set-ups on both sides of the loop, so their median does not hang on
    # the CPU speed of one moment.
    setup = [workload.setup_seconds() for _ in range(SETUP_REPS)]
    try:
        workload.prepare()
        run_loop(workload, seconds)
    finally:
        workload.teardown()
    setup += [workload.setup_seconds() for _ in range(SETUP_REPS)]
    if wrapped(layers.boundaries()):
        checks["no_wrappers"] += 1
    return [workload], end_to_end(workload, setup), checks


def startup_ms(tmp: Path) -> tuple[float, bool]:
    """Subprocess p50 minus in-process ``cli.main`` p50 for one command line."""
    from inputs import dicom_like, rng_for, with_tail, write_input
    from workloads import run_in_process, run_process

    tmp.mkdir()
    src = write_input(tmp / "probe.dcm", dicom_like(rng_for("probe", 0, 0), with_tail(16 << 10)))
    argv = ["protect", str(src.path), "--mode", "dicom", "--key-hex", "00" * 16,
            "--out-dir", str(tmp / "out")]
    sub = [run_process([sys.executable, "-m", "sefrag", *argv], tmp) for _ in range(PROBE_REPS)]
    inproc = [run_in_process(argv) for _ in range(PROBE_REPS)]
    ok = all(rc == 0 for rc, _, _ in sub + inproc)
    gap = statistics.median(s for _, _, s in sub) - statistics.median(s for _, _, s in inproc)
    return 1e3 * gap, ok


def aes_mib_s(workload, count: int) -> float:
    """Whole-file AES-128-CBC with PKCS#7 over the workload's first inputs,
    best of three per input."""
    from cryptography.hazmat.primitives import padding
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    key, iv = bytes.fromhex(workload.key), bytes(16)
    total_bytes, total_s = 0, 0.0
    for i in range(count):
        data = workload.input_bytes(i)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            padder = padding.PKCS7(128).padder()
            enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
            enc.update(padder.update(data) + padder.finalize())
            enc.finalize()
            best = min(best, time.perf_counter() - start)
        total_bytes += len(data)
        total_s += best
    return total_bytes / (1 << 20) / total_s


def trace_run(cls, seed: int, seconds: float, tmp: Path):
    import layers
    import selftest
    from spans import Tracer, descendants, self_times, wrapped
    from workloads import run_loop

    checks: Counter[str] = Counter()
    for failure in selftest.failures():
        print(f"selftest failed: {failure}", file=sys.stderr)
        checks["harness_selftest"] += 1
    startup, probe_ok = startup_ms(tmp / "probe")
    if not probe_ok:
        checks["startup_probe"] += 1

    plain = cls(seed, tmp / "untraced")
    try:
        plain.prepare()
        run_loop(plain, seconds / 2)
    finally:
        plain.teardown()

    tracer = Tracer()
    traced = cls(seed, tmp / "traced", tracer)
    try:
        traced.prepare()
        with tracer.installed(layers.boundaries()):
            op_spans = run_loop(traced, seconds / 2)
    finally:
        traced.teardown()
    if wrapped(layers.boundaries()):
        checks["wrappers_removed"] += 1

    selfs = self_times(tracer.spans)
    for op in op_spans:
        if sum(selfs[s.id] for s in descendants(tracer.spans, op)) > op.duration + 1e-9:
            checks["trace_self_time"] += 1

    m = min(len(plain.op_refs), len(traced.op_refs))
    protects = [c for c in plain.calls if c.kind == "protect"]
    extras = {
        "cli.startup_ms": startup,
        "server_peak_rss_mib": traced.server_peak_rss_mib,
        "user_bytes_put": traced.user_bytes_put,
        "protect_mib_s": sum(c.nbytes for c in protects) / (1 << 20) / sum(c.seconds for c in protects),
        "aes_mib_s": aes_mib_s(traced, min(len(op_spans), 16)),
        "overhead_pct": 100 * (sum(traced.op_refs[:m]) / sum(plain.op_refs[:m]) - 1),
    }
    trace = layers.Trace(tracer.spans, len(op_spans), extras)
    spans_out = ROOT / ".perfbench_spans" / f"{cls.name}-seed{seed}.json"
    spans_out.parent.mkdir(exist_ok=True)
    spans_out.write_text(json.dumps(tracer.dump()))
    print(f"# spans {spans_out.relative_to(ROOT)} ({len(tracer.spans)})")
    metrics = {}
    for metric in layers.METRICS:
        value = metric.value(trace)
        print(f"layer {metric.name} {value:.6g} {metric.unit} ops={len(op_spans)} "
              f"moves: {metric.moves}")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return [plain, traced], metrics, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk-image", "record-store", "cli-passphrase"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sefrag" / "__init__.py").is_file():
        print(f"error: sefrag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sefrag

    if Path(sefrag.__file__).resolve().parent != SRC / "sefrag":
        print(f"error: imported sefrag from {sefrag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop=closed clients=1")
    print(f"# env {environment()}")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = trace_run if args.trace else timed_run
        workloads, metrics, failures = run(WORKLOADS[args.workload], args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    calls = [c for w in workloads for c in w.calls]
    for w in workloads:
        failures.update(w.failures)
    failed = sum(not c.ok for c in calls)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    if not correct:
        names = ", ".join(f"{name} x{n}" for name, n in sorted(failures.items()))
        print(f"error: failed checks: {names}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
