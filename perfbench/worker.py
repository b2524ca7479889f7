"""One benchmark process: set up a workload, then (in run mode) measure it.

Started by run.py with BLAS/OpenMP pinned to one thread and PYTHONHASHSEED
fixed in its environment, so both hold before numpy loads.  Set-up time is
counted from the parent's spawn time (CLOCK_MONOTONIC, shared by all
processes on Linux) to the moment the first timed op could start: imports,
input generation for round 0 and a warm-up op on inputs no timed op uses.
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
# peak RSS is read after this many rounds, a fixed amount of work, so it
# does not grow with the number of rounds a faster program fits in a run
RSS_ROUNDS = 3


def blas_threads() -> int:
    """Largest live thread count over the OpenBLAS libraries loaded here."""
    counts = []
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts.append(fn())
                break
    return max(counts) if counts else 0


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten ops beyond it (nearest rank)."""
    n = len(times)
    if n <= 10:
        return times[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return times[rank - 1], pct


class Runner:
    """Runs ops, times them, and checks them with tracing paused."""

    def __init__(self, tracer, check_failed) -> None:
        self.tracer = tracer
        self.check_failed = check_failed
        self.problems: list[str] = []

    def __call__(self, op, label) -> tuple[float, bool]:
        failed = False
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:
            failed = True
            if op.known_fault is None or not isinstance(exc, op.known_fault):
                self.problems.append(f"{label} ({op.kind}) raised:\n{traceback.format_exc()}")
        dt = time.perf_counter() - t0
        if self.tracer:
            self.tracer.recording = False
        if not failed:
            try:
                op.check(out)
            except self.check_failed as exc:
                self.problems.append(f"{label} ({op.kind}): {exc}")
        if self.tracer:
            self.tracer.recording = True
        return dt, failed


def run(args) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import workloads
    import refs

    runner = Runner(tracer, refs.CheckFailed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    for op in workload.warm_up_ops():
        runner(op, "warm-up op")
    ops = workload.round_ops(0)
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        if runner.problems:
            raise SystemExit("\n".join(runner.problems))
        return {"setup_s": setup_s}

    records = []  # (kind, seconds, timed, failed)
    op_id = 0
    rounds = 0
    peak_rss_mb = None
    start = time.monotonic()
    while True:
        for op in ops:
            if tracer:
                tracer.op = op_id
            dt, failed = runner(op, f"op {op_id}")
            if tracer:
                tracer.op = spans.SETUP_OP
            records.append((op.kind, dt, op.timed, failed))
            op_id += 1
        rounds += 1
        if rounds == RSS_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rounds >= RSS_ROUNDS and time.monotonic() - start >= args.seconds:
            break
        ops = workload.round_ops(rounds)
    wall_s = time.monotonic() - start

    times = sorted(dt for _kind, dt, timed, failed in records if timed and not failed)
    tail_s, tail_pct = tail(times)
    result = {
        "setup_s": setup_s,
        "correct": not runner.problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3]),
        "rounds": rounds,
        "wall_s": wall_s,
        "blas_threads": blas_threads(),
        "timed_ops": len(times),
        "ops_per_s": len(times) / math.fsum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "peak_rss_mb": peak_rss_mb,
        "problems": runner.problems[:20],
        "failed_kinds": sorted({r[0] for r in records if r[3]}),
        "kind_p50_ms": {
            kind: 1e3 * statistics.median(dt for k, dt, _t, f in records if k == kind and not f)
            for kind in sorted({r[0] for r in records if not r[3]})
        },
    }
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        result["layers"] = tracer.layer_metrics()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args(argv)
    sys.stdout.write(json.dumps(run(args)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
