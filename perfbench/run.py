"""Run one lightcone benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 50 --trace 0

Workloads: bounds, exact_causal (see perfbench/README.md).
Each run starts fresh worker processes (perfbench/worker.py) with BLAS and
OpenMP pinned to one thread and PYTHONHASHSEED fixed before numpy loads,
and with only this checkout's ``src`` on PYTHONPATH.

--trace 0: two set-up-only workers, the measuring worker, then two more
set-up-only workers; setup_s is the median of the five set-up times, the
other end-to-end metrics come from the measuring worker.  --trace 1: one measuring worker with every
traced lightcone function wrapped; it reports the per-layer metrics and
writes its spans under .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without a result when the
checkout holds no lightcone source or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bounds", "exact_causal")
SETUP_ONLY_WORKERS = 4
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        PYTHONNOUSERSITE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "lightcone" / "__init__.py").is_file():
        print(f"error: no lightcone source under {SRC}", file=sys.stderr)
        return 2
    # set-up-only workers run before and after the measuring one, so the
    # median set-up time samples the machine over the whole run
    setup_only = 0 if args.trace else SETUP_ONLY_WORKERS
    try:
        setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(setup_only // 2)]
        res = run_worker(args, "run", deadline)
        setups += [run_worker(args, "setup", deadline)["setup_s"] for _ in range(setup_only - setup_only // 2)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(res["setup_s"])

    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {res['rounds']} rounds in "
        f"{res['wall_s']:.1f} s, {res['attempted']} ops attempted, {res['failed']} failed "
        f"{res['failed_kinds']}, {res['timed_ops']} timed; live BLAS threads {res['blas_threads']}"
    )
    print(
        f"# ops_per_s {res['ops_per_s']:.4g}  op_p50_ms {res['op_p50_ms']:.4g}  "
        f"op_tail_ms {res['op_tail_ms']:.4g} = p{res['tail_percentile']} of {res['timed_ops']} ops "
        f"(at least 10 beyond)  setup_s {' '.join(f'{s:.3f}' for s in setups)}  "
        f"peak_rss_mb {res['peak_rss_mb']:.1f}"
    )
    print("# op p50 by kind (ms): " + "  ".join(f"{k} {v:.4g}" for k, v in res["kind_p50_ms"].items()))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["layers"].items()}
        metrics["runtime.blas_threads"] = {"value": res["blas_threads"], "unit": "count"}
    else:
        values = {
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
