#!/usr/bin/env python3
"""Run one workload of the detline benchmark and print its metrics.

    python3 bench/run.py --workload cocycle3 --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones (setup_s, wall_s, op_p50_ms, peak_rss_mb); with
`--trace 1` they are the per-layer ones of bench/tracing.py, and the spans
go to .bench_results/.  The run imports detline from the checkout's src/
and fails without a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
WORKLOADS = ("cocycle3", "category", "window")
# Matrices are at most a few hundred wide: extra BLAS threads only add
# scheduler noise on a small machine.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DETLINE_THREADS": "1",
}
# Set-up is timed in this process and in fresh interpreters; the median is reported.
SETUP_SAMPLES = 5


def set_up(workload: str, seed: int):
    """Import detline, build the inputs and warm up; return them with timings."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and detline

    t1 = time.perf_counter()
    import detline

    if Path(detline.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"detline imported from {detline.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[workload](seed)
    t2 = time.perf_counter()
    wl.warmup()
    t3 = time.perf_counter()
    return wl, {"import_s": t1 - t0, "warmup_s": t3 - t2, "setup_s": t3 - t0}


def probe_setup(workload: str, seed: int) -> dict:
    """Time the whole set-up once more in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_rounds(wl, rounds):
    """(attempted, failed, correct) over every result of every round."""
    attempted = failed = 0
    correct = True
    for _, _, results in rounds:
        attempted += len(results)
        failed += sum(isinstance(r, Exception) for r in results)
        correct = correct and not wl.bad_ops(results)
    return attempted, failed, correct and wl.self_test(rounds[0][2])


def measure(wl, seconds: float, setups):
    """Whole rounds until `seconds` have passed; end-to-end metrics."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.run_round())
    op_times = [t for _, times, _ in rounds for t in times]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(r[0] for r in rounds), "s"),
        "op_p50_ms": (1e3 * statistics.median(op_times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return rounds, metrics


def measure_traced(wl, setups, spans_path: Path):
    """One untraced and one traced round; per-layer metrics."""
    import tracing

    plain = wl.run_round()
    tracer = tracing.Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        traced = wl.run_round()
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, origin)
    values = tracer.metrics()
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.warmup_s"] = statistics.median(s["warmup_s"] for s in setups)
    values["trace.overhead_s"] = traced[0] - plain[0]
    metrics = {name: (values.get(name, 0), unit) for name, unit, _ in tracing.PER_LAYER}
    return [plain, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.environ.update(THREAD_ENV)  # before numpy is imported, here and in children
    if not (SRC / "detline" / "__init__.py").is_file():
        print(f"detline sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl, first = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(first))
        return 0
    setups = [first] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        rounds, metrics = measure_traced(wl, setups, OUT / f"{stem}-spans.json")
    else:
        rounds, metrics = measure(wl, args.seconds, setups)
    attempted, failed, correct = check_rounds(wl, rounds)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
