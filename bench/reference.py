#!/usr/bin/env python3
"""Reference figures for bench/README.md, measured once on one machine.

    python3 bench/reference.py

Prints one JSON object: cold `cocycle_c` times on the exponent-scaling
triple (1.5 z1^e z2^(e-1), -z1^(e-1) z2^e, i z1^e z2^e) for e = 2, 4, 6, 8
with the per-fiber eliminations each one runs, the CLI cold start, and the
share of profiled self time per module for one round of each workload.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from run import SRC, THREAD_ENV

CLI_EXAMPLE = ["cocycle3", "(2,0)", "(1,0)*z1", "(1,0)*z2"]


def cold_cocycle(e: int) -> dict:
    import tracing
    import workloads
    from detline import cocycle3 as c3
    from detline.torus import Monomial2

    args = (Monomial2(1.5, e, e - 1), Monomial2(-1.0, e - 1, e), Monomial2(1j, e, e))
    t0 = time.perf_counter()
    c3.cocycle_c(*args, workloads._fresh_context())
    seconds = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        c3.cocycle_c(*args, workloads._fresh_context())
    finally:
        tracer.uninstall()
    return {"e": e, "seconds": seconds, "linalg.elim.calls": tracer.metrics()["linalg.elim.calls"]}


def cli_cold_start(repeats: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "detline.cli", *CLI_EXAMPLE],
            env=env, check=True, capture_output=True,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def module_of(filename: str) -> str:
    path = Path(filename)
    if path.parent == SRC / "detline":
        return path.stem
    if "numpy" in path.parts:
        return "numpy"
    return "other"


def profile_shares(name: str) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name](0)
    wl.warmup()
    prof = cProfile.Profile()
    prof.enable()
    wl.run_round()
    prof.disable()
    per = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(prof).stats.items():
        per[module_of(filename)] += tottime
    total = sum(per.values())
    return {k: round(v / total, 3) for k, v in sorted(per.items(), key=lambda kv: -kv[1])}


def main() -> int:
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    report = {
        "cold_cocycle_c": [cold_cocycle(e) for e in (2, 4, 6, 8)],
        "cli_cold_start_s": cli_cold_start(),
        "profile_shares": {name: profile_shares(name) for name in ("cocycle3", "category", "window")},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
