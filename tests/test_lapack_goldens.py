"""CLI and window-pipeline bytes pinned for one numpy/OpenBLAS build.

The last digits of a window value, and the max_err of a verify check over
random complex matrices, depend on the LAPACK and BLAS kernels, so these
goldens hold for the build recorded in golden/lapack_build.json only.
On another build every test here fails, naming both builds; re-record with

    PYTHONPATH=src python tests/test_lapack_goldens.py

The window, cocycle3 and category rounds run as the benchmark runs them:
through bench/workloads.py, one `new_round()` state per round, on one BLAS
thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
BUILD = GOLDEN / "lapack_build.json"
RECORD = "PYTHONPATH=src python tests/test_lapack_goldens.py"
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}
ROUND = """import sys
sys.path.insert(0, sys.argv[1])
import workloads
wl = workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]))
state = wl.new_round()
for args in wl.ops:
    print(repr(wl.call(state, args)))
"""


def _run(*argv) -> bytes:
    return subprocess.run(argv, capture_output=True, env=CHILD_ENV, check=True).stdout


def _cli(*argv) -> bytes:
    return _run(sys.executable, "-m", "detline.cli", *argv)


def _round(workload, seed) -> bytes:
    return _run(sys.executable, "-c", ROUND, str(ROOT / "bench"), workload, str(seed))


GOLDENS = {
    # the README example
    "tame.json": lambda: _cli("tame", "z", "(2,0):(1,0)@0", "--numeric", "64"),
    "tame_128.json": lambda: _cli(
        "tame", "(1.3,0.2)*z^2", "(2,0):(0.4,0.1):(0.3,0)@-1", "--numeric", "128"
    ),
    # the README verify command and the three other suites' reference runs
    "verify_torsion.json": lambda: _cli(
        "verify", "--suite", "torsion", "--trials", "100", "--seed", "7"
    ),
    "verify_cocycle.json": lambda: _cli(
        "verify", "--suite", "cocycle", "--trials", "3", "--seed", "5"
    ),
    "verify_perturbation.json": lambda: _cli(
        "verify", "--suite", "perturbation", "--trials", "10", "--seed", "3"
    ),
    "verify_category.json": lambda: _cli(
        "verify", "--suite", "category", "--trials", "3", "--seed", "2"
    ),
    **{
        f"{workload}_seed{seed}.txt": lambda w=workload, s=seed: _round(w, s)
        for workload in ("window", "cocycle3", "category")
        for seed in (3, 9)
    },
}


def _build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 returns no dict
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_window_bytes_match_the_golden_of_this_build(name):
    recorded = json.loads(BUILD.read_text())
    assert recorded == _build(), (
        f"goldens recorded with {recorded}, this build is {_build()}; re-record with: {RECORD}"
    )
    assert GOLDENS[name]() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, make in GOLDENS.items():
        (GOLDEN / name).write_bytes(make())
    BUILD.write_text(json.dumps(_build(), sort_keys=True) + "\n")
