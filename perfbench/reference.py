"""Reference figures measured once, outside the workloads.

    python3 perfbench/reference.py

Each figure runs in a fresh process so the BLAS thread setting can differ:

- one 6x6 LMO solve (``minimize_over_ppt_states``), the largest size the
  REE accepts, on one BLAS thread;
- a 3x3 LMO solve and a 2x3 ``bsa`` on one BLAS thread and on the
  OpenBLAS default;
- the REE of one fixed 2x2 state under both thread settings, printed to 17
  digits, to show whether the thread count changes the result.

Figures go to standard output as one JSON object per line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

PROBE = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from entmeas import DensityOperator, best_separable_approximation
from entmeas import minimize_over_ppt_states, relative_entropy_of_entanglement

def objective(n, seed):
    g = np.random.default_rng(seed).normal(size=(n, n)) + 1j * np.random.default_rng(seed + 1).normal(size=(n, n))
    return (g + g.conj().T) / 2.0

def state(n, rank, seed):
    rng = np.random.default_rng(seed)
    while True:
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        rho = g @ g.conj().T
        rho = DensityOperator(rho / np.trace(rho).real, (2, n // 2))
        pt = rho.matrix.reshape(2, n // 2, 2, n // 2).transpose(0, 3, 2, 1).reshape(n, n)
        if np.linalg.eigvalsh(pt)[0] < -0.02:
            return rho

def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out

which = sys.argv[2]
if which == "lmo":
    d = int(sys.argv[3])
    minimize_over_ppt_states(objective(4, 0), (2, 2))
    s, _ = timed(lambda: minimize_over_ppt_states(objective(d * d, 7), (d, d)))
    print(json.dumps({"figure": f"lmo {d}x{d}", "s": s}))
elif which == "bsa":
    rho = state(6, 3, 11)
    best_separable_approximation(state(4, 3, 5))
    s, _ = timed(lambda: best_separable_approximation(rho))
    print(json.dumps({"figure": "bsa 2x3", "s": s}))
elif which == "ree":
    s, res = timed(lambda: relative_entropy_of_entanglement(state(4, 3, 3)))
    print(json.dumps({"figure": "ree 2x2 digits", "s": s, "value": repr(res.value),
                      "status": res.status, "iterations": res.iterations}))
"""


def probe(threads: str | None, *args: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", PROBE, str(HERE.parent / "src"), *args],
                         env=env, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["openblas_threads"] = threads or "default"
    return result


def main() -> int:
    print(json.dumps({"nproc": os.cpu_count()}))
    runs = [("1", "lmo", "6")]
    for threads in ("1", None):
        runs += [(threads, "lmo", "3"), (threads, "bsa"), (threads, "ree")]
    for threads, *args in runs:
        print(json.dumps(probe(threads, *args)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
