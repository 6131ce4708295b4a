"""One benchmark process: set up one workload, then measure or trace it.

``run.py`` starts this script once per process it needs; run it directly
only to debug a workload.  Modes:

- ``setup``: import entmeas, write the inputs, make the warm-up calls, and
  report when the first timed call would start;
- ``measure``: the same set-up, then whole rounds of timed calls until
  ``--seconds`` have passed;
- ``trace``: the same, alternating an untimed-by-spans round with a round
  under the span recorder, for per-layer metrics and tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread keeps timings steady and the
# solver arithmetic in a fixed order.  ``batch`` gets one pool thread: with
# its default of two on a 2-core machine, exact-cli jobs_per_s was lower and
# spread three times wider between repeated runs of one seed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "ENTMEAS_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import entmeas  # noqa: E402
from entmeas import cli  # noqa: E402

import recorder as spans  # noqa: E402
import workloads  # noqa: E402

if Path(entmeas.__file__).resolve().parent != SRC / "entmeas":
    raise SystemExit(f"entmeas imported from {entmeas.__file__}, not from {SRC}")

MAX_PROBLEMS = 5


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Tally:
    """Counts, call times and check outcomes over the timed rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.jobs = 0
        self.batch_entries = 0
        self.call_s: list[float] = []
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}

    def call(self, op: workloads.Op, record: bool = True) -> None:
        config = cli.RunConfig(**op.args, fmt="json")
        start = time.perf_counter()
        try:
            code, text = cli.run(config)
        except Exception as exc:  # a traceback out of cli.run is a failed operation
            elapsed = time.perf_counter() - start
            outcome = f"{op.kind}: {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            outcome = None
            problem = op.check(code, text)
            if problem and len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)
        if not record:
            return
        self.attempted += 1
        self.call_s.append(elapsed)
        if outcome is not None:
            self.failed += 1
            self.failures[outcome] = self.failures.get(outcome, 0) + 1
        else:
            self.jobs += op.jobs
            if op.kind == "batch":
                self.batch_entries += op.jobs


def warm_up(ops, tally: Tally) -> None:
    """One untimed call of each kind, the first of its kind in the round."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            tally.call(op, record=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.workdir)
    tally = Tally()
    warm_up(ops, tally)
    setup_end = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    recorder = spans.Recorder() if args.mode == "trace" else None
    round_s = {"plain": 0.0, "traced": 0.0}
    traced_rounds = 0
    traced_entries = 0
    begin = time.perf_counter()
    rounds = 0
    while True:
        traced = recorder is not None and rounds % 2 == 1
        if traced:
            recorder.install()
        entries_before = tally.batch_entries
        start = time.perf_counter()
        for op in ops:
            tally.call(op)
        round_s["traced" if traced else "plain"] += time.perf_counter() - start
        if traced:
            recorder.uninstall()
            traced_rounds += 1
            traced_entries += tally.batch_entries - entries_before
        rounds += 1
        done = time.perf_counter() - begin >= args.seconds
        if done and (recorder is None or traced_rounds > 0):
            break

    out = {
        "setup_end": setup_end,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "correct": not tally.problems,
        "problems": tally.problems,
        "jobs": tally.jobs,
        "busy_s": sum(tally.call_s),
        "calls": len(tally.call_s),
        "call_p50_s": statistics.median(tally.call_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if len(tally.call_s) >= 100:
        out["call_p90_s"] = statistics.quantiles(tally.call_s, n=10)[-1]
    if recorder is not None:
        plain_rounds = rounds - traced_rounds
        overhead = ((round_s["traced"] / traced_rounds) / (round_s["plain"] / plain_rounds))
        out["layers"] = spans.layer_metrics(recorder.spans, traced_rounds,
                                            traced_entries, overhead)
        out["spans"] = len(recorder.spans)
        if args.trace_file is not None:
            recorder.write(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
