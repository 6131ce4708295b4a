"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it starts ``SETUP_SAMPLES - 1`` processes that only set
up, then one that sets up and measures; every process runs ``worker.py``
with one BLAS thread.  It prints the end-to-end metrics: ``setup_s`` is the
median set-up time over all of them, the other metrics come from the
measuring process.  With ``--trace 1`` one process alternates plain and
traced rounds and the per-layer metrics come from the traced ones.

The line before the result records the environment and the raw counts.
The script exits non-zero, without a result line, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("exact-cli", "sdp-certified", "ree-bounds")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
# a run ends after the round that crosses --seconds; one ree-bounds round
# takes about 12 s, so this leaves room for the longest round
ROUND_ALLOWANCE_S = 90

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "call_p50_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "entries": "count", "iterations": "count",
               "constraints": "count", "per_report": "count", "ratio": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "s"


def run_worker(mode: str, args, tag: str) -> dict:
    """Run one worker process to its end and return its result object."""
    workdir = OUT / f"work-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if mode == "trace":
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")]
    timeout = SETUP_TIMEOUT_S if mode == "setup" else SETUP_TIMEOUT_S + args.seconds + ROUND_ALLOWANCE_S
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        result = run_worker("trace", args, "trace")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result.pop("layers").items()}
        setups = [result["setup_s"]]
    else:
        setups = [run_worker("setup", args, f"setup{k}")["setup_s"]
                  for k in range(SETUP_SAMPLES - 1)]
        result = run_worker("measure", args, "measure")
        setups.append(result["setup_s"])
        values = {"setup_s": statistics.median(setups),
                  "jobs_per_s": result["jobs"] / result["busy_s"],
                  "call_p50_s": result["call_p50_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    info = {k: v for k, v in result.items() if k not in ("setup_end", "correct")}
    info.update(workload=args.workload, seed=args.seed, setup_samples_s=setups)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
