"""Benchmark of chdp: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's `src/`.  Workloads and metrics are declared in
`BENCHMARK.json` at the root.  Each run starts fresh single-threaded
processes (`perfbench/worker.py`) with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set to 1:

- SETUP_PROBES set-up-only processes, each timed from start to READY;
- one measuring process that calls
  `chdp.cli.main(argv)` in-process for T seconds and checks every output.

End-to-end metrics (--trace 0): wall_s is the median wall time of one
repetition, from entering the CLI call to the end of the last timed call;
work_per_s is the repetition's RK4 steps, or curvature planes on the scan,
divided by wall_s; setup_s is the median start-to-READY time; peak_rss_mb
is ru_maxrss of the measuring process.  wall_s and setup_s are normalised
to a reference host speed (`perfbench/calibration.py`): each measurement
is scaled by a fixed kernel of the same kind of work, timed on both sides
of it, because the speed of a shared virtual machine follows its host's
load.  The raw samples,
their median and 90th percentile and the sample counts are printed on the
line before the result.  With --trace 1 the metrics are the per-layer
ones from `perfbench/tracer.py`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Failed checks are listed on
standard error.  Work files go to `.perfbench-work/<workload>/` in the
checkout.  Exits 2 without a result when the checkout holds no `src/chdp`.
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

from calibration import INTERPRETER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150.0
MAX_MESSAGES = 20


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns the process and the seconds taken."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not reach READY (got {line!r})")
    return proc, ready


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "chdp" / "__init__.py").is_file():
        print(f"error: no chdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    setups, scaled_setups = [], []
    try:
        before = INTERPRETER.seconds()
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(["setup", *common])
            finish(proc)
            after = INTERPRETER.seconds()
            setups.append(ready)
            scaled_setups.append(INTERPRETER.normalise(ready, before, after))
            before = after
        proc, _ = start_worker(["run", *common, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        result = json.loads(finish(proc).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for message in result["messages"][:MAX_MESSAGES]:
        print(message, file=sys.stderr)
    if len(result["messages"]) > MAX_MESSAGES:
        print(f"... {len(result['messages']) - MAX_MESSAGES} more", file=sys.stderr)
    walls = sorted(result["walls"])
    wall = statistics.median(result["scaled_walls"])
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(scaled_setups),
            "work_per_s": result["units"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print(json.dumps({"environment": result["environment"],
                      "csv_sha256": result["hashes"],
                      "wall_median_s": statistics.median(walls),
                      "wall_p90_s": walls[int(0.9 * (len(walls) - 1))],
                      "wall_samples": len(walls),
                      "wall_samples_s": result["walls"],
                      "setup_samples_s": setups,
                      "setup_median_s": statistics.median(setups)}))
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
