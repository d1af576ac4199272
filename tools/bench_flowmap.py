"""Layer timings: Eulerian kernel and steps, flow-map steps, off-grid evaluation, momentum drift, rigid body, curvature scan, CSVs, C6-C8.

    python3 tools/bench_flowmap.py --parent OLD/src --change NEW/src \\
        [--repeats 9] [--out BENCH.json]

Each repeat runs one fresh process per tree (alternating which goes
first), and each process measures every layer once, those down to
`momentum_drift` at each n in {64, 256, 1024, 4096}:

- `offgrid_ms`: `spectral._offgrid` of the stacked (u, rho) spectra, every
  mode to n/2, at the points x + xi of a seeded displacement xi;
- `kernel_us/2ch` and `kernel_us/2dp`: one call of the Eulerian
  right-hand side on the Fourier coefficients (rfft / n) of (u, rho),
  `evolution._kernel`'s map of coefficients, for 2CH and 2DP;
- `flow_step_ms` and `euler_step_ms`: one RK4 step of `evolve_flowmap`
  and of `evolve`, 2DP, monitor included, from two short runs (the
  difference of the fastest of 7 60-step runs and the fastest of 7
  10-step runs, over 50, so the per-run set-up and diagnostics cancel; a
  median of 30- and 10-step runs could not resolve 10 % at n = 4096);
- `invert_diffeo_ms` and `invert_diffeo_peak_mb` (tracemalloc peak of one
  call, untimed);
- `drift_ms` and `drift_peak_mb` (tracemalloc peak of one call, untimed):
  `flowmap.momentum_drift` of one fixed 2CH flow-map run of 4 steps
  (dt 1e-4, every step kept, so 5 rows, kmax = n/2), which takes the
  slopes psi_x and f_x of each row it reads;
- `body_step_us`: one RK4 step of `evolve_rigidbody` on the reference spin
  (inertia 1,2,3, omega 1,1,1, dt 1e-3), the fastest-of-7 difference of
  a (10 + 4 `rigidbody._BLOCK_ROWS`)-step and a 10-step run over their
  step difference, as for the flow-map steps: the kept attitudes are
  projected in blocks of `_BLOCK_ROWS` rows, so the difference holds four
  whole blocks and each step's share of their projection;
- `attitude_projection_ms`: the projection of the attitudes kept over
  that spin's 5001-row trajectory (dt 1e-3, t = 5) onto SO(3): the 5000
  attitudes that RK4 carries, which no step projects, from the stacked
  oracle `object_form.stacked_states` of this checkout's `tests/`, through
  `rigidbody._reorthonormalize` in blocks of `rigidbody._BLOCK_ROWS` rows,
  as `evolve_rigidbody` projects them;
- `scan_ms/M=8` and `scan_ms/M=16`: `curvature.positivity_scan(M)` on
  its default grid;
- `scan_csv_ms/M=16`: `csvio.write_scan` of that mode-16 table (32760
  rows) into a temporary directory;
- `rigidbody_csv_ms`: `csvio.write_rigidbody` of the reference spin's
  5001-row trajectory (dt 1e-3, t = 5);
- `import_s`: `import chdp.cli` in the fresh process, what every command
  pays before its own module (`import chdp` alone loads no submodule);
- `criterion_s/C7`, `criterion_s/C6` and `criterion_s/C8`: one
  `verification.run_criterion` call each, in that order, once per
  process.  The criteria share one cached smooth run per model, so C7
  goes first and times its two flow maps (2CH, 2DP); C6 then makes only
  DP's, and C8 reads the cached runs.

A sample is the median over calls within one process (at least 5 calls
and 0.1 s), the difference of two fastest-of-7 runs for a step, or the
one call of a criterion; the record holds every sample, each tree's
median and their ratios. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZES = (64, 256, 1024, 4096)


def _per_call(fn, min_calls=5, min_seconds=0.1):
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_step(run, steps=60):
    """Seconds per step of run(count), from the fastest of 7 `steps`-step and of 7 10-step runs."""
    def fastest(count):
        run(count)
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            run(count)
            times.append(time.perf_counter() - t0)
        return min(times)

    return (fastest(steps) - fastest(10)) / (steps - 10)


def measure() -> dict:
    """One sample of every layer in this process's `chdp`."""
    t0 = time.perf_counter()
    import chdp.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import tracemalloc

    import numpy as np

    from chdp import evolution, spectral
    from chdp.connection import Model, VelocityPair
    from chdp.evolution import EvolutionConfig, evolve
    from chdp.flowmap import evolve_flowmap, momentum_drift

    out = {"import_s": import_s}
    for n in SIZES:
        grid = spectral.Grid(n)
        rng = np.random.default_rng(n)
        x = grid.points
        state = np.zeros((4, n))
        for row, scale in ((0, 0.3), (1, 0.1), (2, 0.01)):
            field = spectral.random_band_limited(grid, rng, 6, scale=scale)
            state[row] = field.values
        for row in (0, 1):
            state[row] = spectral.dealias(spectral.PeriodicField(grid, state[row])).values
        y = x + state[2]
        spectra = np.fft.rfft(state[:2])
        out[f"offgrid_ms/n={n}"] = 1e3 * _per_call(lambda: spectral._offgrid(spectra, y))
        for model in (Model.CH2, Model.DP2):
            out[f"kernel_us/{model.value}/n={n}"] = 1e6 * _per_call(
                functools.partial(evolution._kernel(model, n, 2), spectra / n))

        initial = VelocityPair(spectral.PeriodicField(grid, state[0]),
                               spectral.PeriodicField(grid, state[1]))

        def steps(run):
            return lambda count: run(EvolutionConfig(Model.DP2, dt=1e-4, t_end=count * 1e-4,
                                                     diagnostics_stride=count), initial)

        out[f"flow_step_ms/n={n}"] = 1e3 * _per_step(steps(evolve_flowmap))
        out[f"euler_step_ms/n={n}"] = 1e3 * _per_step(steps(evolve))

        phi = spectral.Diffeo(spectral.PeriodicField(grid, state[2]))
        out[f"invert_diffeo_ms/n={n}"] = 1e3 * _per_call(lambda: spectral.invert_diffeo(phi))
        tracemalloc.start()
        spectral.invert_diffeo(phi)
        out[f"invert_diffeo_peak_mb/n={n}"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

        drift_run = evolve_flowmap(EvolutionConfig(Model.CH2, dt=1e-4, t_end=4e-4,
                                                   diagnostics_stride=1), initial)
        out[f"drift_ms/n={n}"] = 1e3 * _per_call(lambda: momentum_drift(drift_run))
        tracemalloc.start()
        momentum_drift(drift_run)
        out[f"drift_peak_mb/n={n}"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    from chdp import rigidbody

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    import object_form

    body = rigidbody.RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    out["body_step_us"] = 1e6 * _per_step(
        lambda count: rigidbody.evolve_rigidbody(body, dt=1e-3, t_end=count * 1e-3),
        steps=10 + 4 * rigidbody._BLOCK_ROWS)
    carried = object_form.stacked_states(body, 1e-3, 5000)[1:, 1:]
    rows = rigidbody._BLOCK_ROWS
    out["attitude_projection_ms"] = 1e3 * _per_call(
        lambda: [rigidbody._reorthonormalize(carried[start:start + rows])
                 for start in range(0, 5000, rows)])

    from chdp import csvio, curvature

    for max_mode in (8, 16):
        out[f"scan_ms/M={max_mode}"] = 1e3 * _per_call(
            lambda: curvature.positivity_scan(max_mode))
    table = curvature.positivity_scan(16)
    trajectory = rigidbody.evolve_rigidbody(body, dt=1e-3, t_end=5.0)
    with tempfile.TemporaryDirectory() as tmp:
        out["scan_csv_ms/M=16"] = 1e3 * _per_call(
            lambda: csvio.write_scan(Path(tmp) / "scan.csv", table))
        out["rigidbody_csv_ms"] = 1e3 * _per_call(
            lambda: csvio.write_rigidbody(Path(tmp) / "rigidbody.csv", trajectory))

    from chdp import verification

    for cid in ("C7", "C6", "C8"):
        result = verification.run_criterion(cid)
        if not result.passed:
            raise SystemExit(f"{cid} failed: {result.detail}")
        out[f"criterion_s/{cid}"] = result.seconds
    return out


def _sample(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    samples = {side: [] for side in trees}
    for rep in range(args.repeats):
        order = ["parent", "change"] if rep % 2 == 0 else ["change", "parent"]
        for side in order:
            samples[side].append(_sample(trees[side]))
            print(f"repeat {rep + 1}/{args.repeats} {side} done", file=sys.stderr)

    record = {
        "description": __doc__.split("\n\n")[0].strip(),
        "command": f"python3 tools/bench_flowmap.py --parent PARENT/src --change CHANGE/src "
                   f"--repeats {args.repeats}",
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "platform": platform.platform(), "cpu": _cpu_model()},
        "repeats": args.repeats,
    }
    for side, runs in samples.items():
        metrics = {}
        for key in runs[0]:
            values = [run[key] for run in runs]
            metrics[key] = {"median": statistics.median(values), "samples": values}
        record[side] = {"metrics": metrics}
    ratios = {}
    for side in trees:
        med = {key: value["median"] for key, value in record[side]["metrics"].items()}
        ratios[side] = {f"flow_step_over_euler_step/n={n}":
                        med[f"flow_step_ms/n={n}"] / med[f"euler_step_ms/n={n}"] for n in SIZES}
    ratios["parent_over_change"] = {
        key: record["parent"]["metrics"][key]["median"] / record["change"]["metrics"][key]["median"]
        for key in record["change"]["metrics"]
        if record["parent"]["metrics"][key]["median"]}
    record["ratios"] = ratios
    text = json.dumps(record, indent=1)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
