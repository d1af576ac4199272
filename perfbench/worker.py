"""One benchmark process: set up a seeded chdp workload, time it, check it.

    python3 perfbench/worker.py setup --workload NAME --seed N --work DIR
    python3 perfbench/worker.py run --workload NAME --seed N --work DIR \\
        --seconds T --trace 0|1 [--quick]

Both modes print READY on stdout as soon as set-up is done: `import chdp`,
seeded input generation and the input snapshot written.  `setup` then
exits; `perfbench/run.py` times process start to READY.  `run` goes on to
call `chdp.cli.main(argv)` in-process, once untimed as a warm-up and then
repeatedly until T seconds have passed, checks every repetition's outputs,
and prints one JSON line with the samples.

Every repetition's wall time is also normalised to the reference host
speed with the workload's kernel from `calibration.py`, timed between
repetitions.

With --trace 1 the timed repetitions are split: the first half untraced,
the second half with `tracer.Tracer` installed; the per-layer metrics are
medians over the traced repetitions (times normalised like wall times),
and trace.overhead_s is the traced median normalised wall time minus the
untraced one.  --quick shrinks every workload
to a few steps; the self-tests use it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import DENSE, INTERPRETER

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3


@dataclass
class Prepared:
    """A workload with its seeded inputs written, ready to run."""

    argv: list[str]
    units: int                      # RK4 steps or curvature planes per repetition
    steps: int                      # RK4 steps per repetition (0 for the scan)
    planes: int                     # curvature planes per repetition
    checks: object                  # checks(out_dir, code, extra) -> list[(name, ok, detail)]
    after_cli: object = None        # last timed call after the CLI, or None
    kernel: object = INTERPRETER    # calibration kernel doing the same kind of work
    working_sets: dict = field(default_factory=dict)


def _snapshot(n: int, seed: int, path: Path):
    """Modes 1-4, scaled to max|u_x| = 0.5 and max|rho| = 0.1."""
    from chdp import csvio
    from chdp.connection import VelocityPair
    from chdp.spectral import Grid, derivative, random_band_limited

    grid = Grid(n)
    rng = np.random.default_rng(seed)
    u = random_band_limited(grid, rng, 4)
    u = u * (0.5 / np.max(np.abs(derivative(u).values)))
    rho = random_band_limited(grid, rng, 4)
    rho = rho * (0.1 / np.max(np.abs(rho.values)))
    csvio.write_snapshot(path, VelocityPair(u, rho))
    return float(np.max(np.abs(rho.values)))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader if row])
    return header, data


def _column(path: Path, name: str) -> np.ndarray:
    header, data = _read_csv(path)
    return data[:, header.index(name)]


def _manifest(out: Path) -> dict:
    with open(out / "run.json") as handle:
        return json.load(handle)


def _exit_ok(code):
    return ("exit 0", code == 0, f"exit code {code}")


def prepare(workload: str, seed: int, work: Path, quick: bool) -> Prepared:
    if workload == "evolve-2ch-n256":
        n, dt, t_end = 256, 1e-4, (0.002 if quick else 0.05)
        steps = int(round(t_end / dt))
        snap = work / "input.csv"
        _snapshot(n, seed, snap)

        def checks(out, code, extra):
            energy = _column(out / "diagnostics.csv", "energy")
            drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
            mean_m = _column(out / "diagnostics.csv", "mean_m")
            mean_rho = _column(out / "diagnostics.csv", "mean_rho")
            return [
                _exit_ok(code),
                ("C6 energy drift", drift <= 1e-7, f"relative drift {drift:.3e}"),
                ("mean_m range", np.ptp(mean_m) <= 1e-10, f"{np.ptp(mean_m):.3e}"),
                ("mean_rho range", np.ptp(mean_rho) <= 1e-10, f"{np.ptp(mean_rho):.3e}"),
            ]

        return Prepared(
            argv=["evolve", "--model", "2ch", "--ic", f"file:{snap}", "--n", str(n),
                  "--dt", repr(dt), "--t-end", repr(t_end)],
            units=steps, steps=steps, planes=0, checks=checks,
            working_sets={"state_bytes": 2 * n * 8,
                          "history_bytes": (steps // 10 + 1) * 2 * n * 8})

    if workload == "flowmap-2dp-n1024":
        from chdp.spectral import Grid

        n, dt, t_end = 1024, 1e-4, (0.001 if quick else 0.01)
        steps = int(round(t_end / dt))
        snap = work / "input.csv"
        rho_scale = _snapshot(n, seed, snap)
        grid = Grid(n)

        def invert_final(out):
            from chdp import spectral

            last = max(out.glob("flowmap_*.csv"))
            phi = _column(last, "phi")
            diffeo = spectral.Diffeo(spectral.PeriodicField(grid, phi - grid.points))
            return diffeo, spectral.invert_diffeo(diffeo)

        def checks(out, code, extra):
            from chdp.spectral import evaluate

            final = _manifest(out)["final_diagnostics"]
            drift = final["momentum_drift"]["rho0"]
            phi, inv = extra
            y = phi.warped_points
            err = float(np.max(np.abs(y + evaluate(inv.displacement, y) - grid.points)))
            return [
                _exit_ok(code),
                ("C7 rho0 drift", drift <= 1e-6 * rho_scale,
                 f"{drift:.3e} vs 1e-6 * {rho_scale:.3g}"),
                ("min_phix > 0", final["min_phix"] > 0, f"{final['min_phix']:.6g}"),
                ("inverse o phi = id", err <= 1e-10, f"max-norm {err:.3e}"),
            ]

        kmax = grid.dealias_cutoff
        return Prepared(
            argv=["flowmap", "--model", "2dp", "--ic", f"file:{snap}", "--n", str(n),
                  "--dt", repr(dt), "--t-end", repr(t_end)],
            units=steps, steps=steps, planes=0, checks=checks, after_cli=invert_final,
            kernel=DENSE,
            working_sets={"series_plan_bytes": n * (kmax + 1) * 16,
                          "full_series_plan_bytes": n * (n // 2 + 1) * 16,
                          "history_bytes": (steps + 1) * 4 * n * 8})

    if workload == "curvature-scan-m8":
        max_mode, trials = (2, 4) if quick else (8, 64)
        slot_pairs = max_mode * max_mode
        rows = slot_pairs * (slot_pairs - 1) // 2 + max_mode * (max_mode - 1) // 2

        def checks(out, code, extra):
            header, data = _read_csv(out / "scan.csv")
            col = {name: data[:, i] for i, name in enumerate(header)}
            c1 = np.abs(col["S_numeric"] - col["S_closed"]) / (1.0 + np.abs(col["S_closed"]))
            density = col["m_k1"] == 0
            gram_err = np.abs(col["gram"][density] - 0.25)
            min_sec = float(np.min(col["Sec"][density]))
            trials_run = _manifest(out)["final_diagnostics"]["negative_search"]["trials"]
            return [
                _exit_ok(code),
                ("all scan rows", len(data) == rows and trials_run == trials,
                 f"{len(data)} rows of {rows}, {trials_run} trials of {trials}"),
                ("C1 closed form", bool(np.all(c1 <= 1e-8)), f"max rel err {c1.max():.3e}"),
                ("C3 density family",
                 bool(np.all(gram_err <= 1e-12)) and min_sec >= 0.125 - 1e-12,
                 f"|gram - 1/4| {gram_err.max():.3e}, min Sec {min_sec:.6f}"),
            ]

        return Prepared(
            argv=["curvature-scan", "--max-mode", str(max_mode),
                  "--negative-search", str(trials), "--seed", str(seed)],
            units=rows + trials, steps=0, planes=rows + trials, checks=checks,
            working_sets={"field_bytes": max(128, 16 * max_mode) * 8})

    if workload == "rigidbody":
        dt, t_end = 1e-3, (0.05 if quick else 5.0)
        steps = int(round(t_end / dt))
        rng = np.random.default_rng(seed)
        inertia = np.array([1.0, 2.0, 3.0]) + rng.uniform(-0.4, 0.4, 3)
        omega0 = rng.standard_normal(3)
        omega0 *= np.sqrt(3.0) / np.linalg.norm(omega0)

        def checks(out, code, extra):
            final = _manifest(out)["final_diagnostics"]
            rows = len(_column(out / "rigidbody.csv", "t"))
            return [
                _exit_ok(code),
                ("C10 pi drift", final["pi_drift"] <= 1e-8, f"{final['pi_drift']:.3e}"),
                ("C10 energy drift", final["energy_drift"] <= 1e-8,
                 f"{final['energy_drift']:.3e}"),
                ("all steps written", rows == steps + 1, f"{rows} rows"),
            ]

        return Prepared(
            argv=["rigidbody", "--inertia=" + ",".join(repr(float(v)) for v in inertia),
                  "--omega0=" + ",".join(repr(float(v)) for v in omega0),
                  "--dt", repr(dt), "--t-end", repr(t_end)],
            units=steps, steps=steps, planes=0, checks=checks,
            working_sets={"trajectory_bytes": (steps + 1) * (1 + 3 + 9 + 3 + 3 + 1) * 8})

    raise SystemExit(f"unknown workload {workload!r}")


def csv_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


class Runner:
    """Repeats one prepared workload, timing and checking every repetition."""

    def __init__(self, prepared: Prepared, work: Path):
        self.prepared = prepared
        self.out = work / "out"
        self.reference_hashes = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def repetition(self, tracer=None) -> float:
        from chdp import cli

        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.prepared.argv + ["--out-dir", str(self.out)]
        code, extra = None, None
        sink = io.StringIO()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
                if code == 0 and self.prepared.after_cli is not None:
                    extra = self.prepared.after_cli(self.out)
        except Exception as exc:  # a crash is a failed check, not a crashed benchmark
            self.messages.append(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        self.check(code, extra)
        return wall

    def check(self, code, extra):
        try:
            results = self.prepared.checks(self.out, code, extra)
        except Exception as exc:
            results = [("outputs readable", False, f"{type(exc).__name__}: {exc}")]
        try:
            hashes = csv_hashes(self.out)
        except OSError as exc:
            hashes = {"error": str(exc)}
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        else:
            results.append(("byte-identical CSVs", hashes == self.reference_hashes,
                            "SHA-256 differs from the first repetition"))
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.messages.append(f"check failed: {name}: {detail}")

    def repeat(self, seconds: float, min_reps: int, tracer=None, on_rep=None):
        """Repetitions for `seconds`; returns raw and host-speed-normalised walls.

        The calibration kernel runs between repetitions, so each one is
        normalised by the kernel timed just before and just after it;
        on_rep(factor) gets that repetition's normalising factor.
        """
        kernel = self.prepared.kernel
        raw, scaled = [], []
        start = time.perf_counter()
        before = kernel.seconds()
        while len(raw) < min_reps or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.begin_run(len(raw))
            wall = self.repetition(tracer)
            after = kernel.seconds()
            factor = kernel.normalise(1.0, before, after)
            raw.append(wall)
            scaled.append(wall * factor)
            if on_rep is not None:
                on_rep(factor)
            before = after
        return raw, scaled


def environment(prepared: Prepared) -> dict:
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "working_sets_bytes": prepared.working_sets,
    }
    # Machine description, best effort: the benchmark runs without them.
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            name = "L" + (index / "level").read_text().strip() + \
                {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[name] = (index / "size").read_text().strip()
    env["caches"] = caches
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    import chdp

    src = (ROOT / "src").resolve()
    if Path(chdp.__file__).resolve().parent.parent != src:
        raise SystemExit(f"chdp imported from {chdp.__file__}, expected {src}")
    args.work.mkdir(parents=True, exist_ok=True)
    prepared = prepare(args.workload, args.seed, args.work, args.quick)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    min_reps = 1 if args.quick else MIN_REPS
    runner = Runner(prepared, args.work)
    runner.repetition()                       # warm-up: checked, not timed
    result = {"environment": environment(prepared), "units": prepared.units}
    if not args.trace:
        result["walls"], result["scaled_walls"] = runner.repeat(args.seconds, min_reps)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer, layer_metrics

        result["walls"], untraced = runner.repeat(args.seconds / 2, min_reps)
        result["scaled_walls"] = untraced
        tracer = Tracer()
        tracer.install()
        per_rep, spans = [], []

        def collect(factor):
            arr = tracer.span_array()
            spans.append(arr)
            metrics = layer_metrics(tracer, arr, prepared.steps, prepared.planes)
            per_rep.append({key: value * factor if key.endswith("_s") else value
                            for key, value in metrics.items()})

        try:
            _, traced = runner.repeat(args.seconds / 2, min_reps, tracer, collect)
        finally:
            tracer.uninstall()
        layers = {key: statistics.median(rep[key] for rep in per_rep) for key in per_rep[0]}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["per_layer"] = layers
        np.savez(args.work / "spans.npz", names=np.array(tracer.names),
                 **{f"run{i}": arr for i, arr in enumerate(spans)})
    result["hashes"] = runner.reference_hashes
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["messages"] = runner.messages
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
