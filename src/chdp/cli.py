"""Command-line driver.

Subcommands: evolve, flowmap, curvature, curvature-scan, rigidbody,
verify.  Runs write CSV artifacts plus a run.json manifest (config echo,
status, final diagnostics, wall time) into --out-dir.

Exit codes: 0 completed, 2 blow-up detected (an expected physical outcome,
not a crash), 1 error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from chdp import csvio
from chdp.connection import Model
from chdp.curvature import (
    CosineDirectionPair,
    check_resolution,
    negative_search,
    positivity_scan,
    scan_direction,
    scan_grid,
)
from chdp.evolution import EvolutionConfig, RunStatus, evolve, step_count
from chdp.flowmap import evolve_flowmap, momentum_drift
from chdp.presets import PRESET_HELP, initial_condition
from chdp.rigidbody import RigidBodyState, conservation_drifts, evolve_rigidbody
from chdp.spectral import Grid
from chdp import verification

__all__ = ["RunConfig", "parse_config", "run", "main"]


class CliError(Exception):
    """Invalid configuration; the message names the offending option."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass
class RunConfig:
    """Fully validated options for one CLI invocation."""

    command: str
    out_dir: str = "chdp-out"
    seed: int = 0
    model: str | None = None
    ic: str | None = None
    n: int | None = None
    dt: float | None = None
    t_end: float | None = None
    stride: int = 10
    snapshot_stride: int = 0
    slope_threshold: float = -1e6
    rhox_threshold: float = 1e6
    max_mode: int | None = None
    negative_trials: int = 0
    k1: int | None = None
    k2: int | None = None
    l1: int | None = None
    l2: int | None = None
    first_zero: bool = False
    inertia: list[float] = field(default_factory=lambda: [1.0, 2.0, 3.0])
    omega0: list[float] = field(default_factory=lambda: [1.0, 1.0, 1.0])


def _build_parser() -> _Parser:
    parser = _Parser(prog="chdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p, default_n, default_dt, default_t_end):
        p.add_argument("--model", required=True,
                       choices=[m.value for m in Model])
        p.add_argument("--ic", required=True, help=f"initial condition: {PRESET_HELP}")
        p.add_argument("--n", type=int, default=default_n, help="grid size (even)")
        p.add_argument("--dt", type=float, default=default_dt)
        p.add_argument("--t-end", type=float, default=default_t_end)
        p.add_argument("--stride", type=int, default=10,
                       help="rows (diagnostics, snapshots, flow map) kept every STRIDE steps")
        p.add_argument("--snapshot-stride", type=int, default=0,
                       help="snapshot CSV every STRIDE steps, a multiple of --stride "
                            "(0: first and last only)")
        p.add_argument("--slope-threshold", type=float, default=-1e6,
                       help="blow-up when min u_x drops below this")
        p.add_argument("--rhox-threshold", type=float, default=1e6,
                       help="blow-up when max |rho_x| exceeds this")
        p.add_argument("--out-dir", default="chdp-out")
        p.add_argument("--seed", type=int, default=0)

    p_evolve = sub.add_parser("evolve", help="Eulerian integration")
    add_run_options(p_evolve, 256, 1e-4, 1.0)

    p_flow = sub.add_parser("flowmap", help="coupled Eulerian + flow-map integration")
    add_run_options(p_flow, 256, 1e-4, 1.0)

    p_curv = sub.add_parser("curvature", help="curvature of one cosine direction pair")
    p_curv.add_argument("--k1", type=int, default=1)
    p_curv.add_argument("--k2", type=int, default=1)
    p_curv.add_argument("--l1", type=int, default=1)
    p_curv.add_argument("--l2", type=int, default=2)
    p_curv.add_argument("--first-zero", action="store_true",
                        help="zero velocity slots (density-only directions)")
    p_curv.add_argument("--n", type=int, default=None,
                        help="grid size (default: resolves the given modes)")
    p_curv.add_argument("--out-dir", default="chdp-out")
    p_curv.add_argument("--seed", type=int, default=0)

    p_scan = sub.add_parser("curvature-scan",
                            help="enumerate cosine direction pairs and check bounds")
    p_scan.add_argument("--max-mode", type=int, required=True)
    p_scan.add_argument("--n", type=int, default=None)
    p_scan.add_argument("--negative-search", type=int, default=0, metavar="TRIALS",
                        help="also sample random directions hunting negative curvature")
    p_scan.add_argument("--out-dir", default="chdp-out")
    p_scan.add_argument("--seed", type=int, default=0)

    p_body = sub.add_parser("rigidbody", help="free rigid body reference integration")
    p_body.add_argument("--inertia", default="1,2,3",
                        help="principal moments, comma separated")
    p_body.add_argument("--omega0", default="1,1,1",
                        help="initial body angular velocity, comma separated")
    p_body.add_argument("--dt", type=float, default=1e-3)
    p_body.add_argument("--t-end", type=float, default=10.0)
    p_body.add_argument("--out-dir", default="chdp-out")
    p_body.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--out-dir", default="chdp-out")
    p_verify.add_argument("--seed", type=int, default=0)

    return parser


def _parse_vector(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated numbers, got {text!r}")
    if len(values) != 3:
        raise CliError(f"{flag}: expected exactly 3 components")
    return values


def parse_config(argv) -> RunConfig:
    """Parse and validate argv into a RunConfig; raises CliError."""
    ns = _build_parser().parse_args(argv)
    config = RunConfig(command=ns.command)
    for key, value in vars(ns).items():
        key = key.replace("-", "_")
        if key in ("inertia", "omega0"):
            value = _parse_vector(value, f"--{key}")
        if key == "negative_search":
            key = "negative_trials"
        setattr(config, key, value)

    try:
        if config.n is not None:
            Grid(config.n)
        if config.command in ("evolve", "flowmap"):
            _evolution_config(config)
        if config.command == "rigidbody":
            step_count(config.dt, config.t_end)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if config.command in ("evolve", "flowmap") and config.snapshot_stride < 0:
        raise CliError("--snapshot-stride must be >= 0")
    if config.command in ("evolve", "flowmap") and config.snapshot_stride % config.stride:
        raise CliError("--snapshot-stride must be a multiple of --stride")
    if config.command == "curvature-scan" and config.max_mode < 2:
        raise CliError("--max-mode must be at least 2")
    if config.command == "curvature-scan" and config.negative_trials < 0:
        raise CliError("--negative-search must be >= 0")
    if config.command == "curvature":
        for flag in ("k1", "k2", "l1", "l2"):
            if getattr(config, flag) < 1:
                raise CliError(f"--{flag}: modes must be positive integers")
    if config.command in ("curvature", "curvature-scan") and config.n is not None:
        max_mode = (config.max_mode if config.command == "curvature-scan"
                    else _direction(config).max_mode)
        try:
            check_resolution(Grid(config.n), max_mode)
        except ValueError as exc:
            raise CliError(f"--n: {exc}") from None
    if config.command == "rigidbody" and any(v <= 0 for v in config.inertia):
        raise CliError("--inertia: moments must be positive")
    return config


def _manifest(config: RunConfig, status: RunStatus, final_diagnostics,
              wall_seconds: float) -> dict:
    """The run.json payload; a blow-up adds its reason, time (`blowup_t`) and value.

    `blowup_value` is the monitored quantity that tripped (null for non_finite).
    """
    payload = {
        "config": asdict(config),
        "status": status.kind,
        "final_diagnostics": final_diagnostics,
        "wall_seconds": wall_seconds,
    }
    if status.reason is not None:
        payload["reason"] = status.reason
        payload["blowup_t"] = status.t
        payload["blowup_value"] = status.value
    return payload


def _evolution_config(config: RunConfig) -> EvolutionConfig:
    """The EvolutionConfig of an evolve/flowmap run; raises ValueError."""
    return EvolutionConfig(Model(config.model), dt=config.dt, t_end=config.t_end,
                           grid_n=config.n,
                           blowup_slope_threshold=config.slope_threshold,
                           blowup_rhox_threshold=config.rhox_threshold,
                           diagnostics_stride=config.stride)


def _outcome(status: RunStatus, t_last: float) -> str:
    """'completed at t=...' or 'blowup_detected (reason) at t=<blow-up time> (value v)'."""
    if status.completed:
        return f"completed at t={t_last:.6g}"
    value = "" if status.value is None else f" (value {status.value:.6g})"
    return f"{status.kind} ({status.reason}) at t={status.t:.6g}{value}"


def _snapshots(times: np.ndarray, dt: float, snapshot_stride: int) -> list[tuple[int, int]]:
    """(kept row, step) of each snapshot to write.

    The first and last kept rows, and every kept row whose step is a
    multiple of snapshot_stride (unless 0); files are named by the step.
    """
    steps = np.rint(times / dt).astype(int).tolist()
    last = len(steps) - 1
    return [(i, step) for i, step in enumerate(steps)
            if i in (0, last) or (snapshot_stride and step % snapshot_stride == 0)]


def _run_evolve(config: RunConfig, out: Path) -> int:
    evo_config = _evolution_config(config)
    initial = initial_condition(config.ic, Grid(config.n))
    start = time.perf_counter()
    result = evolve(evo_config, initial)
    wall = time.perf_counter() - start

    csvio.write_diagnostics(out / "diagnostics.csv", result.diagnostics)
    for i, step in _snapshots(result.times, config.dt, config.snapshot_stride):
        csvio.write_snapshot(out / f"snapshot_{step:06d}.csv", result.snapshots[i])
    csvio.write_manifest(out / "run.json", _manifest(
        config, result.status,
        {name: float(column[-1]) for name, column in vars(result.diagnostics).items()}, wall))
    print(f"{config.command}: {_outcome(result.status, result.times[-1])} "
          f"({len(result.diagnostics)} diagnostic records) -> {out}")
    return 0 if result.status.completed else 2


def _run_flowmap(config: RunConfig, out: Path) -> int:
    evo_config = _evolution_config(config)
    grid = Grid(config.n)
    initial = initial_condition(config.ic, grid)
    start = time.perf_counter()
    result = evolve_flowmap(evo_config, initial)
    wall = time.perf_counter() - start

    n_saved = len(result.times)
    rows, steps = zip(*_snapshots(result.times, config.dt, config.snapshot_stride))
    jac = result.jacobians(list(rows))  # rows end with the last row
    for i, step, jac_i in zip(rows, steps, jac):
        csvio.write_flowmap_snapshot(out / f"flowmap_{step:06d}.csv", grid,
                                     result.psi[i], jac_i, result.f[i])
    drifts = momentum_drift(evo_config.model, result, stride=max(1, n_saved // 20))
    final = {
        "t": float(result.times[-1]),
        "min_phix": float(jac[-1].min()),
        "momentum_drift": {key: float(np.max(vals)) for key, vals in drifts.items()},
    }
    csvio.write_manifest(out / "run.json", _manifest(
        config, result.status, final, wall))
    print(f"flowmap: {_outcome(result.status, result.times[-1])} "
          f"({len(rows)} snapshots) -> {out}")
    return 0 if result.status.completed else 2


def _direction(config: RunConfig) -> CosineDirectionPair:
    """The direction pair of a curvature run; --first-zero zeroes the velocity modes."""
    if config.first_zero:
        return CosineDirectionPair(0, config.k2, 0, config.l2)
    return CosineDirectionPair(config.k1, config.k2, config.l1, config.l2)


def _run_curvature(config: RunConfig, out: Path) -> int:
    direction = _direction(config)
    grid = Grid(config.n) if config.n else scan_grid(direction.max_mode)
    start = time.perf_counter()
    table = scan_direction(grid, direction)
    wall = time.perf_counter() - start
    csvio.write_scan(out / "curvature.csv", table)
    result = {"S_numeric": float(table.s_numeric[0]), "S_closed": float(table.s_closed[0]),
              "Sec": float(table.sec[0]), "gram": float(table.gram[0])}
    csvio.write_manifest(out / "run.json", _manifest(
        config, RunStatus("completed"), result, wall))
    print(" ".join(f"{name}={value!r}" for name, value in result.items()))
    return 0


def _run_scan(config: RunConfig, out: Path) -> int:
    grid = Grid(config.n) if config.n else None
    start = time.perf_counter()
    table = positivity_scan(config.max_mode, grid=grid)
    csvio.write_scan(out / "scan.csv", table)
    summary = {
        "tuples": len(table),
        "min_S_numeric": float(table.s_numeric.min()),
        "min_sec_density_family": float(table.sec[table.m_k1 == 0].min()),
    }
    if config.negative_trials > 0:
        search_grid = grid or scan_grid(config.max_mode)
        rng = np.random.default_rng(config.seed)
        found = negative_search(search_grid, rng, config.negative_trials,
                                config.max_mode)
        negatives = [(t, s) for t, s in found if s < 0]
        summary["negative_search"] = {
            "trials": config.negative_trials,
            "negative_planes": len(negatives),
            "most_negative": found[0][1] if found else None,
        }
        print(f"negative-curvature search: {len(negatives)} negative planes "
              f"in {config.negative_trials} trials"
              + (f", most negative Sec {found[0][1]:.4f}" if found else ""))
    wall = time.perf_counter() - start
    csvio.write_manifest(out / "run.json", _manifest(
        config, RunStatus("completed"), summary, wall))
    print(f"curvature-scan: {len(table)} tuples, min S "
          f"{summary['min_S_numeric']:.6f} > 0 -> {out}")
    return 0


def _run_rigidbody(config: RunConfig, out: Path) -> int:
    state = RigidBodyState.from_rest_attitude(config.omega0, config.inertia)
    start = time.perf_counter()
    traj = evolve_rigidbody(state, dt=config.dt, t_end=config.t_end)
    wall = time.perf_counter() - start
    csvio.write_rigidbody(out / "rigidbody.csv", traj)
    drifts = conservation_drifts(traj)
    final = {"t": float(traj.times[-1]),
             **{key: drifts[key] for key in ("pi_drift", "energy_drift", "coadjoint_drift")}}
    csvio.write_manifest(out / "run.json", _manifest(
        config, RunStatus("completed"), final, wall))
    print(f"rigidbody: pi drift {drifts['pi_drift']:.3e} over t={config.t_end:g} -> {out}")
    return 0


def _run_verify(config: RunConfig, out: Path) -> int:
    start = time.perf_counter()
    results = verification.run_all(seed=config.seed)
    wall = time.perf_counter() - start
    print(verification.format_table(results))
    all_passed = all(r.passed for r in results)
    csvio.write_manifest(out / "run.json", _manifest(
        config, RunStatus("completed" if all_passed else "failed"),
        {r.criterion: {"passed": r.passed, "detail": r.detail} for r in results},
        wall))
    return 0 if all_passed else 1


def run(config: RunConfig) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "evolve": _run_evolve,
        "flowmap": _run_flowmap,
        "curvature": _run_curvature,
        "curvature-scan": _run_scan,
        "rigidbody": _run_rigidbody,
        "verify": _run_verify,
    }
    return dispatch[config.command](config, out)


def main(argv=None) -> int:
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
        code = run(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
