"""Command-line driver.

Subcommands: evolve, flowmap, curvature, curvature-scan, rigidbody,
verify.  Each command is one row of `_COMMANDS`: the options its work
reads, each declared once (an option that feeds `EvolutionConfig` takes
its default from there), and a builder that turns them into the objects
the command runs.  Those objects hold the rules on their inputs; `_build`
prefixes an object's error with the flags it was built from, so every
error names its flags and fires before --out-dir exists.  A builder
imports its own command's module, so a run loads only what its work runs,
and the parser needs only `evolution` (the defaults of the options that
feed `EvolutionConfig`) and `presets` (the --ic help).  `run` is the
one runner: it makes --out-dir, times the command's work, CSVs included,
as `wall_seconds`, writes run.json and prints the command's lines.

run.json holds `config`, the command's own options keyed by flag name
without the dashes (`--NAME=VALUE` for each key replays the run, with a
true switch given bare and null or false keys left out), `status`,
`final_diagnostics` (each non-finite float in it null) and `wall_seconds`;
a blow-up adds `reason`, `blowup_t` and `blowup_value`.

Exit codes: 0 completed, 2 blow-up detected (an expected physical outcome,
not a crash), 1 an error or a failed run (a `verify` criterion, a curvature bound).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from chdp import csvio
from chdp.connection import Model
from chdp.evolution import (EvolutionConfig, RunStatus, _history_shape, _initial_state, evolve,
                            step_count)
from chdp.presets import PRESET_HELP, initial_condition
from chdp.spectral import Grid

__all__ = ["parse_config", "run", "main"]


class CliError(Exception):
    """Invalid configuration; the message names the offending option."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _evolution_default(name: str):
    """The default of an EvolutionConfig field, which the option feeding it shares."""
    return next(f.default for f in fields(EvolutionConfig) if f.name == name)


def _vector(flag: str, text: str) -> list[float]:
    """The 3-vector an option gives as comma-separated numbers."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if len(values) != 3:
        raise CliError(f"{flag}: expected exactly 3 components")
    return values


def _build(flags: str, make, *args, **kwargs):
    """make(*args, **kwargs); its ValueError becomes a CliError naming the flags it was built from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise CliError(f"{flags}: {exc}") from None


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


# Each builder imports its command's module, validates the command's
# options by building the objects it runs and returns its work:
# work(out) -> (status, final diagnostics, printed lines).

def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where `os.sysconf` cannot tell."""
    names = getattr(os, "sysconf_names", {})
    if "SC_PAGE_SIZE" not in names or "SC_PHYS_PAGES" not in names:
        return None
    size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return size if size > 0 else None


def _require_memory(flags: str, what: str, needed: int, remedy: str):
    """Raise a CliError naming flags when `what` needs more bytes than physical memory."""
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise CliError(f"{flags}: {what} needs {needed / 2**30:.3g} GiB, more than the "
                       f"{memory / 2**30:.3g} GiB of physical memory; {remedy}")


def _evolution(options, rows: int):
    """The EvolutionConfig and initial state of an evolve or flowmap run of `rows` state rows."""
    _build("--dt/--t-end", step_count, options.dt, options.t_end)
    config = _build("--stride/--slope-threshold/--rhox-threshold", EvolutionConfig,
                    Model(options.model), dt=options.dt, t_end=options.t_end,
                    blowup_slope_threshold=options.slope_threshold,
                    blowup_rhox_threshold=options.rhox_threshold,
                    diagnostics_stride=options.stride)
    # Before the grid is built: every run keeps its first and last steps.
    shape = _history_shape(config, rows, options.n)
    _require_memory("--n", f"the smallest history (first and last steps of {shape[0]} rows "
                    f"of {shape[2]} points)", 8 * 2 * shape[0] * shape[2], "lower --n")
    _require_memory("--stride/--t-end", f"the kept history ({shape[1]} steps of {shape[0]} "
                    f"rows of {shape[2]} points)", 8 * math.prod(shape),
                    "raise --stride or lower --t-end")
    grid = _build("--n", Grid, options.n)
    if options.snapshot_stride < 0:
        raise CliError("--snapshot-stride must be >= 0")
    if options.snapshot_stride % options.stride:
        raise CliError("--snapshot-stride must be a multiple of --stride")
    initial = _build("--ic", initial_condition, options.ic, grid)
    _build("--model/--ic", _initial_state, config, initial)
    return config, initial


def _evolve(options):
    config, initial = _evolution(options, 2)

    def work(out: Path):
        result = evolve(config, initial)
        csvio.write_diagnostics(out / "diagnostics.csv", result.diagnostics)
        for i, step in _snapshots(result.times, config.dt, options.snapshot_stride):
            csvio.write_snapshot(out / f"snapshot_{step:06d}.csv", result.state(i))
        final = {name: float(column[-1]) for name, column in vars(result.diagnostics).items()}
        return result.status, final, [
            f"evolve: {_outcome(result.status, result.times[-1])} "
            f"({len(result.diagnostics)} diagnostic records) -> {out}"]

    return work


def _flowmap(options):
    from chdp.flowmap import evolve_flowmap, momentum_drift

    config, initial = _evolution(options, 4)

    def work(out: Path):
        result = evolve_flowmap(config, initial)
        csvio.write_diagnostics(out / "diagnostics.csv", result.diagnostics)
        rows, steps = zip(*_snapshots(result.times, config.dt, options.snapshot_stride))
        jac = result.jacobians(list(rows))  # rows end with the last row
        for i, step, jac_i in zip(rows, steps, jac):
            csvio.write_flowmap_snapshot(out / f"flowmap_{step:06d}.csv", initial.grid,
                                         result.psi[i], jac_i, result.f[i])
        drifts = momentum_drift(result, stride=max(1, len(result.times) // 20))
        final = {"t": float(result.times[-1]), "min_phix": float(jac[-1].min()),
                 "momentum_drift": {key: float(np.max(vals)) for key, vals in drifts.items()}}
        return result.status, final, [
            f"flowmap: {_outcome(result.status, result.times[-1])} "
            f"({len(rows)} snapshots) -> {out}"]

    return work


def _bounds(table, final: dict, lines: list[str]) -> RunStatus:
    """Completed, or failed with final["violations"], the rows breaking each bound,
    and a line per broken bound naming its first plane."""
    broken = {name: mask for name, mask in table.violations().items() if mask.any()}
    if not broken:
        return RunStatus("completed")
    final["violations"] = {name: int(np.count_nonzero(mask)) for name, mask in broken.items()}
    for name, mask in broken.items():
        r = np.argmax(mask)
        lines.append(f"{name} on {final['violations'][name]} of {len(table)} planes, first at "
                     f"modes ({table.m_k1[r]}, {table.m_k2[r]})+({table.m_l1[r]}, {table.m_l2[r]})")
    return RunStatus("failed")


def _curvature(options):
    from chdp.curvature import CosineDirectionPair, _plane_bytes, scan_direction

    direction = _build("--k1/--k2/--l1/--l2", CosineDirectionPair,
                       options.k1, options.k2, options.l1, options.l2)
    _require_memory("--k1/--k2/--l1/--l2", f"the plane's grid (mode {direction.max_mode})",
                    _plane_bytes(direction.max_mode), "lower the modes")

    def work(out: Path):
        table = scan_direction(direction)
        csvio.write_scan(out / "curvature.csv", table)
        final = {"S_numeric": float(table.s_numeric[0]), "S_closed": float(table.s_closed[0]),
                 "Sec": float(table.sec[0]), "gram": float(table.gram[0])}
        lines = [" ".join(f"{name}={value!r}" for name, value in final.items())]
        return _bounds(table, final, lines), final, lines

    return work


# The Sec quantiles a negative search reports: its minimum, its lowest
# percentile and its median.
_SEC_QUANTILES = (0, 0.01, 0.5)


def _quantile(ascending: list[float], q: float) -> float:
    """The q-quantile of sorted values, interpolated linearly like `np.quantile`.

    Computed here because `np.quantile` imports `numpy.ma`, about 1 MB of
    resident memory for three numbers.
    """
    h = (len(ascending) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(ascending) - 1)
    return ascending[lo] + (h - lo) * (ascending[hi] - ascending[lo])


def _scan(options):
    from chdp.curvature import _scan_bytes, negative_search, positivity_scan

    if options.max_mode < 2:
        raise CliError("--max-mode must be at least 2")
    _require_memory("--max-mode", "the scan", _scan_bytes(options.max_mode), "lower --max-mode")
    if options.negative_search < 0:
        raise CliError("--negative-search must be >= 0")
    rng = _build("--seed", np.random.default_rng, options.seed)

    def work(out: Path):
        table = positivity_scan(options.max_mode)
        csvio.write_scan(out / "scan.csv", table)
        summary = {
            "tuples": len(table),
            "min_S_numeric": float(table.s_numeric.min()),
            "min_sec_density_family": float(table.sec[table.m_k1 == 0].min()),
            "max_closed_form_rel_err": float(table.closed_form_error().max()),
        }
        lines = []
        trials = options.negative_search
        if trials > 0:
            sec = [s for _, s in negative_search(rng, trials, options.max_mode)]
            negatives = sum(s < 0 for s in sec)
            summary["negative_search"] = {
                "trials": trials,
                "negative_planes": negatives,
                "most_negative": sec[0] if sec else None,
                # Over the kept (non-degenerate) planes; null when none is kept.
                "negative_fraction": negatives / len(sec) if sec else None,
                "sec_quantiles": {str(q): _quantile(sec, q) if sec else None
                                  for q in _SEC_QUANTILES},
            }
            lines.append(f"negative-curvature search: {negatives} negative planes "
                         f"in {trials} trials"
                         + (f", most negative Sec {sec[0]:.4f}" if sec else ""))
        status = _bounds(table, summary, lines)
        lines.append(f"curvature-scan: {len(table)} tuples, min S {summary['min_S_numeric']:.6f}"
                     f"{' > 0' if status.completed else ', bounds broken'} -> {out}")
        return status, summary, lines

    return work


def _rigidbody(options):
    from chdp.rigidbody import (RigidBodyState, _trajectory_bytes, conservation_drifts,
                                evolve_rigidbody)

    inertia = _vector("--inertia", options.inertia)
    omega0 = _vector("--omega0", options.omega0)
    n_steps = _build("--dt/--t-end", step_count, options.dt, options.t_end)
    _require_memory("--dt/--t-end", f"the trajectory ({n_steps + 1} steps)",
                    _trajectory_bytes(n_steps), "raise --dt or lower --t-end")
    state = _build("--inertia/--omega0", RigidBodyState.from_rest_attitude, omega0, inertia)

    def work(out: Path):
        traj = evolve_rigidbody(state, dt=options.dt, t_end=options.t_end)
        csvio.write_rigidbody(out / "rigidbody.csv", traj)
        drifts = conservation_drifts(traj)
        final = {"t": float(traj.times[-1]),
                 **{key: drifts[key] for key in ("pi_drift", "energy_drift", "coadjoint_drift")}}
        return RunStatus("completed"), final, [
            f"rigidbody: pi drift {drifts['pi_drift']:.3e} over t={options.t_end:g} -> {out}"]

    return work


def _verify(options):
    from chdp import verification

    # The criteria seed their own generators from --seed; this one checks it.
    _build("--seed", np.random.default_rng, options.seed)

    def work(out: Path):
        results = verification.run_all(seed=options.seed)
        passed = all(r.passed for r in results)
        return (RunStatus("completed" if passed else "failed"),
                {r.criterion: {"passed": r.passed, "detail": r.detail} for r in results},
                [verification.format_table(results)])

    return work


_SEED = ("--seed", dict(type=int, default=0))
# The options of evolve and flowmap.
_RUN_OPTIONS = (
    ("--model", dict(required=True, choices=[m.value for m in Model])),
    ("--ic", dict(required=True, help=f"initial condition: {PRESET_HELP}")),
    ("--n", dict(type=int, default=256, help="grid size (even)")),
    ("--dt", dict(type=float, default=1e-4)),
    ("--t-end", dict(type=float, default=1.0)),
    ("--stride", dict(type=int, default=_evolution_default("diagnostics_stride"),
                      help="rows (diagnostics, snapshots, flow map) kept every STRIDE steps")),
    ("--snapshot-stride", dict(type=int, default=0,
                               help="snapshot CSV every STRIDE steps, a multiple of --stride "
                                    "(0: first and last only)")),
    ("--slope-threshold", dict(type=float, default=_evolution_default("blowup_slope_threshold"),
                               help="blow-up when min u_x drops below this")),
    ("--rhox-threshold", dict(type=float, default=_evolution_default("blowup_rhox_threshold"),
                              help="blow-up when max |rho_x| exceeds this")),
)

# command -> (help, its options, its builder); every command also takes
# --out-dir.
_COMMANDS = {
    "evolve": ("Eulerian integration", _RUN_OPTIONS, _evolve),
    "flowmap": ("coupled Eulerian + flow-map integration", _RUN_OPTIONS, _flowmap),
    "curvature": ("curvature of one cosine direction pair", (
        ("--k1", dict(type=int, default=1, help="--k1 0 --l1 0: the density-only family")),
        ("--k2", dict(type=int, default=1)),
        ("--l1", dict(type=int, default=1)),
        ("--l2", dict(type=int, default=2)),
    ), _curvature),
    "curvature-scan": ("enumerate cosine direction pairs and check bounds", (
        ("--max-mode", dict(type=int, required=True)),
        ("--negative-search", dict(type=int, default=0, metavar="TRIALS",
                                   help="also sample random directions hunting "
                                        "negative curvature")),
        _SEED,
    ), _scan),
    "rigidbody": ("free rigid body reference integration", (
        ("--inertia", dict(default="1,2,3", help="principal moments, comma separated")),
        ("--omega0", dict(default="1,1,1",
                          help="initial body angular velocity, comma separated")),
        ("--dt", dict(type=float, default=1e-3)),
        ("--t-end", dict(type=float, default=10.0)),
    ), _rigidbody),
    "verify": ("run the acceptance suite", (_SEED,), _verify),
}
_EXIT_CODES = {"completed": 0, "failed": 1, "blowup_detected": 2}


def _parser() -> _Parser:
    parser = _Parser(prog="chdp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        # No abbreviations: `curvature-scan --n 16` must not mean --negative-search.
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.add_argument("--out-dir", default="chdp-out")
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parse and validate argv; raises CliError naming the offending option.

    The namespace holds `command`, the command's options by argparse dest,
    and `work`, the command's work on the objects built to validate them.
    """
    config = _parser().parse_args(argv)
    config.work = _COMMANDS[config.command][2](config)
    return config


def _finite_or_null(value):
    """value with each non-finite float in it, at any depth of dicts, as None (JSON null)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def run(config: argparse.Namespace) -> int:
    """Run a parsed command into --out-dir; return its exit code."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"--out-dir: {exc}") from None
    start = time.perf_counter()
    status, final_diagnostics, lines = config.work(out)
    wall_seconds = time.perf_counter() - start
    options = {dest.replace("_", "-"): value for dest, value in vars(config).items()
               if dest not in ("command", "work")}
    payload = {"config": options, "status": status.kind,
               "final_diagnostics": _finite_or_null(final_diagnostics),
               "wall_seconds": wall_seconds}
    if status.reason is not None:  # blowup_value is null for non_finite
        payload.update(reason=status.reason, blowup_t=status.t, blowup_value=status.value)
    csvio.write_manifest(out / "run.json", payload)
    for line in lines:
        print(line)
    return _EXIT_CODES[status.kind]


def main(argv=None) -> int:
    try:
        code = run(parse_config(argv if argv is not None else sys.argv[1:]))
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
