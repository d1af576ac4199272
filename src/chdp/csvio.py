"""CSV and manifest emission.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from chdp.connection import VelocityPair
from chdp.evolution import DiagnosticsRecord
from chdp.spectral import Grid, PeriodicField

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics",
    "write_flowmap_snapshot",
    "write_scan",
    "write_rigidbody",
    "write_manifest",
    "read_manifest",
]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_snapshot(path, state: VelocityPair):
    grid = state.grid
    _write_rows(path, ["x", "u", "rho"],
                zip(grid.points, state.u.values, state.rho.values))


def read_snapshot(path) -> VelocityPair:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected header x,u,rho")
        if [h.strip() for h in header] != ["x", "u", "rho"]:
            raise ValueError(f"{path}: expected header x,u,rho, got {header}")
        try:
            rows = [[float(v) for v in row] for row in reader if row]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not rows or any(len(row) != 3 for row in rows):
        raise ValueError(f"{path}: expected data rows of 3 values (x, u, rho)")
    data = np.asarray(rows)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: snapshot holds non-finite values")
    grid = Grid(data.shape[0])
    if np.max(np.abs(data[:, 0] - grid.points)) > 1e-12:
        raise ValueError(f"{path}: x column is not the uniform grid on [0, 1)")
    return VelocityPair(PeriodicField(grid, data[:, 1]), PeriodicField(grid, data[:, 2]))


def write_diagnostics(path, records: list[DiagnosticsRecord]):
    _write_rows(path, ["t", "energy", "min_ux", "max_abs_rhox", "mean_m", "mean_rho"],
                ((r.t, r.energy, r.min_ux, r.max_abs_rhox, r.mean_m, r.mean_rho)
                 for r in records))


def write_flowmap_snapshot(path, grid: Grid, psi_values, jacobian_values, f_values):
    phi = grid.points + psi_values
    _write_rows(path, ["x", "phi", "phix", "f"],
                zip(grid.points, phi, jacobian_values, f_values))


def write_scan(path, rows):
    _write_rows(path, ["m_k1", "m_k2", "m_l1", "m_l2",
                       "S_numeric", "S_closed", "Sec", "gram"],
                ((r.m_k1, r.m_k2, r.m_l1, r.m_l2,
                  r.s_numeric, r.s_closed, r.sec, r.gram) for r in rows))


def write_rigidbody(path, trajectory):
    _write_rows(path, ["t", "w1", "w2", "w3", "pi1", "pi2", "pi3", "energy"],
                ((trajectory.times[i], *trajectory.omega[i],
                  *trajectory.spatial_momentum[i], trajectory.energy[i])
                 for i in range(len(trajectory.times))))


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_manifest(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=_json_default)
        handle.write("\n")


def read_manifest(path) -> dict:
    with open(path) as handle:
        return json.load(handle)
