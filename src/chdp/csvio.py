"""CSV and manifest emission.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files.  A CSV is written in chunks of rows, every
line one "%r" format of a row handed to the file's buffer: the bytes
`csv.writer` writes for numeric cells, without a whole-table string or a
whole column of Python floats.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from chdp.connection import VelocityPair
from chdp.curvature import ScanTable
from chdp.evolution import DiagnosticsTable
from chdp.spectral import Grid, PeriodicField

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics",
    "write_flowmap_snapshot",
    "write_scan",
    "write_rigidbody",
    "write_manifest",
]


# Rows per chunk: bounds the values and lines held at once.
_CHUNK_ROWS = 1024


def _write_columns(path, header, columns):
    """Write equal-length numeric columns under header: ints with str, floats with repr.

    Lines end in "\r\n", as `csv.writer` ends them; numeric cells never
    need its quoting.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    # One "%r" format per row, handed line by line to the file's buffer:
    # joining a chunk into one string (about 80 KB for a 1024-point flow-map
    # snapshot) raised the flow-map benchmark's peak RSS by about 0.4 MB.
    line = ",".join(["%r"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, rows, _CHUNK_ROWS):
            values = zip(*(c[start:start + _CHUNK_ROWS].tolist() for c in columns))
            handle.writelines(map(line.__mod__, values))


def write_snapshot(path, state: VelocityPair):
    grid = state.grid
    _write_columns(path, ["x", "u", "rho"],
                   (grid.points, state.u.values, state.rho.values))


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
    try:
        grid = Grid(data.shape[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {data.shape[0]} rows: {exc}") from None
    if np.max(np.abs(data[:, 0] - grid.points)) > 1e-12:
        raise ValueError(f"{path}: x column is not the uniform grid on [0, 1)")
    return VelocityPair(PeriodicField(grid, data[:, 1]), PeriodicField(grid, data[:, 2]))


def write_diagnostics(path, table: DiagnosticsTable):
    _write_columns(path, ["t", "energy", "min_ux", "max_abs_rhox", "mean_m", "mean_rho"],
                   (getattr(table, f.name) for f in fields(table)))


def write_flowmap_snapshot(path, grid: Grid, psi_values, jacobian_values, f_values):
    phi = grid.points + psi_values
    _write_columns(path, ["x", "phi", "phix", "f"],
                   (grid.points, phi, jacobian_values, f_values))


def write_scan(path, table: ScanTable):
    _write_columns(path, ["m_k1", "m_k2", "m_l1", "m_l2", "S_numeric", "S_closed", "Sec", "gram"],
                   (getattr(table, f.name) for f in fields(table)))


def write_rigidbody(path, trajectory):
    _write_columns(path, ["t", "w1", "w2", "w3", "pi1", "pi2", "pi3", "energy"],
                   (trajectory.times, *trajectory.omega.T,
                    *trajectory.spatial_momentum.T, trajectory.energy))


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
