"""CSV and manifest emission.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files.  A CSV is written in chunks of rows.  Within
a chunk, each distinct value of a column, told apart by its bits, is
formatted once; repr's text depends on those bits alone, so reusing it
for every cell that holds the value gives the bytes a repr per cell gives.
Every line is one format of a row handed to the file's buffer: the bytes
`csv.writer` writes for numeric cells, without a whole-table string or a
whole column of Python floats.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from chdp.connection import VelocityPair
from chdp.spectral import Grid, PeriodicField

if TYPE_CHECKING:  # the writers read the tables' fields from the instance
    from chdp.curvature import ScanTable
    from chdp.evolution import DiagnosticsTable

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_diagnostics",
    "write_flowmap_snapshot",
    "write_scan",
    "write_rigidbody",
    "write_manifest",
]


# Rows per chunk: bounds the values and texts held at once, and is the span
# over which a repeated value is formatted once.
_CHUNK_ROWS = 1024


def _chunk_cells(chunk: np.ndarray) -> tuple[str, object]:
    """The cells of a column chunk and their format, with repr called once per distinct value.

    Values are told apart by their bits (a float's through its integer
    view), so 0.0 and -0.0, and NaNs of different payloads, keep their own
    texts.  A chunk of all-distinct values gives ("%r", its values), for
    the row's format to repr; any other gives ("%s", each cell's repr).
    A strictly increasing chunk (t, x and phi columns) is all-distinct with
    no sort; NaN compares False, so a chunk holding one is sorted.
    """
    if (chunk[1:] > chunk[:-1]).all():
        return "%r", chunk.tolist()
    bits = chunk.view(f"i{chunk.itemsize}") if chunk.dtype.kind == "f" else chunk
    # Stable: numpy's merge sort maps less code than its default SIMD sort
    # (about 0.13 MB against 0.3 MB), and mapped code counts in peak RSS.
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    if np.count_nonzero(first) == len(chunk):
        return "%r", chunk.tolist()
    texts = np.array([repr(v) for v in chunk[order[first]].tolist()], dtype=object)
    # Each cell's text by the rank of its value among the distinct ones.
    index = np.empty_like(order)
    index[order] = np.cumsum(first) - 1
    return "%s", texts[index]


def _write_columns(path, header, columns):
    """Write equal-length numeric columns under header: ints with str, floats with repr.

    Lines end in "\r\n", as `csv.writer` ends them; numeric cells never
    need its quoting.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, rows, _CHUNK_ROWS):
            formats, cells = zip(*(_chunk_cells(c[start:start + _CHUNK_ROWS]) for c in columns))
            # One format per row, handed line by line to the file's buffer:
            # joining a chunk into one string (about 80 KB for a 1024-point
            # flow-map snapshot) raised the flow-map benchmark's peak RSS by
            # about 0.4 MB.
            line = ",".join(formats) + "\r\n"
            handle.writelines(map(line.__mod__, zip(*cells)))


def write_snapshot(path, state: VelocityPair):
    grid = state.grid
    _write_columns(path, ["x", "u", "rho"],
                   (grid.points, state.u.values, state.rho.values))


def read_snapshot(path) -> VelocityPair:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        # A byte the decoder rejects raises UnicodeDecodeError, a ValueError,
        # from the first read (here) or a later one (in the rows' handler).
        try:
            header = next(reader, None)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
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


def write_manifest(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Strict JSON: a NaN or infinity raises before the file is opened.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
