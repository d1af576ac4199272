"""Initial-condition presets for the CLI and verification suite.

Grammar:
    zero                     u = 0, rho = 0
    cosmode:M:AMP            u = AMP cos(2 pi M x), rho = 0
    pair:M1:A1:M2:A2         u = A1 cos(2 pi M1 x), rho = A2 cos(2 pi M2 x)
    file:PATH                snapshot CSV with header x,u,rho

Modes must be integers in 1..the grid's dealias cutoff and amplitudes must
be finite.
"""

from __future__ import annotations

import numpy as np

from chdp.connection import VelocityPair
from chdp.csvio import read_snapshot
from chdp.spectral import Grid, cosine_field, zero_field

__all__ = ["initial_condition", "PRESET_HELP"]

PRESET_HELP = "zero | cosmode:M:AMP | pair:M1:A1:M2:A2 | file:PATH"


def initial_condition(spec: str, grid: Grid) -> VelocityPair:
    name, _, rest = spec.partition(":")
    if name == "zero":
        if rest:
            raise ValueError("zero preset takes no parameters")
        return VelocityPair(zero_field(grid), zero_field(grid))
    if name == "cosmode":
        mode, amp = _parse_params(spec, rest, 2, grid)
        return VelocityPair(cosine_field(grid, int(mode), amp), zero_field(grid))
    if name == "pair":
        m1, a1, m2, a2 = _parse_params(spec, rest, 4, grid)
        return VelocityPair(cosine_field(grid, int(m1), a1),
                            cosine_field(grid, int(m2), a2))
    if name == "file":
        if not rest:
            raise ValueError("file preset needs a path: file:PATH")
        try:
            state = read_snapshot(rest)
        except OSError as exc:
            raise ValueError(f"cannot read snapshot {rest}: {exc.strerror}") from None
        if state.grid.n != grid.n:
            raise ValueError(
                f"snapshot {rest} has n={state.grid.n}, run requested n={grid.n}")
        return state
    raise ValueError(f"unknown initial-condition preset {name!r} "
                     f"(expected {PRESET_HELP})")


def _parse_params(spec, rest, count, grid: Grid):
    """(mode, amplitude, ...) pairs: finite amplitudes, modes 1..dealias cutoff.

    A mode above the cutoff would be aliased or dealiased away by the grid,
    so the run would not start from the data the preset names.
    """
    parts = rest.split(":") if rest else []
    if len(parts) != count:
        raise ValueError(f"preset {spec!r} needs {count} ':'-separated parameters")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"preset {spec!r}: {exc}") from None
    cutoff = grid.dealias_cutoff
    for v in values[::2]:
        if not (1 <= v <= cutoff and v == int(v)):
            raise ValueError(f"preset {spec!r}: modes must be integers in 1..{cutoff} "
                             f"(the dealias cutoff of n={grid.n})")
    for v in values[1::2]:
        if not np.isfinite(v):
            raise ValueError(f"preset {spec!r}: amplitudes must be finite")
    return values
