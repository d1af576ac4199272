"""Sectional curvature of the two-component CH metric.

The unnormalized curvature in the plane of two algebra elements is

    S(u, v) = <Gamma(u, v), Gamma(u, v)> - <Gamma(u, u), Gamma(v, v)>

with the two-component CH Christoffel map and metric.  On directions
built from single cosines in each slot, S has a closed form: the pure
first-component piece

    S1(k, l) = [ (1 + kl/2)^2 (k-l)^2 / (1 + (k-l)^2)
               + (1 - kl/2)^2 (k+l)^2 / (1 + (k+l)^2) ] / 8,   k != l,

plus four integral corrections I1..I4.  Wavenumbers are 2*pi*m for
integer modes m; velocity modes m_k1 = m_l1 = 0 mean zero velocity slots
(the density-only family).  The closed forms take integer mode arrays,
scalars broadcasting, and decide each Kronecker delta by an exact integer
comparison.  On the cosine family S is strictly positive, and on the
density-only family the normalized curvature is bounded below by 1/8
with Gram determinant exactly 1/4.

S has one evaluator, `_pair_grams`, on stacked bases of directions
(u, rho).  Gamma(a, b) costs one rfft of the two stacked quadratic terms
(u v + u_x v_x/2 + rho tau/2, u_x tau + v_x rho), whose spectra are
multiplied by -Ainv d/dx and -1/2 with the 2/3-rule mask folded in,
multipliers built from the grid alone.  Gamma of each unordered pair
of a basis's rows is computed once; their Gram matrix G and the basis
Gram H (H^1 on u, L^2 on rho, by Parseval) are one matrix product each,
and by bilinearity S and the Gram determinant of a plane of sums of
basis rows are sums of their entries.  A plane takes one of two paths.
Cosine directions go through `_cosine_table` alone: each sums two rows
of the grid's basis (the zero direction and the velocity and density
cos(2 pi m x) of every mode the grid resolves), and the table pairs the
rows its tuples use once, then reads each plane's S, Gram and closed
form in chunks into a `ScanTable` of 1-D columns.  `positivity_scan` is
the table of every cosine plane up to a mode, `scan_direction` its
one-row table on the same grid, and `ScanTable.violations` states the
bounds of both once, as row masks.  Any other plane is its own two-row
basis (`_two_row_planes`): `unnormalized_curvature` and
`sectional_curvature` one plane, `negative_search` one per trial,
stacked.  `chdp.connection.christoffel` of `Model.CH2` with `metric` is
the field-by-field form they agree with to round-off.

Resolution: products of two directions reach twice their largest mode M,
so the scans take modes, not a grid: `scan_direction`, `positivity_scan`
and `negative_search` run on `scan_grid(M)`, the smallest grid of
FFT-friendly size with at least `_grid_floor(M)` points, the one
resolution rule, which `_plane_bytes` sizes a plane from.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import astuple, dataclass

import numpy as np

from chdp.connection import VelocityPair
from chdp.spectral import Grid, _check_same_grid, _fft_size

__all__ = [
    "CosineDirectionPair",
    "DegeneratePlaneError",
    "ScanTable",
    "unnormalized_curvature",
    "sectional_curvature",
    "ch_cosine_curvature",
    "closed_form_integrals",
    "closed_form_curvature",
    "scan_grid",
    "scan_direction",
    "positivity_scan",
    "negative_search",
]

log = logging.getLogger(__name__)

TWO_PI = 2.0 * np.pi

# Basis pairs per batched Gamma(a, b) pass, and trials per negative-search
# draw: bounds the working arrays at (_CHUNK, 2, n) however many a scan holds.
_CHUNK = 128
# Planes per pass of a cosine table: bounds the index and value arrays of
# its Gamma-pair sums (about 50 numbers per plane, 0.4 MB a pass) and the
# temporaries of its closed forms (about 15) however many planes it holds.
_PLANE_CHUNK = 1 << 10
# The bounds' tolerances: C1's on the closed-form error, and the density family's.
_CLOSED_FORM_TOL = 1e-8
_DENSITY_TOL = 1e-12
# Gram <= this * <a, a> <b, b> makes a plane degenerate: scale-free, as Sec is.
_DEGENERATE_GRAM = 1e-12


class DegeneratePlaneError(ValueError):
    """The two directions span no plane (Gram determinant ~ 0)."""


@dataclass(frozen=True)
class CosineDirectionPair:
    """Direction pair u = (cos k1 x, cos k2 x), v = (cos l1 x, cos l2 x).

    Modes are integers carrying wavenumber 2*pi*m.  Density modes are
    positive; velocity modes m_k1 = m_l1 = 0 mean zero velocity slots (the
    density-only family), otherwise both are positive; u = v is rejected.
    """

    m_k1: int
    m_k2: int
    m_l1: int
    m_l2: int

    def __post_init__(self):
        if (not all(isinstance(m, numbers.Integral) for m in astuple(self))
                or min(self.m_k2, self.m_l2) < 1 or min(self.m_k1, self.m_l1) < 0
                or (self.m_k1 == 0) != (self.m_l1 == 0)):
            raise ValueError("modes must be positive integers; velocity modes may both be 0")
        if (self.m_k1, self.m_k2) == (self.m_l1, self.m_l2):
            raise ValueError("direction pair is degenerate (u = v)")

    @property
    def max_mode(self) -> int:
        return max(astuple(self))


@dataclass(frozen=True, eq=False)
class ScanTable:
    """Scanned direction pairs as 1-D columns, one entry per plane (m_k1 = 0: density-only)."""

    m_k1: np.ndarray
    m_k2: np.ndarray
    m_l1: np.ndarray
    m_l2: np.ndarray
    s_numeric: np.ndarray
    s_closed: np.ndarray
    sec: np.ndarray
    gram: np.ndarray

    def __len__(self) -> int:
        return len(self.m_k1)

    def closed_form_error(self) -> np.ndarray:
        """|S_numeric - S_closed| / (1 + |S_closed|) of every row, C1's measure."""
        return np.abs(self.s_numeric - self.s_closed) / (1.0 + np.abs(self.s_closed))

    def violations(self) -> dict[str, np.ndarray]:
        """The rows that break each bound, a mask per bound keyed by its name.

        Each is tested as "not within", so a NaN breaks every bound it enters.
        """
        density = self.m_k1 == 0
        return {
            "S <= 0": ~density & ~((self.s_numeric > 0.0) & (self.s_closed > 0.0)),
            "S off the closed form": ~(self.closed_form_error() <= _CLOSED_FORM_TOL),
            "Sec < 1/8": density & ~(self.sec >= 0.125 - _DENSITY_TOL),
            "Gram != 1/4": density & ~(np.abs(self.gram - 0.25) <= _DENSITY_TOL),
        }


def _gram(f: np.ndarray, root_weight: np.ndarray, out=None) -> np.ndarray:
    """The matrices <f[..., p, :, :], f[..., q, :, :]> of (..., count, 2, n // 2 + 1) spectra.

    One matrix product per stack, of the parts scaled by the square root of the weights.
    """
    scaled = (f * root_weight).view(np.float64).reshape(*f.shape[:-2], -1)
    return np.matmul(scaled, scaled.swapaxes(-1, -2), out=out)


def _pair_grams(grid: Grid, bases: np.ndarray):
    """(G, H, pair) of stacked (..., rows, 2, n) bases on grid, leading axes a batch.

    G = <Gamma_pq, Gamma_rs> over the unordered pairs (p, q) of a basis's
    rows, numbered pair[p, q] = pair[q, p], and H = <e_p, e_q> over its
    rows.  All rows take one rfft and one irfft (for u_x), Gamma one rfft
    per pass of at most _CHUNK pairs; a basis's entries do not depend on
    its batch.
    """
    ik = grid.ik
    keep = grid.dealias_mask
    # Gamma = (-keep Ainv d/dx Q1, -keep Q2 / 2), keep the 2/3-rule mask.
    mult = -np.array([keep * (ik / grid.helmholtz_symbol), keep])
    mult[1] *= 0.5
    # (1/n) sum_j f_j g_j = sum_k c_k Re(f^_k conj(g^_k)) / n^2, with
    # c_k = 2 but 1 at k = 0 and Nyquist; u adds the u_x term, whose
    # Nyquist mode `derivative` drops (ik is 0 there).
    c = np.full(len(ik), 2.0 / grid.n**2)
    c[[0, -1]] /= 2.0
    root_weight = np.sqrt(np.stack((c * (1.0 + ik.imag**2), c)))
    *batch, rows, _, n = bases.shape
    flat = bases.reshape(-1, 2, n)
    count = len(flat) // rows
    hat = np.fft.rfft(flat)
    slopes = np.fft.irfft(hat[:, 0] * ik, n)
    h = _gram(hat.reshape(count, rows, 2, -1), root_weight)
    del hat  # freed before the passes allocate theirs
    p, q = np.triu_indices(rows)
    pair = np.empty((rows, rows), dtype=np.intp)
    pair[p, q] = pair[q, p] = np.arange(len(p))
    g = np.empty((count, len(p), len(p)))
    # Passes of whole bases, split evenly, at most _CHUNK pairs each unless one basis has more.
    for part in np.array_split(np.arange(count), -(-count // max(1, _CHUNK // len(p)))):
        i, j = (rows * part[:, None] + p).ravel(), (rows * part[:, None] + q).ravel()
        gamma = np.empty((len(i), 2, n // 2 + 1), dtype=complex)
        for start in range(0, len(i), _CHUNK):
            a, b = i[start:start + _CHUNK], j[start:start + _CHUNK]
            (u, rho), ax = flat.take(a, axis=0).swapaxes(0, 1), slopes.take(a, axis=0)
            (v, tau), bx = flat.take(b, axis=0).swapaxes(0, 1), slopes.take(b, axis=0)
            # Gamma(a, b): the quadratic terms Q, one rfft, times mult.
            terms = np.stack((u * v + 0.5 * (ax * bx) + 0.5 * (rho * tau),
                              ax * tau + bx * rho), axis=-2)
            out = gamma[start:start + _CHUNK]
            np.multiply(np.fft.rfft(terms, out=out), mult, out=out)
        _gram(gamma.reshape(len(part), len(p), 2, -1), root_weight, out=g[part[0]:part[-1] + 1])
    return g.reshape(*batch, len(p), len(p)), h.reshape(*batch, rows, rows), pair


def _two_row_planes(grid: Grid, bases: np.ndarray):
    """(S, Gram, <a, a> <b, b>) of stacked (..., 2, 2, n) bases (a, b), each a plane.

    With pairs (aa, ab, bb) numbered 0, 1, 2, S = G[1, 1] - G[0, 2].
    """
    g, h, _ = _pair_grams(grid, bases)
    norms = h[..., 0, 0] * h[..., 1, 1]
    return g[..., 1, 1] - g[..., 0, 2], norms - h[..., 0, 1] ** 2, norms


def _plane(a: VelocityPair, b: VelocityPair) -> tuple[float, float, float]:
    """(S, Gram, <a, a> <b, b>) of the plane of a and b."""
    _check_same_grid(a, b)
    bases = np.array([(a.u.values, a.rho.values), (b.u.values, b.rho.values)])
    return tuple(map(float, _two_row_planes(a.grid, bases)))


def unnormalized_curvature(a: VelocityPair, b: VelocityPair) -> float:
    """S(a, b) from the two-component CH Christoffel map."""
    return _plane(a, b)[0]


def sectional_curvature(a: VelocityPair, b: VelocityPair) -> float:
    """S(a, b) / Gram; degenerate when Gram <= `_DEGENERATE_GRAM` <a, a> <b, b>."""
    s, gram, norms = _plane(a, b)
    if gram <= _DEGENERATE_GRAM * norms:
        raise DegeneratePlaneError(f"gram determinant {gram:.3e} too small for norms {norms:.3e}")
    return s / gram


def _ch_term(m_k, m_l):
    """The single-component closed form, evaluated whatever the modes."""
    k = TWO_PI * m_k
    l = TWO_PI * m_l
    return ((1 + 0.5 * k * l) ** 2 / (1 + (k - l) ** 2) * (k - l) ** 2
            + (1 - 0.5 * k * l) ** 2 / (1 + (k + l) ** 2) * (k + l) ** 2) / 8.0


def ch_cosine_curvature(m_k, m_l):
    """Closed-form single-component curvature on distinct cosine modes (ints or int arrays)."""
    if np.any(np.equal(m_k, m_l)):
        raise ValueError("closed form requires distinct modes")
    return _ch_term(m_k, m_l)


def closed_form_integrals(m_k1, m_k2, m_l1, m_l2):
    """The correction integrals (I1, I2, I3, I4) on integer modes or mode arrays.

    Zero velocity modes make I3 and I4 exactly 0.
    """
    a = TWO_PI * m_k1
    b = TWO_PI * m_l1
    c = TWO_PI * m_k2
    e = TWO_PI * m_l2

    i1 = ((c - e) ** 2 / (1 + (c - e) ** 2)
          + (c + e) ** 2 / (1 + (c + e) ** 2)) / 32.0
    i2 = -c**2 / (1 + (2 * c) ** 2) / 8.0 * (m_k2 == m_l2)
    plus, minus = m_k1 + m_l1, m_k1 - m_l1
    sum_deltas = (1.0 * (plus == m_k2 - m_l2) + (plus == m_l2 - m_k2)
                  + (plus == m_k2 + m_l2))
    diff_deltas = (1.0 * (minus == m_k2 - m_l2) + (minus == m_l2 - m_k2)
                   + (minus == m_k2 + m_l2) + (-minus == m_k2 + m_l2))
    i3 = ((1 - 0.5 * a * b) * (a + b) ** 2 / (1 + (a + b) ** 2) / 8.0 * sum_deltas
          + (1 + 0.5 * a * b) * (a - b) ** 2 / (1 + (a - b) ** 2) / 8.0 * diff_deltas
          - a**2 / 4.0 * (1 - 0.5 * a**2) / (1 + (2 * a) ** 2) * (m_k1 == m_l2)
          - b**2 / 4.0 * (1 - 0.5 * b**2) / (1 + (2 * b) ** 2) * (m_k2 == m_l1))
    i4 = (a**2 / 16.0 * (1 - 0.5 * (m_k1 == m_l2))
          + b**2 / 16.0 * (1 - 0.5 * (m_l1 == m_k2))
          - a * b / 16.0 * (diff_deltas - sum_deltas))
    return i1, i2, i3, i4


def _grid_floor(max_mode: int) -> int:
    """The fewest points that resolve curvature of modes <= max_mode: the one resolution rule.

    Products of two directions reach mode 2 max_mode, which the 2/3 rule
    keeps when n >= 6 max_mode + 2 (and a grid has n >= 16).
    """
    return max(16, 6 * max_mode + 2)


def scan_grid(max_mode: int) -> Grid:
    """The smallest grid of `_grid_floor(max_mode)` points or more whose size is 2-3-5-smooth.

    Rounding up to an even 2-3-5-smooth size keeps the FFTs on their fast path.
    """
    return Grid(_fft_size(_grid_floor(max_mode)))


def _top_mode(grid: Grid) -> int:
    """The largest mode whose curvature grid resolves: products reach twice it."""
    return grid.dealias_cutoff // 2


def closed_form_curvature(m_k1, m_k2, m_l1, m_l2):
    """S on cosine direction pairs (integer modes or mode arrays) from the closed forms.

    Equal velocity modes, zero slots included, contribute S(u1, u1) = 0.
    """
    if np.any((m_k1 == m_l1) & (m_k2 == m_l2)):
        raise ValueError("direction pair is degenerate (u = v)")
    i1, i2, i3, i4 = closed_form_integrals(m_k1, m_k2, m_l1, m_l2)
    ch_term = np.where(m_k1 == m_l1, 0.0, _ch_term(m_k1, m_l1))
    return ch_term + (i1 + i2 + i3 + i4)


def _scan_bytes(max_mode: int) -> int:
    """Bytes positivity_scan(max_mode) holds: 80 per plane (its eight columns
    and its index pair) and G over the pairs of the 2 max_mode + 1 basis
    rows its tuples use."""
    full = max_mode * max_mode
    planes = full * (full - 1) // 2 + max_mode * (max_mode - 1) // 2
    rows = 2 * max_mode + 1
    pairs = rows * (rows + 1) // 2
    return 80 * planes + 8 * pairs * pairs


def _plane_bytes(max_mode: int) -> int:
    """Bytes scan_direction holds on a plane of largest mode max_mode.

    1.5 KiB a point of `_grid_floor(max_mode)`, without `scan_grid`'s size
    search (tracemalloc: about 1.4 kB a point at its peak, modes 10^3 to 10^5).
    """
    return 1536 * _grid_floor(max_mode)


def _cosine_table(grid: Grid, tuples: np.ndarray, planes: np.ndarray) -> ScanTable:
    """The scan table of the planes (tuples[i], tuples[j]) for the rows (i, j) of planes.

    A tuple holds the (velocity, density) modes of one cosine direction,
    the sum e_i + e_k of its velocity and density rows of the grid's
    cosine basis: row 0 is the zero direction, row m the velocity and row
    top + m the density cos(2 pi m x), for m = 1..top = `_top_mode(grid)`.
    Only the rows the tuples use are built and paired, by one
    `_pair_grams` call: a scan uses every row up to its largest mode, a
    one-plane table at most four.  By bilinearity the plane of
    a = e_i + e_k and b = e_j + e_l has

        S = sum over i, k in a and j, l in b of G[(ij), (kl)] - G[(ik), (jl)]

    and Gram = <a, a> <b, b> - <a, b>^2 from H.  Each pass of _PLANE_CHUNK
    planes takes their closed forms, S and Gram.  OpenBLAS gives a matrix
    product's entry the same bits whatever its shape (Haswell, SkylakeX,
    Sandybridge and Nehalem kernels), so a one-plane table reads the bits
    of the scan's G entries.
    """
    top = _top_mode(grid)
    if tuples.max() > top:
        raise ValueError(f"mode {tuples.max()} is above {top}, the largest n={grid.n} resolves")
    # The basis rows of each tuple, numbered by their place among the rows
    # used (a mask: np.unique's first sort adds about 0.5 MB of resident memory).
    basis_rows = np.where(tuples > 0, tuples + [0, top], 0)
    used = np.zeros(2 * top + 1, dtype=bool)
    used[basis_rows] = True
    built = np.flatnonzero(used)
    velocity, density = (built >= 1) & (built <= top), built > top
    basis = np.zeros((len(built), 2, grid.n))
    basis[velocity, 0] = np.cos(TWO_PI * built[velocity, None] * grid.points)
    basis[density, 1] = np.cos(TWO_PI * (built[density, None] - top) * grid.points)
    g, h, pair = _pair_grams(grid, basis)
    rows = (np.cumsum(used) - 1)[basis_rows]
    self_pairs = pair[rows[:, :, None], rows[:, None, :]].reshape(len(rows), 4)
    norm = h[rows[:, :, None], rows[:, None, :]].sum(axis=(1, 2))
    (k1, k2), (l1, l2) = tuples[planes[:, 0]].T, tuples[planes[:, 1]].T
    s_closed, s, gram = np.empty((3, len(planes)))
    for start in range(0, len(planes), _PLANE_CHUNK):
        part = slice(start, start + _PLANE_CHUNK)
        s_closed[part] = closed_form_curvature(k1[part], k2[part], l1[part], l2[part])
        i, j = planes[part].T
        a, b = rows[i][:, :, None], rows[j][:, None, :]
        cross = pair[a, b].reshape(len(i), 4)
        s[part] = (g[cross[:, :, None], cross[:, None, :]]
                   - g[self_pairs[i][:, :, None], self_pairs[j][:, None, :]]).sum(axis=(1, 2))
        gram[part] = norm[i] * norm[j] - h[a, b].sum(axis=(1, 2)) ** 2
    return ScanTable(k1, k2, l1, l2, s, s_closed, s / gram, gram)


def scan_direction(direction: CosineDirectionPair) -> ScanTable:
    """The one-row scan table of a direction pair, on `scan_grid` of its largest mode."""
    tuples = np.reshape(astuple(direction), (2, 2))
    return _cosine_table(scan_grid(direction.max_mode), tuples, np.array([[0, 1]]))


def positivity_scan(max_mode: int) -> ScanTable:
    """The table of cosine direction pairs with modes <= max_mode, on scan_grid(max_mode).

    The full family, then the density family, without u = v; see `ScanTable.violations`.
    """
    if max_mode < 2:
        raise ValueError("max_mode must be at least 2")
    grid = scan_grid(max_mode)

    # The distinct slot tuples: (k1, k2) of the full family, then (0, k2)
    # of the density family.
    modes = np.arange(1, max_mode + 1)
    tuples = np.concatenate((
        np.column_stack((np.repeat(modes, max_mode), np.tile(modes, max_mode))),
        np.column_stack((np.zeros_like(modes), modes))))
    full = max_mode * max_mode
    planes = np.concatenate((np.column_stack(np.triu_indices(full, 1)),
                             full + np.column_stack(np.triu_indices(max_mode, 1))))
    log.debug("scanning %d planes of %d slot tuples on n=%d", len(planes), len(tuples), grid.n)
    return _cosine_table(grid, tuples, planes)


def negative_search(rng: np.random.Generator, trials: int,
                    max_mode: int) -> list[tuple[int, float]]:
    """Hunt for negatively curved planes among random trig directions, on scan_grid(max_mode).

    Each trial draws a = (u, rho) and b = (v, tau) like
    `random_band_limited`: per slot and mode m, a cosine and a sine
    coefficient, standard normal times 1/m, in that order (one draw of
    shape (trials, 4, max_mode, 2) gives the same stream, which is drawn
    _CHUNK trials at a time, so memory does not grow with trials).  Planes
    that `sectional_curvature` calls degenerate are dropped.  Returns
    (trial, Sec) sorted most-negative first.  Reported, never asserted: the
    bounds above hold only on the cosine families.
    """
    grid = scan_grid(max_mode)
    modes = np.arange(1, max_mode + 1)
    phase = TWO_PI * modes[:, None] * grid.points
    cos, sin = np.cos(phase), np.sin(phase)
    results = []
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        coef = rng.standard_normal((count, 4, max_mode, 2)) * (1.0 / modes)[:, None]
        # Summed mode by mode, as `random_band_limited` sums each field.
        y = np.zeros((count, 4, grid.n))
        for m in range(max_mode):
            y += coef[..., m, 0, None] * cos[m] + coef[..., m, 1, None] * sin[m]
        s, gram, norms = _two_row_planes(grid, y.reshape(count, 2, 2, grid.n))
        kept = np.flatnonzero(gram > _DEGENERATE_GRAM * norms)
        results.extend(zip((start + kept).tolist(), (s[kept] / gram[kept]).tolist()))
    results.sort(key=lambda item: item[1])
    return results
