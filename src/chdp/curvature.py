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

S is evaluated by a private kernel per grid on stacked (planes, 2, n)
arrays of directions (u, rho).  Gamma(a, b) costs one rfft of the two
stacked quadratic terms (u v + u_x v_x/2 + rho tau/2, u_x tau + v_x rho),
whose spectra are multiplied by -Ainv d/dx and -1/2 with the 2/3-rule
mask folded in (the multipliers of the 2CH evolution kernel).  The metric
(H^1 on u, L^2 on rho) and the Gram determinant pair rfft spectra by
Parseval, so no inverse transform follows.  `positivity_scan` computes
the spectra, u_x and Gamma(a, a) once per distinct slot tuple, Gamma(a, b)
per plane in chunks and the closed forms on the mode columns, checks its
bounds with masks and returns a `ScanTable` of 1-D columns;
`scan_direction` is the one-row table of the same path.
`unnormalized_curvature` and `sectional_curvature` are the one-plane
`VelocityPair` views of the kernel, and `chdp.connection.christoffel_2ch`
with `metric` is the field-by-field form they agree with to round-off.

Resolution: products of two directions reach twice their largest mode M,
so the scans take modes, not a grid: `scan_direction`, `positivity_scan`
and `negative_search` run on `scan_grid(M)`, the smallest resolving grid
of FFT-friendly size; every scan row must match the closed form to C1's tolerance.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from chdp.connection import Model, VelocityPair
from chdp.evolution import _kernel
from chdp.spectral import Grid, _fft_size

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

# Planes per batched Gamma(a, b) pass: bounds the working arrays at
# (_CHUNK, 2, n) however many planes a scan holds.
_CHUNK = 128
# Planes per closed-form pass: bounds its temporaries (about 15 float
# columns) while every scan up to max mode 16 (32,760 planes) is one pass.
_CLOSED_FORM_CHUNK = 1 << 16


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


class _CurvatureKernel:
    """2CH Christoffel map and metric of one grid, on stacked arrays.

    A direction is a (2, n) array (u, rho); batches stack directions on
    leading axes.  `slopes` is one irfft giving u_x from the rfft spectra,
    `christoffel` one rfft giving the spectrum of Gamma(a, b), and
    `metric` pairs spectra by Parseval.
    """

    def __init__(self, grid: Grid):
        ch2 = _kernel(Model.CH2, grid.n)
        self.n = grid.n
        self.ik = ch2.ik
        # Gamma = (-keep Ainv d/dx Q1, -keep Q2 / 2); ch2.mult holds -keep,
        # -keep Ainv d/dx and -keep.
        self.mult = np.stack((ch2.mult[1], 0.5 * ch2.mult[2]))
        # (1/n) sum_j f_j g_j = sum_k c_k Re(f^_k conj(g^_k)) / n^2, with
        # c_k = 2 but 1 at k = 0 and Nyquist; u adds the u_x term, whose
        # Nyquist mode `derivative` drops (ik is 0 there).
        c = np.full(grid.n // 2 + 1, 2.0 / grid.n**2)
        c[[0, -1]] /= 2.0
        self.weight = np.stack((c * (1.0 + self.ik.imag**2), c))
        for arr in (self.mult, self.weight):
            arr.setflags(write=False)

    def slopes(self, hat: np.ndarray) -> np.ndarray:
        """u_x of every direction, from its spectrum."""
        return np.fft.irfft(hat[..., 0, :] * self.ik, self.n)

    def christoffel(self, a, ax, b, bx) -> np.ndarray:
        """Spectrum of Gamma(a, b) for directions a, b with slopes ax, bx."""
        u, rho = a[..., 0, :], a[..., 1, :]
        v, tau = b[..., 0, :], b[..., 1, :]
        q = np.stack((u * v + 0.5 * (ax * bx) + 0.5 * (rho * tau),
                      ax * tau + bx * rho), axis=-2)
        return np.fft.rfft(q) * self.mult

    def metric(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """<f, g> of stacked spectra: H^1 on u, L^2 on rho."""
        return ((f.real * g.real + f.imag * g.imag) * self.weight).sum(axis=(-2, -1))


@lru_cache(maxsize=None)
def _curvature_kernel(grid: Grid) -> _CurvatureKernel:
    """The curvature kernel of grid, built on first use and then shared."""
    return _CurvatureKernel(grid)


def _curvatures(grid: Grid, y: np.ndarray, planes: np.ndarray):
    """(S, Gram) of each plane (y[i], y[j]) for the rows (i, j) of planes, and <y, y>.

    Spectra, slopes, Gamma(a, a) and <a, a> are computed once per
    direction; Gamma(a, b) once per plane, _CHUNK planes per rfft.
    """
    kernel = _curvature_kernel(grid)
    hat = np.fft.rfft(y)
    yx = kernel.slopes(hat)
    gamma_self = kernel.christoffel(y, yx, y, yx)
    norm = kernel.metric(hat, hat)
    s = np.empty(len(planes))
    gram = np.empty(len(planes))
    for start in range(0, len(planes), _CHUNK):
        i, j = planes[start:start + _CHUNK].T
        gamma = kernel.christoffel(y[i], yx[i], y[j], yx[j])
        s[start:start + _CHUNK] = (kernel.metric(gamma, gamma)
                                   - kernel.metric(gamma_self[i], gamma_self[j]))
        gram[start:start + _CHUNK] = norm[i] * norm[j] - kernel.metric(hat[i], hat[j]) ** 2
    return s, gram, norm


def _plane(a: VelocityPair, b: VelocityPair) -> tuple[float, float, float]:
    """(S, Gram, <a, a> <b, b>) of the plane of a and b."""
    if a.grid.n != b.grid.n:
        raise ValueError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")
    y = np.array([(a.u.values, a.rho.values), (b.u.values, b.rho.values)])
    s, gram, norm = _curvatures(a.grid, y, np.array([[0, 1]]))
    return float(s[0]), float(gram[0]), float(norm[0] * norm[1])


def unnormalized_curvature(a: VelocityPair, b: VelocityPair) -> float:
    """S(a, b) from the two-component CH Christoffel map."""
    return _plane(a, b)[0]


def sectional_curvature(a: VelocityPair, b: VelocityPair) -> float:
    """S(a, b) / Gram; degenerate when Gram <= 1e-12 <a, a> <b, b>, as Sec is scale-free."""
    s, gram, norms = _plane(a, b)
    if gram <= 1e-12 * norms:
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


def scan_grid(max_mode: int) -> Grid:
    """The smallest grid resolving curvature of modes <= max_mode whose size is 2-3-5-smooth.

    The one resolution rule: products of two directions reach mode 2 max_mode,
    which the 2/3 rule keeps when n >= 6 max_mode + 2 (and n >= 16); rounding
    up to an even 2-3-5-smooth size keeps the FFTs on their fast path.
    """
    return Grid(_fft_size(max(16, 6 * max_mode + 2)))


def closed_form_curvature(m_k1, m_k2, m_l1, m_l2):
    """S on cosine direction pairs (integer modes or mode arrays) from the closed forms.

    Equal velocity modes, zero slots included, contribute S(u1, u1) = 0.
    """
    if np.any((m_k1 == m_l1) & (m_k2 == m_l2)):
        raise ValueError("direction pair is degenerate (u = v)")
    i1, i2, i3, i4 = closed_form_integrals(m_k1, m_k2, m_l1, m_l2)
    ch_term = np.where(m_k1 == m_l1, 0.0, _ch_term(m_k1, m_l1))
    return ch_term + (i1 + i2 + i3 + i4)


def _cosine_table(grid: Grid, tuples: np.ndarray, planes: np.ndarray) -> ScanTable:
    """The scan table of the planes (tuples[i], tuples[j]) for the rows (i, j) of planes.

    A tuple holds the (velocity, density) modes of one cosine direction.
    The closed forms come first, _CLOSED_FORM_CHUNK planes per pass, so a
    degenerate plane raises before the kernel runs.
    """
    (k1, k2), (l1, l2) = tuples[planes[:, 0]].T, tuples[planes[:, 1]].T
    s_closed = np.empty(len(planes))
    for start in range(0, len(planes), _CLOSED_FORM_CHUNK):
        part = slice(start, start + _CLOSED_FORM_CHUNK)
        s_closed[part] = closed_form_curvature(k1[part], k2[part], l1[part], l2[part])
    # Row m is cos(2 pi m x), row 0 the zero slot.
    cosines = np.cos(TWO_PI * np.arange(tuples.max() + 1)[:, None] * grid.points)
    cosines[0] = 0.0
    s, gram, _ = _curvatures(grid, cosines[tuples], planes)
    return ScanTable(k1, k2, l1, l2, s, s_closed, s / gram, gram)


def scan_direction(direction: CosineDirectionPair) -> ScanTable:
    """The one-row scan table of a direction pair, on `scan_grid` of its largest mode."""
    tuples = np.reshape(astuple(direction), (2, 2))
    return _cosine_table(scan_grid(direction.max_mode), tuples, np.array([[0, 1]]))


def positivity_scan(max_mode: int, enforce: bool = True) -> ScanTable:
    """Enumerate cosine direction pairs with modes <= max_mode, on scan_grid(max_mode).

    Scans the full family (asserting S > 0) and the zero-first-component
    family (asserting Sec >= 1/8 - 1e-12 and Gram = 1/4), skipping the
    degenerate u = v tuples.  Every row must also agree with the closed
    form at C1's tolerance, |S_numeric - S_closed| <= 1e-8 (1 + |S_closed|).
    With enforce, a violated bound raises RuntimeError naming the
    offending tuples.
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
    table = _cosine_table(grid, tuples, planes)

    density = table.m_k1 == 0
    s_low = ~density & ((table.s_numeric <= 0.0) | (table.s_closed <= 0.0))
    error = table.closed_form_error()
    disagree = error > 1e-8
    sec_low = density & (table.sec < 0.125 - 1e-12)
    gram_off = density & (np.abs(table.gram - 0.25) > 1e-12)
    bad = np.flatnonzero(s_low | disagree | sec_low | gram_off)
    if enforce and len(bad):
        t, violations = table, []
        for r in bad:
            k1, k2, l1, l2 = t.m_k1[r], t.m_k2[r], t.m_l1[r], t.m_l2[r]
            if s_low[r]:
                violations.append(f"S <= 0 at modes ({k1}, {k2})+({l1}, {l2}): "
                                  f"numeric {t.s_numeric[r]:.6e}, closed {t.s_closed[r]:.6e}")
            if disagree[r]:
                violations.append(f"S off the closed form at modes ({k1}, {k2})+({l1}, {l2}): "
                                  f"numeric {t.s_numeric[r]:.12e}, closed {t.s_closed[r]:.12e}, "
                                  f"rel err {error[r]:.2e} > 1e-8")
            if sec_low[r]:
                violations.append(f"Sec < 1/8 at density modes ({k2}, {l2}): {t.sec[r]:.12f}")
            if gram_off[r]:
                violations.append(f"Gram != 1/4 at density modes ({k2}, {l2}): {t.gram[r]:.15f}")
        raise RuntimeError("curvature bounds violated:\n" + "\n".join(violations))
    return table


def negative_search(rng: np.random.Generator, trials: int,
                    max_mode: int) -> list[tuple[int, float]]:
    """Hunt for negatively curved planes among random trig directions, on scan_grid(max_mode).

    Each trial draws a = (u, rho) and b = (v, tau) like
    `random_band_limited`: per slot and mode m, a cosine and a sine
    coefficient, standard normal times 1/m, in that order (one draw of
    shape (trials, 4, max_mode, 2) gives the same stream).  Planes with
    Gram <= 1e-9 are dropped.  Returns (trial, Sec) sorted most-negative
    first.  Reported, never asserted: the bounds above hold only on the
    cosine families.
    """
    grid = scan_grid(max_mode)
    modes = np.arange(1, max_mode + 1)
    coef = rng.standard_normal((trials, 4, max_mode, 2)) * (1.0 / modes)[:, None]
    phase = TWO_PI * modes[:, None] * grid.points
    cos, sin = np.cos(phase), np.sin(phase)
    # Summed mode by mode, as `random_band_limited` sums each field.
    y = np.zeros((trials, 4, grid.n))
    for m in range(max_mode):
        y += coef[..., m, 0, None] * cos[m] + coef[..., m, 1, None] * sin[m]
    s, gram, _ = _curvatures(grid, y.reshape(2 * trials, 2, grid.n),
                             np.arange(2 * trials).reshape(trials, 2))
    kept = np.flatnonzero(gram > 1e-9)
    results = list(zip(kept.tolist(), (s[kept] / gram[kept]).tolist()))
    results.sort(key=lambda item: item[1])
    return results
