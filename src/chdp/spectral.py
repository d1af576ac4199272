"""Spectral substrate on the unit circle.

Uniform periodic grids on [0, 1), real fields with cached Fourier
coefficients, spectral differentiation, the Helmholtz multiplier
1 - d^2/dx^2 and its inverse, inner products, off-grid series evaluation
(composition with circle maps), and Newton inversion of diffeomorphisms.

Off-grid evaluation goes through one private type-2 NUFFT, `_offgrid`:
O(n log n + n*w) time and O(n) memory for n points, shared by stacked
fields.  Its window weights come from one polynomial per window slot in
the point's offset within its fine cell, fitted to the kernel once per
process, so no sqrt or exp is taken per point.  `evaluate`, `compose`
and the Newton inversion shared by `invert_diffeo` and the flow map's
kept rows (`_inverse_points`, on grid rows, to `_INVERSION_TOL`) use
it, over every mode 0..n/2.  `flowmap.momentum_drift` still evaluates
through `series_matrix`, a plan built by doubling to a mode it names,
over blocks of points whose plans have a bounded size: O(n + block) memory.
Both evaluators take stacked (F, n//2 + 1) spectra, giving (F, M) values.

With period 1, integer mode m carries angular wavenumber 2*pi*m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "PeriodicField",
    "Diffeo",
    "DegenerateJacobianError",
    "InversionError",
    "zero_field",
    "cosine_field",
    "random_band_limited",
    "derivative",
    "helmholtz",
    "helmholtz_inverse",
    "dealias",
    "dealiased_product",
    "inner_l2",
    "inner_h1",
    "evaluate",
    "series_matrix",
    "apply_series_matrix",
    "compose",
    "invert_diffeo",
]


class DegenerateJacobianError(ValueError):
    """A circle map failed the orientation condition phi_x > 0."""


class InversionError(RuntimeError):
    """Newton iteration for a diffeomorphism inverse did not converge."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n samples x_j = j/n on [0, 1).

    n must be an integer (an int or an np.integer), even and at least 16.
    `dealias_cutoff` is the largest mode kept by the 2/3 rule, chosen so
    quadratic products of kept modes are alias-free after truncation
    (3*cutoff < n).

    The read-only spectral symbols, one entry per rfft mode k: `ik`, the
    d/dx multiplier 2*pi*i*k with the Nyquist mode dropped;
    `helmholtz_symbol`, 1 + (2*pi*k)**2, the multiplier of 1 - d^2/dx^2;
    and `dealias_mask`, True on the modes the 2/3 rule keeps.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {self.n!r}")
        if self.n % 2 != 0:
            raise ValueError("grid size must be even")
        if self.n < 16:
            raise ValueError("grid size must be at least 16")
        points = np.arange(self.n) / self.n
        modes = np.arange(self.n // 2 + 1)
        omega = 2.0 * np.pi * modes.astype(float)
        ik = 1j * omega
        ik[-1] = 0.0
        cutoff = (self.n - 1) // 3  # the largest with 3 * cutoff < n
        arrays = {"points": points, "ik": ik, "helmholtz_symbol": 1.0 + omega**2,
                  "dealias_mask": modes <= cutoff}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dealias_cutoff", cutoff)


def _check_same_grid(a, b):
    if a.grid.n != b.grid.n:
        raise ValueError(f"grid mismatch: n={a.grid.n} vs n={b.grid.n}")


class PeriodicField:
    """Real-valued function on the circle, sampled at grid.points.

    Instances are immutable; the rfft spectrum is computed once on demand
    and cached.  Arithmetic (+, -, unary -, * by scalar or field) is
    pointwise in physical space and returns new fields.
    """

    __slots__ = ("grid", "_values", "_hat")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(f"expected shape ({grid.n},), got {values.shape}")
        if values.flags.writeable:
            values = values.copy()
            values.setflags(write=False)
        self.grid = grid
        self._values = values
        self._hat = None

    @classmethod
    def from_hat(cls, grid: Grid, hat) -> "PeriodicField":
        """Build a field from rfft coefficients (length n//2 + 1)."""
        hat = np.asarray(hat, dtype=complex)
        field = cls(grid, np.fft.irfft(hat, n=grid.n))
        hat = hat.copy()
        hat.setflags(write=False)
        field._hat = hat
        return field

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def hat(self) -> np.ndarray:
        if self._hat is None:
            hat = np.fft.rfft(self._values)
            hat.setflags(write=False)
            self._hat = hat
        return self._hat

    def __add__(self, other):
        if isinstance(other, PeriodicField):
            _check_same_grid(self, other)
            return PeriodicField(self.grid, self._values + other._values)
        return PeriodicField(self.grid, self._values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PeriodicField):
            _check_same_grid(self, other)
            return PeriodicField(self.grid, self._values - other._values)
        return PeriodicField(self.grid, self._values - other)

    def __neg__(self):
        return PeriodicField(self.grid, -self._values)

    def __mul__(self, other):
        if isinstance(other, PeriodicField):
            _check_same_grid(self, other)
            return PeriodicField(self.grid, self._values * other._values)
        return PeriodicField(self.grid, self._values * other)

    __rmul__ = __mul__


def zero_field(grid: Grid) -> PeriodicField:
    return PeriodicField(grid, np.zeros(grid.n))


def cosine_field(grid: Grid, mode: int, amplitude: float = 1.0) -> PeriodicField:
    return PeriodicField(grid, amplitude * np.cos(2.0 * np.pi * mode * grid.points))


def random_band_limited(grid: Grid, rng: np.random.Generator, max_mode: int,
                        scale: float = 1.0) -> PeriodicField:
    """Zero-mean random field with modes 1..max_mode and 1/m amplitude decay."""
    if max_mode > grid.n // 2 - 1:
        raise ValueError("max_mode exceeds grid resolution")
    x = grid.points
    values = np.zeros(grid.n)
    for m in range(1, max_mode + 1):
        a, b = rng.standard_normal(2) * (scale / m)
        values += a * np.cos(2.0 * np.pi * m * x) + b * np.sin(2.0 * np.pi * m * x)
    return PeriodicField(grid, values)


# ---------------------------------------------------------------------------
# Diagonal spectral operators
# ---------------------------------------------------------------------------

def derivative(f: PeriodicField) -> PeriodicField:
    """d/dx via the multiplier i*2*pi*k; the Nyquist mode is dropped."""
    return PeriodicField.from_hat(f.grid, f.hat * f.grid.ik)


def helmholtz(f: PeriodicField) -> PeriodicField:
    """(1 - d^2/dx^2) f via the multiplier 1 + (2*pi*k)^2."""
    return PeriodicField.from_hat(f.grid, f.hat * f.grid.helmholtz_symbol)


def helmholtz_inverse(f: PeriodicField) -> PeriodicField:
    """(1 - d^2/dx^2)^{-1} f via the multiplier 1/(1 + (2*pi*k)^2)."""
    return PeriodicField.from_hat(f.grid, f.hat / f.grid.helmholtz_symbol)


def dealias(f: PeriodicField) -> PeriodicField:
    """Zero all modes above the grid's 2/3-rule cutoff."""
    return PeriodicField.from_hat(f.grid, np.where(f.grid.dealias_mask, f.hat, 0.0))


def dealiased_product(f: PeriodicField, g: PeriodicField) -> PeriodicField:
    """Pointwise product followed by 2/3-rule truncation.

    Exact for factors already band-limited to the dealias cutoff, since
    their true product has no content that aliases into the kept band.
    """
    return dealias(f * g)


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

def inner_l2(f: PeriodicField, g: PeriodicField) -> float:
    """Integral of f*g over one period.

    The uniform-grid average is the trapezoid rule for periodic data and
    is exact whenever the product is band-limited below the grid size.
    """
    _check_same_grid(f, g)
    return float(np.dot(f.values, g.values) / f.grid.n)


def inner_h1(f: PeriodicField, g: PeriodicField) -> float:
    """H^1 inner product: integral of f*g + f_x*g_x over one period."""
    _check_same_grid(f, g)
    return inner_l2(f, g) + inner_l2(derivative(f), derivative(g))


# ---------------------------------------------------------------------------
# Off-grid evaluation (composition with circle maps)
# ---------------------------------------------------------------------------

def series_matrix(y, kmax: int) -> np.ndarray:
    """Matrix E with E[j, k] = exp(2*pi*i*k*y_j) for k = 0..kmax; y is flattened.

    Built by doubling: with rows 0..b-1 of the (kmax + 1, M) transpose
    holding z**k, z = exp(2*pi*i*y), rows b..2b-1 are those rows times
    z**b, so about log2(kmax) whole-block products fill it; E is the
    transposed view.  Its round-off grows like k, as that of sequential
    products does.  One plan can be reused on several fields
    (`apply_series_matrix`); it costs O(M*K) memory, so callers bound M.
    A kmax below n/2 is exact for fields whose modes above kmax vanish.
    `_offgrid` computes the values of kmax = n/2 in O(M) memory.
    """
    y = np.asarray(y, dtype=float).ravel()
    plan = np.empty((kmax + 1, y.size), dtype=complex)
    plan[0] = 1.0
    plan[1:2] = np.exp(2j * np.pi * y)  # no row to fill when kmax = 0
    filled = 2  # rows 0..filled-1 hold z**k; filled stays a power of 2
    while filled <= kmax:
        count = min(filled, kmax + 1 - filled)
        np.multiply(plan[:count], np.square(plan[filled // 2]),
                    out=plan[filled:filled + count])
        filled += count
    return plan.T


def apply_series_matrix(mat: np.ndarray, hats: np.ndarray) -> np.ndarray:
    """(F, M) series values of stacked (F, n//2 + 1) rfft spectra at mat's M points.

    In the convention of `_offgrid`.  One product with mat per field, so a
    field's values do not depend on what is stacked with it.
    """
    n = 2 * (hats.shape[-1] - 1)
    weights = hats[:, :mat.shape[1]] / n
    weights[:, 1:n // 2] *= 2.0
    return np.array([(mat @ w).real for w in weights])


# Type-2 NUFFT with the "exponential of semicircle" kernel
# exp(beta * (sqrt(1 - z^2) - 1)) on |z| <= 1 (Barnett, Magland & af
# Klinteberg, SIAM J. Sci. Comput. 41, 2019): its width in fine-grid
# points, the oversampling of the fine grid, and beta for that oversampling.
# Width 13 misses the dense plan by about 2e-12, past the 1e-12 asked.
_ES_WIDTH = 14
_ES_OVERSAMPLING = 2
_ES_BETA = 2.30 * _ES_WIDTH
# Degree of the polynomial that gives each window slot's weight: the
# smallest that keeps every weight within 1e-14 of `_es_kernel` (degree
# 12 is 9e-15 off, degree 11 7.6e-14).
_ES_DEGREE = 12


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """The ES kernel at z in [-1, 1], computed in place.

    It serves only the fit of `_es_coefficients` and the deconvolution
    factors of `_offgrid_plan`; `_offgrid` takes its weights from the fit.
    """
    np.multiply(z, z, out=z)
    np.subtract(1.0, z, out=z)
    np.maximum(z, 0.0, out=z)  # |z| may exceed 1 by one rounding
    np.sqrt(z, out=z)
    z -= 1.0
    z *= _ES_BETA
    return np.exp(z, out=z)


def _slot_arguments(t: np.ndarray) -> np.ndarray:
    """(_ES_WIDTH, M) kernel arguments of the window slots at fractional offsets t.

    A point at x in fine cell c = floor(x) has t = 2 (x - c) - 1 in [-1, 1];
    its slot s holds fine point c - w/2 + 1 + s, at z = (2 s + 1 - w - t) / w.
    """
    slots = 2.0 * np.arange(_ES_WIDTH)[:, None] + (1 - _ES_WIDTH)
    return (slots - t) / _ES_WIDTH


@lru_cache(maxsize=1)
def _es_coefficients() -> np.ndarray:
    """(_ES_DEGREE + 1, _ES_WIDTH) monomial coefficients in t of the window weights.

    The least-squares fit in Chebyshev polynomials of `_es_kernel` at each
    slot's arguments, sampled at N = 16 (_ES_DEGREE + 1) Chebyshev nodes,
    converted to monomials (all below 1 in magnitude).  T_0..T_d are
    orthogonal on those nodes (sum T_j^2 = N/2, N for j = 0), so the fit is
    one product with their values and needs no least-squares solver.
    Computed on first use, once per process.
    """
    cheb = np.polynomial.chebyshev
    nodes = cheb.chebpts1(16 * (_ES_DEGREE + 1))
    kernel = _es_kernel(_slot_arguments(nodes))
    fit = (2.0 / nodes.size) * (cheb.chebvander(nodes, _ES_DEGREE).T @ kernel.T)
    fit[0] *= 0.5
    coef = np.column_stack([cheb.cheb2poly(column) for column in fit.T])
    coef.setflags(write=False)
    return coef


def _es_weights(t: np.ndarray) -> np.ndarray:
    """(M, _ES_WIDTH) window weights at the fractional offsets t (1-D, in [-1, 1]).

    One (_ES_DEGREE + 1, M) table of powers of t, filled by in-place
    products, times the fitted coefficients: no sqrt or exp per weight.
    """
    powers = np.empty((_ES_DEGREE + 1, t.size))
    powers[0] = 1.0
    powers[1] = t
    for k in range(2, _ES_DEGREE + 1):
        np.multiply(powers[k - 1], t, out=powers[k])
    return powers.T @ _es_coefficients()


def _fft_size(m: int) -> int:
    """Smallest even 2-3-5-smooth integer >= m."""
    m += m % 2
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 2


@lru_cache(maxsize=64)
def _offgrid_plan(n: int) -> tuple[int, np.ndarray]:
    """Fine-grid size and deconvolution factors of modes 0..n/2 for `_offgrid`.

    factor[k] = 1 / (n * kernel_hat(k)), halved at the Nyquist mode n/2,
    so that only modes 1..n/2-1 carry the doubled weight of
    `apply_series_matrix`.  kernel_hat is the kernel's Fourier transform,
    by Gauss-Legendre quadrature of its (even) cosine integral.
    """
    nfine = _fft_size(max(_ES_OVERSAMPLING * (n + 1), 2 * _ES_WIDTH))
    nodes, weights = np.polynomial.legendre.leggauss(3 * _ES_WIDTH)
    kernel = _es_kernel(nodes.copy())
    phase = (np.pi * _ES_WIDTH / nfine) * np.outer(np.arange(n // 2 + 1), nodes)
    kernel_hat = (_ES_WIDTH / (2.0 * nfine)) * (np.cos(phase) @ (weights * kernel))
    factor = 1.0 / (n * kernel_hat)
    factor[-1] *= 0.5
    factor.setflags(write=False)
    return nfine, factor


# Most points per gather in `_offgrid`: its (F, points, _ES_WIDTH) gather and
# the weights stay small enough for the heap to reuse them.  At n = 4096 one
# gather of every point was unmapped and faulted back on each call (about
# 520 minor faults per `invert_diffeo`); up to 1024 points take one pass.
# More points split into blocks whose sizes differ by at most one, so none
# holds fewer than 512: `_es_weights` of a single point takes BLAS's
# matrix-vector product, whose bits differ from the matrix product's.
_OFFGRID_BLOCK = 1024


def _offgrid(hats: np.ndarray, y) -> np.ndarray:
    """Fourier series of stacked fields at arbitrary points (type-2 NUFFT).

    hats holds the (F, n//2 + 1) rfft spectra of fields on an n-point grid.
    Returns the (F, M) values at the M points y in the convention of
    `apply_series_matrix`, which takes the same hats: modes 1..n/2-1
    doubled, mode 0 and the Nyquist mode n/2 not, real part.

    The modes, divided by the kernel's transform, go onto an oversampled
    fine grid in one batched irfft, written into a buffer padded by the
    wrapped ends of the grid.  Each point then sums its `_ES_WIDTH`
    nearest fine-grid values, one gather for all F fields, with weights
    from the fitted polynomials of `_es_weights`, shared by the fields.
    The points go through in blocks of at most `_OFFGRID_BLOCK`, which
    bounds the temporaries and gives the bits of one pass.
    Points may lie in any period; non-finite points give NaN.
    """
    n = 2 * (hats.shape[-1] - 1)
    nfine, factor = _offgrid_plan(n)
    fields = hats.shape[0]
    # Column p of `fine` holds fine point p - lead (mod nfine), so the window
    # of fine points i-6..i+7 around every point in cell i is one row of
    # `windows`.  irfft pads the modes above n/2 with zeros.
    lead = _ES_WIDTH // 2 - 1
    fine = np.empty((fields, nfine + _ES_WIDTH))
    np.fft.irfft(hats * factor, n=nfine, out=fine[:, lead:lead + nfine])
    fine[:, :lead] = fine[:, nfine:nfine + lead]
    fine[:, lead + nfine:] = fine[:, lead:_ES_WIDTH]
    step = fine.strides[1]
    windows = np.ndarray((fields, nfine + 1, _ES_WIDTH), buffer=fine,
                         strides=(fine.strides[0], step, step))

    x = np.ravel(y).astype(float)
    bad = ~np.isfinite(x)
    if bad.any():
        x[bad] = 0.0
    x -= np.floor(x)
    x *= nfine  # in [0, nfine]: the top end only by rounding
    cell = x.astype(np.intp)  # the floor, since x >= 0
    x -= cell
    x *= 2.0
    x -= 1.0  # the offset t in [-1, 1]
    out = np.empty((fields, x.size))
    blocks = max(1, -(-x.size // _OFFGRID_BLOCK))
    edges = [i * x.size // blocks for i in range(blocks + 1)]
    for block in map(slice, edges[:-1], edges[1:]):
        np.einsum("fmw,mw->fm", windows[:, cell[block]], _es_weights(x[block]),
                  out=out[:, block])
    if bad.any():
        out[:, bad] = np.nan
    return out


def evaluate(f: PeriodicField, y) -> np.ndarray:
    """Fourier series of f (modes 0..n/2) at arbitrary points y, by `_offgrid`."""
    return _offgrid(f.hat[None], y)[0]


class Diffeo:
    """Orientation-preserving circle map phi(x) = x + psi(x).

    psi is periodic, so phi(x + 1) = phi(x) + 1 by construction.  The
    Jacobian phi_x = 1 + psi_x is computed spectrally and cached; building
    a Diffeo whose Jacobian is not strictly positive raises
    DegenerateJacobianError, and one whose displacement is not finite
    raises ValueError.
    """

    __slots__ = ("grid", "displacement", "jacobian")

    def __init__(self, displacement: PeriodicField):
        if not np.isfinite(displacement.values).all():
            raise ValueError("displacement must be finite")
        jac = 1.0 + derivative(displacement)
        if jac.values.min() <= 0.0:
            raise DegenerateJacobianError(
                f"jacobian min {jac.values.min():.3e} is not positive")
        self.grid = displacement.grid
        self.displacement = displacement
        self.jacobian = jac

    @property
    def warped_points(self) -> np.ndarray:
        """phi evaluated at the grid points (not reduced mod 1)."""
        return self.grid.points + self.displacement.values


def compose(f: PeriodicField, phi: Diffeo) -> PeriodicField:
    """f o phi: evaluate the series of f at the warped grid points."""
    _check_same_grid(f, phi)
    return PeriodicField(f.grid, evaluate(f, phi.warped_points))


# Newton in `_inverse_points` stops once max |phi(y) - x| <= _INVERSION_TOL
# (at 1e-12, psi of C7's 2CH run was off by 9e-13), and raises
# InversionError if that takes more than _INVERSION_MAX_ITER steps.
_INVERSION_TOL = 1e-14
_INVERSION_MAX_ITER = 50


def _inverse_points(grid: Grid, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points y with y + d(y) = x at the grid points x, and the further rows at y.

    rows[0] holds the grid values of a displacement d, and further rows
    ride along; one rfft gives their series, and d_x's is d's times `ik`,
    as `derivative` takes it.  Newton per grid point from a guess that
    interpolates the monotone sampled pairs (x_k + d(x_k), x_k), extended
    by one period on both sides, so every target is bracketed.  Each
    iteration evaluates (d, d_x, further rows) at the iterate in one
    `_offgrid` call, in O(n) memory; it stops once max |y + d(y) - x| <=
    `_INVERSION_TOL` and returns y with that call's values of the further
    rows, (len(rows) - 1, n).  Raises InversionError if Newton stalls (a
    symptom of a near-degenerate Jacobian).
    """
    hats = np.fft.rfft(rows)
    hats = np.concatenate((hats[:1], hats[:1] * grid.ik, hats[1:]))
    x = grid.points
    fx = x + rows[0]
    knots_x = np.concatenate([fx - 1.0, fx, fx + 1.0])
    knots_y = np.concatenate([x - 1.0, x, x + 1.0])
    y = np.interp(x, knots_x, knots_y)
    for _ in range(_INVERSION_MAX_ITER):
        at_y = _offgrid(hats, y)
        residual = y + at_y[0] - x
        if np.max(np.abs(residual)) <= _INVERSION_TOL:
            return y, at_y[2:]
        y = y - residual / (1.0 + at_y[1])
    raise InversionError(
        f"diffeomorphism inversion did not reach {_INVERSION_TOL:g} "
        f"in {_INVERSION_MAX_ITER} Newton steps")


def invert_diffeo(phi: Diffeo) -> Diffeo:
    """Inverse circle map, by `_inverse_points` to a residual of `_INVERSION_TOL`.

    A flow map's kept chi inverts to its kept psi bit for bit.  Raises
    InversionError if Newton stalls.
    """
    grid = phi.grid
    y = _inverse_points(grid, phi.displacement.values[None])[0]
    return Diffeo(PeriodicField(grid, y - grid.points))
