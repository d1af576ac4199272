"""Eulerian time integration of the CH/DP family.

The weak Cauchy forms put every nonlinearity under the inverse Helmholtz
operator:

    2CH:  u_t = -u u_x - Ainv d/dx (u^2 + u_x^2/2 + rho^2/2)
          rho_t = -u rho_x - rho u_x
    2DP:  u_t = -u u_x - Ainv ((3 u^2/2 - rho^2)_x + rho u_x)
          rho_t = -u rho_x - 2 rho u_x

CH and DP are the rho = 0 reductions.  The kernel writes rho's equation
in conservative form, u rho_x + rho u_x = (u rho)_x:

    2CH:  rho_t = -(u rho)_x
    2DP:  rho_t = -(u rho)_x - rho u_x

so no stage reads rho_x.  u u_x stays a product.  As (u^2)_x / 2 it
would carry the round-off of the top modes of (u^2)^ times ik, which the
cross-check against `rhs_momentum_form` (C5, A u_t against m_t)
multiplies by A's 1 + (2 pi k)^2: its error went from 2.9e-10 to 1.5e-9,
past C5's 1e-9.  Time stepping is fixed-step classical RK4 (`rk4`, shared by every
integrator) with 2/3-rule dealiasing; blow-up is detected by non-finite
values and by thresholds on min u_x and max |rho_x|, checked after every
step (the thresholds also at t=0, where non-finite initial data are a
ValueError).

The integrator state is the Fourier coefficients of (u, rho), the rfft
over n, one complex (2, n//2 + 1) array (`_initial_state`): no field is
built until the result.  Every synthesis is `np.fft.irfft(...,
norm="forward")`, which scales nothing, and the 1/n of every analysis
lives in the kernel's multipliers, exact for power-of-two n.  The
right-hand side is a private kernel per (model, grid, state rows) that
maps coefficients to coefficients with two batched FFT calls: one irfft
of (u, rho, u_x) and one rfft of the quadratic terms, each summed from
its pairwise products in grid space by one small real matrix product (3
rows and 5 products on 2CH, 4 and 5 on 2DP, 2 and 3 on CH, 2 and 2 on
DP).  Each term's dealias mask, d/dx, inverse Helmholtz factor and 1/n
are folded into one multiplier per equation, so the stages are
band-limited and dealiasing needs no FFT pair.  With four state rows the
same kernel also transports the flow map's labels (`chdp.flowmap`).
`rhs` is the `VelocityPair` view of the two-row kernel.
A step allocates no grid-sized temporary besides its stage derivatives
and its result: each cached kernel writes a stage's coefficients, grid
values, products, terms and term spectra into buffers it makes when it is
built, and `rk4` sums the stages in place, in the order of the textbook
sum, so the bits are those of fresh arrays.  What a stage and a step
return is a new array.  A kernel serves one call at a time (chdp runs in
one thread).
`evolve` and `evolve_flowmap` share one step loop, `_integrate`, with one
monitor and one keep rule: the rows of every `diagnostics_stride`-th
step, the last step and a blow-up step.  The monitor's single irfft per
step (`_points`, a function of the grid, so no model kernel serves it)
gives the grid values and slopes of every state row, and one minimum and
one maximum over the slope rows decide the step: a NaN minimum marks a
non-finite step (ik times an infinite or NaN coefficient is NaN), then
the thresholds read them.  The next step's stage 1 starts from that
irfft, which has the layout of a stage's own (stated at `_points`).  An
Eulerian step thus costs 8 FFT calls, monitor included, and so does a
flow-map step, whose stages transport the labels map on the grid
(`chdp.flowmap`).  A kept step stores the grid values of the state rows
alone in one real history array, and its diagnostics, five scalars from
the monitor's irfft and its slope minima and maxima, in one column array.
Both integrators return a result that views the history (`EvolveResult`,
extended by the flow map's `FlowmapResult`) with the columns as a
`DiagnosticsTable`.  `step_rk4` is one RK4 step of the stacked
coefficients, two rows or four; `_integrate` steps both integrators
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from chdp.connection import Model, VelocityPair
from chdp.spectral import (
    Grid,
    PeriodicField,
    dealiased_product,
    derivative,
    helmholtz,
    zero_field,
)

__all__ = [
    "EvolutionConfig",
    "DiagnosticsTable",
    "RunStatus",
    "EvolveResult",
    "rk4",
    "step_count",
    "rhs",
    "rhs_momentum_form",
    "step_rk4",
    "evolve",
]


def rk4(f, y: np.ndarray, dt: float, k1: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step of y' = f(y) for an array y: a new array.

    k1, if given, is f(y), computed by the caller.  The stages and the sum
    go into two arrays made here, in place: each stage is c k + y, and the
    step is ((2 k2 + k1 + 2 k3 + k4) dt/6) + y, the operations of
    y + (dt/6) (k1 + 2 k2 + 2 k3 + k4) in the same order, so the bits are
    the same.  Neither y nor any k is written, and f may keep none of the
    stages it is given: the next stage is written over it.
    """
    k1 = f(y) if k1 is None else k1
    stage = np.multiply(0.5 * dt, k1)
    stage += y
    k2 = f(stage)
    np.multiply(0.5 * dt, k2, stage)
    stage += y
    k3 = f(stage)
    np.multiply(dt, k3, stage)
    stage += y
    k4 = f(stage)
    total = np.multiply(2.0, k2)
    total += k1
    total += np.multiply(2.0, k3, stage)
    total += k4
    total *= dt / 6.0
    total += y
    return total


def step_count(dt: float, t_end: float) -> int:
    """Steps of size dt to t_end: finite 0 < dt <= t_end, t_end/dt whole to 1e-9."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (np.isfinite(t_end) and t_end >= dt):
        raise ValueError(f"t_end must be finite and at least dt={dt!r}, got {t_end!r}")
    steps = t_end / dt
    if not np.isfinite(steps) or abs(round(steps) * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end={t_end!r} is not a whole number of steps of dt={dt!r}")
    return round(steps)


@dataclass(frozen=True)
class EvolutionConfig:
    """Run parameters for an Eulerian integration."""

    model: Model
    dt: float
    t_end: float
    blowup_slope_threshold: float = -1e6
    blowup_rhox_threshold: float = 1e6
    diagnostics_stride: int = 10

    def __post_init__(self):
        step_count(self.dt, self.t_end)
        if not np.isfinite(self.blowup_slope_threshold) or self.blowup_slope_threshold >= 0:
            raise ValueError("slope threshold must be finite and negative")
        if not np.isfinite(self.blowup_rhox_threshold) or self.blowup_rhox_threshold <= 0:
            raise ValueError("rho_x threshold must be finite and positive")
        stride = self.diagnostics_stride
        if not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError(f"diagnostics stride must be >= 1 and an integer, got {stride!r}")

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.t_end)


@dataclass(frozen=True, eq=False)
class DiagnosticsTable:
    """Diagnostics of the kept steps as 1-D columns, one entry per kept step.

    energy is the metric energy <(u, rho), (u, rho)>, the integral of
    u^2 + u_x^2 + rho^2; mean_m and mean_rho are the integrals of m = A u
    and rho, both conserved by 2CH.
    """

    t: np.ndarray
    energy: np.ndarray
    min_ux: np.ndarray
    max_abs_rhox: np.ndarray
    mean_m: np.ndarray
    mean_rho: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class RunStatus:
    """Outcome of a run: 'completed' or 'blowup_detected' with time, reason and value.

    `value` is the monitored quantity that crossed its threshold (min u_x,
    max |rho_x|, min chi_x or the labels' tail); a non-finite step carries none.
    """

    kind: str
    t: float | None = None
    reason: str | None = None
    value: float | None = None

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


@dataclass(frozen=True, eq=False)
class EvolveResult:
    """The kept steps of a run, at `times`: read-only views of one history array.

    Row i of u and rho holds the grid values at times[i]; `diagnostics`
    has one entry per kept step.
    """

    grid: Grid
    model: Model
    times: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    diagnostics: DiagnosticsTable
    status: RunStatus

    def state(self, i: int) -> VelocityPair:
        """(u, rho) of kept step i as fields."""
        return _pair(self.grid, (self.u[i], self.rho[i]))


class _Kernel:
    """Weak-form right-hand side of one model on one grid, on Fourier coefficients.

    `kernel(y)` maps the (rows, n//2 + 1) Fourier coefficients y (rfft / n)
    of (u, rho), or of (u, rho, xi, g) with rows=4, to their time
    derivative with two batched FFT calls along the last axis: one irfft
    with no scaling, of (u, rho, u_x) or, on four rows, of (u, rho, u_x,
    xi_x, g_x), and one rfft of the grid values of the quadratic terms,
    each the sum of its pairwise products formed by one small real (terms,
    products) matrix product.  rho's equation is in conservative form,
    (u rho)_x, so no term reads rho_x.  With rows=4 the labels products
    u xi_x and u g_x share that rfft but not the sums, where 0 * NaN would
    carry a non-finite xi into u_t and rho_t.  By linearity each term's
    dealias mask, derivative, inverse Helmholtz factor and the rfft's 1/n
    fold into one multiplier per equation (2DP's rho u_x enters both), and
    `weights` sums the multiplied term spectra into u_t and rho_t, which
    are 0 above the dealias cutoff, so an RK4 sum of band-limited
    coefficients stays band-limited.  The labels rows are not truncated.

    `kernel(y, z)` starts from z, the monitor's `_points(grid, y)`, which
    has the layout of the stage's own irfft (stated at `_points`).

    The kernel makes its stage buffers when it is built, and every stage
    call writes into them.  A stage's result is a new array all the same,
    since `rk4` holds k1..k4 at once, and the operations are those on
    fresh arrays, so the bits are too.  The buffers make a kernel serve
    one call at a time.
    """

    def __init__(self, model: Model, grid: Grid, rows: int):
        self.n = grid.n
        self.rows = rows
        self.ik = ik = grid.ik
        lift = ik / grid.helmholtz_symbol  # Ainv d/dx
        u, rho, ux = 0, 1, 2  # rows of (u, rho, u_x) in every irfft the kernel reads
        # Per term, the (coefficient, left, right) of each product it sums
        # and its multipliers in u_t and rho_t, before the mask and the 1/n.
        if model.has_metric:
            # u_t = -u u_x - lift (u^2 + u_x^2/2 + rho^2/2),  rho_t = -(u rho)_x
            terms = [([(1.0, u, ux)], -1.0, 0.0),
                     ([(1.0, u, u), (0.5, ux, ux), (0.5, rho, rho)], -lift, 0.0),
                     ([(1.0, u, rho)], 0.0, -ik)]
        else:
            # u_t = -u u_x - lift (3u^2/2 - rho^2) - Ainv (rho u_x),
            # rho_t = -(u rho)_x - rho u_x
            terms = [([(1.0, u, ux)], -1.0, 0.0),
                     ([(1.5, u, u), (-1.0, rho, rho)], -lift, 0.0),
                     ([(1.0, rho, ux)], -1.0 / grid.helmholtz_symbol, -1.0),
                     ([(1.0, u, rho)], 0.0, -ik)]
        if not model.two_component:  # rho = 0: drop its products, then the empty terms
            terms = [([(coef, left, right) for coef, left, right in products
                       if rho not in (left, right)], *mult) for products, *mult in terms]
            terms = [term for term in terms if term[0]]
        keep = grid.dealias_mask / grid.n
        self.weights = np.array([[keep * mult[output] for _, *mult in terms]
                                 for output in (0, 1)], complex)  # (output, term, mode)
        columns = {}  # (left, right) -> its column of `sums`
        for products, *_ in terms:
            for _, left, right in products:
                columns.setdefault((left, right), len(columns))
        self.sums = np.zeros((len(terms), len(columns)))  # (term, product) coefficients
        for term, (products, *_) in enumerate(terms):
            for coef, left, right in products:
                self.sums[term, columns[left, right]] = coef
        # The rows of each product's left and right factors.
        self._left_rows, self._right_rows = (np.array(side) for side in zip(*columns))
        for arr in (self.sums, self.weights, self._left_rows, self._right_rows):
            arr.setflags(write=False)
        # The stage buffers: the coefficients of the stage's irfft, whole
        # and as its values and its slopes rows, and its grid values; the
        # two gathered rows of each product; the grid values of the terms
        # (then of u xi_x, u g_x on four rows) and their rfft; and the
        # weighted term spectra.
        count, modes = len(terms), len(ik)
        term_values = np.empty((count + (2 if rows == 4 else 0), self.n))
        spectra = np.empty((len(term_values), modes), complex)
        spec = np.empty((rows + 1, modes), complex)
        self._work = (spec, spec[:2], spec[2:], np.empty((rows + 1, self.n)),
                      np.empty((len(columns), self.n)), np.empty((len(columns), self.n)),
                      term_values, term_values[:count], spectra, spectra[:count],
                      np.empty(self.weights.shape, complex))

    def __call__(self, y: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        (spec, values, slopes, points, left, right, terms, eulerian, spectra, eulerian_spectra,
         weighted) = self._work
        if z is None:  # one irfft of the values of u and rho and the slopes the terms read
            values[...] = y[:2]
            np.multiply(y[0], self.ik, slopes[0])
            if self.rows == 4:
                np.multiply(y[2:], self.ik, slopes[1:])
            z = np.fft.irfft(spec, self.n, out=points, norm="forward")
        # mode="wrap" (the rows are in range) writes into `out` with no
        # buffer, where the default mode makes one.
        z.take(self._left_rows, 0, left, "wrap")
        left *= z.take(self._right_rows, 0, right, "wrap")
        np.matmul(self.sums, left, eulerian)
        if self.rows == 4:
            np.multiply(z[0], z[-2:], terms[-2:])
        np.fft.rfft(terms, out=spectra)
        np.multiply(self.weights, eulerian_spectra, weighted)
        if self.rows == 2:
            return np.add.reduce(weighted, 1)
        out = np.empty_like(y)
        np.add.reduce(weighted, 1, out=out[:2])
        # xi_t = -u - u xi_x and g_t = rho - u g_x, with u and rho from y.
        np.multiply(spectra[-2:], -1.0 / self.n, out[2:])
        out[2] -= y[0]
        out[3] += y[1]
        return out


@lru_cache(maxsize=None)
def _kernel(model: Model, n: int, rows: int) -> _Kernel:
    """The kernel of (model, n-point grid, state rows), built on first use and then shared."""
    return _Kernel(model, Grid(n), rows)


def _points(grid: Grid, y: np.ndarray,
            out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Grid values and slopes of the Fourier coefficients y, pair of rows by pair.

    One irfft with no 1/n scaling (norm="forward") gives each state pair's
    grid values, then its slopes: (u, rho, u_x, rho_x) for y = (u, rho),
    (u, rho, u_x, rho_x, xi, g, xi_x, g_x) for (u, rho, xi, g).  This is
    the step loop's one irfft layout: here and in a stage's own irfft
    (`_Kernel`), (u, rho, u_x[, xi_x, g_x]), u, rho and u_x are rows 0-2
    and xi_x, g_x the last two.  `out`, if given, is (coefficients, grid
    values) to write the stacked coefficients and the result into; else
    both are new arrays, with the same bits.
    """
    spec, values = (np.empty((2 * len(y), len(grid.ik)), complex), None) if out is None else out
    by_pair, pairs = y.reshape(-1, 2, y.shape[-1]), spec.reshape(-1, 2, 2, spec.shape[-1])
    pairs[:, 0] = by_pair
    np.multiply(by_pair, grid.ik, pairs[:, 1])
    return np.fft.irfft(spec, grid.n, out=values, norm="forward")


def _pair(grid: Grid, y: np.ndarray) -> VelocityPair:
    return VelocityPair(PeriodicField(grid, y[0]), PeriodicField(grid, y[1]))


def rhs(model: Model, state: VelocityPair) -> VelocityPair:
    """Time derivative (u_t, rho_t) of the weak Cauchy form."""
    kernel = _kernel(model, state.grid.n, 2)
    y = np.fft.rfft(np.stack((state.u.values, state.rho.values)), norm="forward")
    return _pair(state.grid, np.fft.irfft(kernel(y), kernel.n, norm="forward"))


def rhs_momentum_form(model: Model, state: VelocityPair) -> VelocityPair:
    """(m_t, rho_t) in momentum variables m = A u.

    Cross-check oracle only: A applied to the u-component of `rhs` must
    reproduce the m-component returned here.
    """
    u, rho = state.u, state.rho
    m = helmholtz(u)
    ux = derivative(u)
    mx = derivative(m)
    rhox = derivative(rho)
    if model.has_metric:
        m_t = -dealiased_product(u, mx) - 2.0 * dealiased_product(m, ux)
        if model.two_component:
            m_t = m_t - dealiased_product(rho, rhox)
        rho_t = (-derivative(dealiased_product(rho, u)) if model.two_component
                 else zero_field(u.grid))
    else:
        m_t = -3.0 * dealiased_product(m, ux) - dealiased_product(mx, u)
        if model.two_component:
            m_t = (m_t - dealiased_product(rho, ux)
                   + 2.0 * dealiased_product(rho, rhox))
        rho_t = (-2.0 * dealiased_product(rho, ux) - dealiased_product(rhox, u)
                 if model.two_component else zero_field(u.grid))
    return VelocityPair(m_t, rho_t)


def step_rk4(model: Model, y: np.ndarray, dt: float,
             points: np.ndarray | None = None) -> np.ndarray:
    """One RK4 step of the (rows, n//2 + 1) Fourier coefficients y: a new array.

    y is (u, rho), or the flow map's (u, rho, xi, g), stepped by the
    kernel of its rows.  The coefficients are the rfft over n, so
    `np.fft.irfft(y, n, norm="forward")` gives the grid values.
    Band-limited coefficients stay band-limited.  A non-finite coefficient
    is not an error here: it makes the result non-finite, and the step
    loop's monitor stops the run on it.  `points` may pass the monitor's
    irfft `_points(grid, y)` of y, and stage 1 starts from it: the step
    then makes 7 FFT calls, not 8, and gives the same bits.  `evolve` and
    `evolve_flowmap` step through this public function, which the
    benchmark's tracer counts, stage 1 included, as the stepping layer.
    """
    kernel = _kernel(model, 2 * (y.shape[-1] - 1), len(y))
    return rk4(kernel, y, dt, None if points is None else kernel(y, points))


def _initial_state(config: EvolutionConfig, initial: VelocityPair) -> np.ndarray:
    """Validate initial data against the model; return its (2, n//2 + 1) coefficients, dealiased.

    Raises ValueError unless the grid values and slopes the monitor reads
    at t=0 are finite, which they are not when a coefficient is (see
    `_integrate`): NaN or infinite data, or data so large that their rfft
    or their slopes overflow.
    """
    if not config.model.two_component and np.max(np.abs(initial.rho.values)) != 0.0:
        raise ValueError(f"model {config.model.value} requires rho = 0 initial data")
    grid = initial.grid
    with np.errstate(over="ignore", invalid="ignore"):
        hats = np.stack((initial.u.hat, initial.rho.hat))
        y = np.where(grid.dealias_mask, hats, 0.0) / grid.n
        finite = np.isfinite(_points(grid, y)).all()
    if not finite:
        raise ValueError("initial data must have finite grid values, coefficients and slopes")
    return y


def _max_abs(low: float, high: float) -> float:
    """max |x| of a row from its minimum and maximum, with no |x| temporary.

    On a finite row it has the bits of np.max(np.abs(row)): the abs turns
    the -0.0 that max(-0.0, 0.0) may give into 0.0.
    """
    return abs(max(high, -low))


def _threshold_reason(config: EvolutionConfig, lows: list[float],
                      highs: list[float]) -> tuple[str, float] | None:
    """(criterion, value) of the threshold crossed, or None.

    lows and highs are the minima and maxima of the slopes (u_x, rho_x, ...).
    """
    if lows[0] < config.blowup_slope_threshold:
        return "min_ux", lows[0]
    max_rhox = _max_abs(lows[1], highs[1])
    if max_rhox > config.blowup_rhox_threshold:
        return "max_abs_rhox", max_rhox
    return None


def _history_shape(config: EvolutionConfig, rows: int, n: int) -> tuple[int, int, int]:
    """Shape of `_integrate`'s history for `rows` state rows on an n-point grid.

    The grid values of every row, at the most steps a run keeps: every
    `diagnostics_stride`-th step from 0 and the last.
    """
    return rows, -(-config.n_steps // config.diagnostics_stride) + 1, n


def _integrate(result_type, config: EvolutionConfig, grid: Grid, y: np.ndarray,
               check=lambda y, lows: None, finish=lambda history, status: None):
    """Step the coefficients y, (u, rho) in rows 0-1, to t_end; a `result_type` views the kept steps.

    Each step is `step_rk4(config.model, y, config.dt, z)`, where z is the
    monitor's irfft of y, from which it computes stage 1.  After every
    step, and at t=0, the monitor turns every row of y into grid
    values and slopes in one irfft, `_points(grid, y)` (its layout is stated
    there), and reads the minimum and maximum of each slope row, `lows` and
    `highs` in the order (u_x, rho_x, ...), in one pass each.  A NaN minimum
    marks a non-finite step (ik times an infinite or NaN coefficient is NaN,
    also at modes 0 and n/2, and a NaN slope coefficient leaves its irfft
    row with a NaN): it stops the run unkept, before any other test.  The
    start is finite, as `_initial_state` checks, so only a step can be
    non-finite.  Then the run stops at `check(y, lows)`, which returns
    (criterion, value) or None, else at a threshold.  Kept steps
    (every `config.diagnostics_stride`-th, the last, a blow-up) fill one
    real (len(y), kept steps, n) history array with the grid values of the
    rows of y, and one (5, kept steps) array with their diagnostics from the
    same irfft and reductions: the energy, min u_x, max |rho_x|, and the
    means of u and rho.  The irfft and its stacked coefficients go into two
    arrays made once per run, so z is written over by the next step's
    monitor; its value and slope rows and the history are read through
    views, made with them, by state pair.  Overflow and invalid operations
    raise no warning: the monitor reports a step they make non-finite, and
    an energy that overflows on finite data is inf.  `finish(history,
    status)` may then rewrite the further rows in place before they are
    frozen.  `result_type` is `EvolveResult` or a subclass whose fields
    after `status` view the further rows.
    """
    n_steps, stride, n = config.n_steps, config.diagnostics_stride, grid.n
    history = np.empty(_history_shape(config, len(y), n))
    columns = np.empty((5, history.shape[1]))
    monitor = np.empty((2 * len(y), y.shape[-1]), complex), np.empty((2 * len(y), n))
    z = monitor[1]
    values, slopes = np.moveaxis(z.reshape(-1, 2, 2, n), 1, 0)
    history_pairs = history.reshape(-1, 2, history.shape[1], n)
    kept = []
    status = RunStatus("completed")
    # ik times an infinite coefficient is the NaN the monitor looks for; a
    # step of huge finite data overflows on the way to it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            t = i * config.dt
            if i > 0:
                y = step_rk4(config.model, y, config.dt, z)
            _points(grid, y, out=monitor)
            lows, highs = slopes.min(-1).ravel().tolist(), slopes.max(-1).ravel().tolist()
            if any(map(math.isnan, lows)):
                status = RunStatus("blowup_detected", t=t, reason="non_finite")
                break
            tripped = check(y, lows) or _threshold_reason(config, lows, highs)
            if i % stride == 0 or i == n_steps or tripped is not None:
                u, rho, ux = z[:3]
                history_pairs[:, :, len(kept)] = values
                # Means as sum / n, the bits of np.mean at half its cost; the
                # integral of A u is the mean of u: A's multiplier at mode 0 is 1.
                columns[:, len(kept)] = ((u * u + ux * ux + rho * rho).sum() / n, lows[0],
                                         _max_abs(lows[1], highs[1]), u.sum() / n, rho.sum() / n)
                kept.append(i)
            if tripped is not None:
                status = RunStatus("blowup_detected", t=t, reason=tripped[0], value=tripped[1])
                break
    times = np.array(kept) * config.dt
    history, columns = history[:, :len(kept)], columns[:, :len(kept)]
    finish(history, status)
    for arr in (times, history, columns):
        arr.setflags(write=False)
    u, rho, *more = history
    return result_type(grid, config.model, times, u, rho, DiagnosticsTable(times, *columns),
                       status, *more)


def evolve(config: EvolutionConfig, initial: VelocityPair) -> EvolveResult:
    """Integrate to t_end, keeping the grid values of every stride-th step.

    Stops early with status blowup_detected when a threshold is crossed
    (checked at t=0 and after every step) or a step goes non-finite; the
    status carries the first offending time, the criterion that fired and
    the value that crossed its threshold.  Initial data whose grid values,
    coefficients or slopes are not finite raise ValueError.
    """
    return _integrate(EvolveResult, config, initial.grid, _initial_state(config, initial))
