"""Eulerian time integration of the CH/DP family.

The weak Cauchy forms put every nonlinearity under the inverse Helmholtz
operator:

    2CH:  u_t = -u u_x - Ainv d/dx (u^2 + u_x^2/2 + rho^2/2)
          rho_t = -u rho_x - rho u_x
    2DP:  u_t = -u u_x - Ainv ((3 u^2/2 - rho^2)_x + rho u_x)
          rho_t = -u rho_x - 2 rho u_x

CH and DP are the rho = 0 reductions.  Time stepping is fixed-step
classical RK4 (`rk4`, shared by every integrator) with 2/3-rule
dealiasing; blow-up is detected by non-finite values and by thresholds on
min u_x and max |rho_x|, checked at t=0 and after every step.

The integrator state is the rfft spectra of (u, rho), one complex
(2, n//2 + 1) array (`_initial_state`): no field is built until the
result.  The right-hand side is a private kernel per (model, grid, state
rows) that maps spectra to spectra with two batched FFT calls: one irfft
of (u, rho, u_x, rho_x) and one rfft of the quadratic terms, each summed
from its pairwise products in grid space by one small real matrix
product (3 rows on 2CH, 4 on 2DP).  Each term's dealias mask, d/dx and
inverse Helmholtz factor are folded into one multiplier, so the stages
are band-limited and dealiasing needs no FFT pair.  With four state rows
the same kernel also transports the flow map's labels (`chdp.flowmap`).
`rhs` is the `VelocityPair` view of the two-row kernel.
`evolve` and `evolve_flowmap` share one step loop, `_integrate`, with one
step (`_advance`), one monitor and one keep rule: the rows of every
`diagnostics_stride`-th step, the last step and a blow-up step.  The
monitor's single irfft per step (`points`) gives the grid values and
slopes of every state row: the slopes feed the thresholds, kept steps
store all of them in one real history array, and the next step's stage 1
starts from them, since the kernel reads a stage's rows from it.  An
Eulerian step thus costs 8 FFT calls, monitor included, and so does a
flow-map step, whose stages transport the labels map on the grid
(`chdp.flowmap`).  Both integrators
return a result that views that array (`EvolveResult`, extended by the
flow map's `FlowmapResult`) with its diagnostics, read in one pass as the
columns of a `DiagnosticsTable`.  `step_rk4` is `_advance` on the Eulerian spectra;
`evolve` steps through it.
"""

from __future__ import annotations

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
    "BlowupError",
    "rk4",
    "step_count",
    "rhs",
    "rhs_momentum_form",
    "step_rk4",
    "evolve",
]


class BlowupError(RuntimeError):
    """Non-finite values appeared during a time step."""


def rk4(f, y, dt: float, k1=None):
    """One classical RK4 step of y' = f(y), for any y with + and scalar *.

    k1, if given, is f(y), computed by the caller.
    """
    k1 = f(y) if k1 is None else k1
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    max |rho_x| or min phi_x); a non-finite step carries none.
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

    Row i of u, rho, u_x and rho_x holds the grid values at times[i];
    `diagnostics` has one entry per kept step.
    """

    grid: Grid
    model: Model
    times: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    u_x: np.ndarray
    rho_x: np.ndarray
    diagnostics: DiagnosticsTable
    status: RunStatus

    def state(self, i: int) -> VelocityPair:
        """(u, rho) of kept step i as fields."""
        return _pair(self.grid, (self.u[i], self.rho[i]))


class _Kernel:
    """Weak-form right-hand side of one model on one grid, on rfft spectra.

    `kernel(y)` maps the (rows, n//2 + 1) spectra y of (u, rho), or of
    (u, rho, xi, g) with rows=4, to their time derivative with two batched
    FFT calls along the last axis: one irfft, `points(y, 2)`, and one rfft
    of the grid values of the quadratic terms, each the sum of its
    pairwise products formed by one small real (terms, products) matrix
    product.  With rows=4 the labels products u xi_x and u g_x share that
    rfft but not the sums, where 0 * NaN would carry a non-finite xi into
    u_t and rho_t.  By linearity each term's dealias mask, derivative and
    inverse Helmholtz factor fold into one multiplier (`mult`), and
    `weights` sums the multiplied term spectra into u_t and rho_t, which
    are 0 above the dealias cutoff, so an RK4 sum of band-limited spectra
    stays band-limited.  The labels rows are not truncated.

    `kernel(y, z)` starts from z, the monitor's `points(y)` or any irfft in
    the layout of `points`: the values of u and rho are z[0] and z[1], and
    the slope of state row r is z[r - rows], counted from the back.

    `mult` holds the per-term multipliers, u_t's terms then rho_t's (the
    comments list them with `|` between); the curvature kernel reads the
    2CH ones.
    """

    def __init__(self, model: Model, grid: Grid, rows: int):
        self.n = grid.n
        self.rows = rows
        self.ik = grid.ik
        keep = grid.dealias_mask
        lift = self.ik / grid.helmholtz_symbol  # Ainv d/dx
        # Per term, (coefficient, left, right) of each product it sums, with
        # left and right rows of (u, rho, u_x, rho_x).
        if model in (Model.CH, Model.CH2):
            # u u_x, q = u^2 + u_x^2/2 (+ rho^2/2) | u rho_x + rho u_x
            mult = [keep, keep * lift, keep]
            terms = [[(1.0, 0, 2)], [(1.0, 0, 0), (0.5, 2, 2), (0.5, 1, 1)],
                     [(1.0, 0, 3), (1.0, 1, 2)]]
            split = 2
        else:
            # u u_x, 3u^2/2 (- rho^2), rho u_x | u rho_x + 2 rho u_x
            mult = [keep, keep * lift, keep / grid.helmholtz_symbol, keep]
            terms = [[(1.0, 0, 2)], [(1.5, 0, 0), (-1.0, 1, 1)], [(1.0, 1, 2)],
                     [(1.0, 0, 3), (2.0, 1, 2)]]
            split = 3 if model is Model.DP2 else 2
        count = split + (1 if model.two_component else 0)
        self.mult = -np.array(mult[:count])
        columns = {}  # (left, right) -> its column of `sums`
        for products in terms[:count]:
            for _, left, right in products:
                if model.two_component or left != 1:  # rho = 0 adds nothing
                    columns.setdefault((left, right), len(columns))
        # Rows of z: u_x and rho_x, the slopes of state rows 0 and 1, from the back.
        self.left, self.right = (np.where(i >= 2, i - 2 - rows, i)
                                 for i in np.array(list(columns)).T)
        self.sums = np.zeros((count, len(columns)))  # (term, product) coefficients
        for term, products in enumerate(terms[:count]):
            for coef, left, right in products:
                if (left, right) in columns:
                    self.sums[term, columns[left, right]] = coef
        self.weights = np.zeros((2, count, len(keep)), complex)  # (output, term, mode)
        self.weights[0, :split] = self.mult[:split]
        self.weights[1, split:] = self.mult[split:]
        for arr in (self.mult, self.left, self.right, self.sums, self.weights):
            arr.setflags(write=False)

    def points(self, y: np.ndarray, values: int | None = None) -> np.ndarray:
        """Grid values of the first `values` rows of the spectra y (default all), then all slopes.

        One irfft: for y = (u, rho) it gives (u, rho, u_x, rho_x), and
        `points(y, 2)` of (u, rho, xi, g) gives (u, rho, u_x, rho_x, xi_x,
        g_x), the rows a stage reads.
        """
        return np.fft.irfft(np.concatenate((y[:values], y * self.ik)), self.n)

    def __call__(self, y: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
        z = self.points(y, 2) if z is None else z
        products = z.take(self.left, 0)
        products *= z.take(self.right, 0)
        if self.rows == 2:
            return (self.weights * np.fft.rfft(np.matmul(self.sums, products))).sum(axis=1)
        terms = np.empty((len(self.sums) + 2, self.n))
        np.matmul(self.sums, products, out=terms[:-2])
        np.multiply(z[0], z[-2:], out=terms[-2:])
        spectra = np.fft.rfft(terms)
        out = np.empty_like(y)
        out[:2] = (self.weights * spectra[:-2]).sum(axis=1)
        # xi_t = -u - u xi_x and g_t = rho - u g_x, with -u and rho from y.
        np.negative(y[0], out=out[2])
        np.subtract(out[2], spectra[-2], out=out[2])
        np.subtract(y[1], spectra[-1], out=out[3])
        return out


@lru_cache(maxsize=None)
def _kernel(model: Model, n: int, rows: int = 2) -> _Kernel:
    """The kernel of (model, n-point grid, state rows), built on first use and then shared."""
    return _Kernel(model, Grid(n), rows)


def _pair(grid: Grid, y: np.ndarray) -> VelocityPair:
    return VelocityPair(PeriodicField(grid, y[0]), PeriodicField(grid, y[1]))


def rhs(model: Model, state: VelocityPair) -> VelocityPair:
    """Time derivative (u_t, rho_t) of the weak Cauchy form."""
    kernel = _kernel(model, state.grid.n)
    y = np.fft.rfft(np.stack((state.u.values, state.rho.values)))
    return _pair(state.grid, np.fft.irfft(kernel(y), kernel.n))


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
    if model in (Model.CH, Model.CH2):
        m_t = -dealiased_product(u, mx) - 2.0 * dealiased_product(m, ux)
        if model is Model.CH2:
            m_t = m_t - dealiased_product(rho, rhox)
        rho_t = (-derivative(dealiased_product(rho, u)) if model is Model.CH2
                 else zero_field(u.grid))
    else:
        m_t = -3.0 * dealiased_product(m, ux) - dealiased_product(mx, u)
        if model is Model.DP2:
            m_t = (m_t - dealiased_product(rho, ux)
                   + 2.0 * dealiased_product(rho, rhox))
        rho_t = (-2.0 * dealiased_product(rho, ux) - dealiased_product(rhox, u)
                 if model is Model.DP2 else zero_field(u.grid))
    return VelocityPair(m_t, rho_t)


def step_rk4(model: Model, y: np.ndarray, dt: float, t: float = 0.0,
             points: np.ndarray | None = None) -> np.ndarray:
    """One RK4 step of the (2, n//2 + 1) rfft spectra y of (u, rho) from time t.

    Raises BlowupError if a coefficient goes non-finite.  Band-limited
    spectra stay band-limited.  `points` may pass the grid values and
    slopes (u, rho, u_x, rho_x) of y, the irfft the monitor made, and
    stage 1 starts from them: the step then makes 7 FFT calls, not 8, and
    gives the same bits.  `evolve` steps its spectra through this public
    function so that the benchmark's tracer counts it, stage 1 included,
    as the stepping layer.
    """
    kernel = _kernel(model, 2 * (y.shape[-1] - 1))
    return _advance(kernel, y, dt, t, None if points is None else kernel(y, points))


def _initial_state(config: EvolutionConfig, initial: VelocityPair) -> np.ndarray:
    """Validate initial data against the model; return its (2, n//2 + 1) spectra, dealiased."""
    if not config.model.two_component and np.max(np.abs(initial.rho.values)) != 0.0:
        raise ValueError(f"model {config.model.value} requires rho = 0 initial data")
    return np.where(initial.grid.dealias_mask, np.stack((initial.u.hat, initial.rho.hat)), 0.0)


def _advance(f, y: np.ndarray, dt: float, t: float, k1: np.ndarray | None = None) -> np.ndarray:
    """One RK4 step of the spectra y' = f(y) from time t; k1, if given, is f(y).

    Raises BlowupError if any coefficient is non-finite: a non-finite
    value at one grid point spreads through the stage's rfft to every mode.
    """
    y = rk4(f, y, dt, k1)
    if not np.isfinite(y).all():
        raise BlowupError(f"non-finite values at t={t + dt:.6g}")
    return y


def _threshold_reason(config: EvolutionConfig,
                      slopes: np.ndarray) -> tuple[str, float] | None:
    """(criterion, value) of the threshold crossed by slopes = (u_x, rho_x, ...), or None."""
    min_ux = float(slopes[0].min())
    if min_ux < config.blowup_slope_threshold:
        return "min_ux", min_ux
    max_rhox = float(np.max(np.abs(slopes[1])))
    if max_rhox > config.blowup_rhox_threshold:
        return "max_abs_rhox", max_rhox
    return None


def _integrate(result_type, config: EvolutionConfig, grid: Grid, y: np.ndarray, step,
               check=lambda y, slopes: None, finish=lambda history: None):
    """Step the spectra y, (u, rho) in rows 0-1, to t_end; a `result_type` views the kept steps.

    `step(y, t, z)` is `_advance` from t, where z is the monitor's irfft
    of y, from which it computes stage 1.  A non-finite step stops the run
    unkept; else the monitor turns every row of y into grid values and
    slopes in one irfft (also at t=0) and stops at `check(y, slopes)`,
    which returns (criterion, value) or None, else at a threshold.  Kept
    steps (every `config.diagnostics_stride`-th, the last, a blow-up)
    fill one real (2 len(y), kept steps, n) history array with that
    irfft: the grid values of the rows of y, then their slopes.
    `finish(history)` may then rewrite the further rows in place before
    they are frozen.  `result_type` is `EvolveResult` or a subclass whose
    fields after `status` view the further rows, their values then their
    slopes.
    """
    kernel = _kernel(config.model, grid.n)
    n_steps, stride = config.n_steps, config.diagnostics_stride
    history = np.empty((2 * len(y), -(-n_steps // stride) + 1, grid.n))
    kept = []
    status = RunStatus("completed")
    for i in range(n_steps + 1):
        t = i * config.dt
        if i > 0:
            try:
                y = step(y, t - config.dt, z)
            except BlowupError:
                status = RunStatus("blowup_detected", t=t, reason="non_finite")
                break
        z = kernel.points(y)
        slopes = z[len(y):]
        tripped = check(y, slopes) or _threshold_reason(config, slopes)
        if i % stride == 0 or i == n_steps or tripped is not None:
            history[:, len(kept)] = z
            kept.append(i)
        if tripped is not None:
            status = RunStatus("blowup_detected", t=t, reason=tripped[0], value=tripped[1])
            break
    times = np.array(kept) * config.dt
    history = history[:, :len(kept)]
    finish(history)
    for arr in (times, history):
        arr.setflags(write=False)
    (u, rho, *more), (ux, rhox, *more_x) = np.split(history, 2)
    # The integral of A u is the mean of u: A's multiplier at mode 0 is 1.
    diagnostics = DiagnosticsTable(times, np.mean(u * u + ux * ux + rho * rho, axis=1),
                                   ux.min(axis=1), np.abs(rhox).max(axis=1),
                                   u.mean(axis=1), rho.mean(axis=1))
    return result_type(grid, config.model, times, u, rho, ux, rhox, diagnostics, status,
                       *more, *more_x)


def evolve(config: EvolutionConfig, initial: VelocityPair) -> EvolveResult:
    """Integrate to t_end, keeping the grid values and slopes of every stride-th step.

    Stops early with status blowup_detected when a threshold is crossed
    (checked at t=0 and after every step) or a step goes non-finite; the
    status carries the first offending time, the criterion that fired and
    the value that crossed its threshold.
    """
    # Steps go through the public `step_rk4`, the span perfbench's tracer
    # counts as the stepping layer.
    return _integrate(EvolveResult, config, initial.grid, _initial_state(config, initial),
                      lambda y, t, z: step_rk4(config.model, y, config.dt, t, z))
