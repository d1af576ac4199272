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
(2, n//2 + 1) array.  The right-hand side is a private kernel per
(model, grid) that maps spectra to spectra with two batched FFT calls: one
irfft of (u, rho, u_x, rho_x) and one rfft of the pairwise products the
quadratic terms are built from.  Each product's dealias mask, d/dx and
inverse Helmholtz factor are folded into one multiplier, so the stages
are band-limited, dealiasing needs no FFT pair, and an RK4 step costs 8
FFT calls.  `rhs` is the `VelocityPair` view of the same kernel.
`evolve` and `evolve_flowmap` share one step loop, `_integrate`, with one
step (`_advance`) and one monitor, whose single irfft per step gives the
grid values and slopes of the state: the slopes feed the thresholds, and
kept steps store the values (for `evolve` also the slopes its diagnostics
read), so the history is real and `evolve` builds fields for kept rows
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from chdp.connection import Model, VelocityPair, metric
from chdp.spectral import (
    Grid,
    PeriodicField,
    constant_field,
    dealias,
    dealiased_product,
    derivative,
    helmholtz,
    inner_l2,
    zero_field,
)

__all__ = [
    "EvolutionConfig",
    "DiagnosticsRecord",
    "RunStatus",
    "EvolveResult",
    "BlowupError",
    "rk4",
    "step_count",
    "rhs",
    "rhs_momentum_form",
    "step_rk4",
    "evolve",
    "conserved_energy",
    "mean_invariants",
]


class BlowupError(RuntimeError):
    """Non-finite values appeared during a time step."""


def rk4(f, y, dt: float):
    """One classical RK4 step of y' = f(y), for any y with + and scalar *."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_count(dt: float, t_end: float) -> int:
    """Steps of size dt to t_end: finite 0 < dt < t_end, t_end/dt whole to 1e-9."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (np.isfinite(t_end) and t_end > dt):
        raise ValueError(f"t_end must be finite and exceed dt={dt!r}, got {t_end!r}")
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
    grid_n: int
    blowup_slope_threshold: float = -1e6
    blowup_rhox_threshold: float = 1e6
    diagnostics_stride: int = 10

    def __post_init__(self):
        step_count(self.dt, self.t_end)
        if not np.isfinite(self.blowup_slope_threshold) or self.blowup_slope_threshold >= 0:
            raise ValueError("slope threshold must be finite and negative")
        if not np.isfinite(self.blowup_rhox_threshold) or self.blowup_rhox_threshold <= 0:
            raise ValueError("rho_x threshold must be finite and positive")
        if self.diagnostics_stride < 1:
            raise ValueError("diagnostics stride must be >= 1")
        Grid(self.grid_n)  # validates evenness / minimum size

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.t_end)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    energy: float
    min_ux: float
    max_abs_rhox: float
    mean_m: float
    mean_rho: float


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


@dataclass
class EvolveResult:
    times: list[float]
    snapshots: list[VelocityPair]
    diagnostics: list[DiagnosticsRecord]
    status: RunStatus = field(default_factory=lambda: RunStatus("completed"))

    @property
    def final(self) -> VelocityPair:
        return self.snapshots[-1]


class _Kernel:
    """Weak-form right-hand side of one model on one grid, on rfft spectra.

    `kernel(y)` maps the (2, n//2 + 1) spectra of (u, rho) to those of
    (u_t, rho_t) with two batched FFT calls along the last axis: one irfft
    of (u, rho, u_x, rho_x) (`points`) and one rfft of the pairwise
    products the quadratic terms are built from (`products`).  By
    linearity each product's coefficient, and its term's dealias mask,
    derivative and inverse Helmholtz factor, fold into one multiplier per
    output row (`combine`).  The output is 0 above the dealias cutoff, so
    an RK4 sum of band-limited spectra stays band-limited.

    `mult` holds the per-term multipliers, u_t's terms then rho_t's (the
    comments list them with `|` between); the curvature kernel reads the
    2CH ones.
    """

    def __init__(self, model: Model, grid: Grid):
        self.n = grid.n
        self.ik = 1j * grid.omega
        self.ik[-1] = 0.0  # as `derivative`: the Nyquist mode is dropped
        keep = (grid.modes <= grid.dealias_cutoff).astype(float)
        lift = self.ik / (1.0 + grid.omega**2)  # Ainv d/dx
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
            mult = [keep, keep * lift, keep / (1.0 + grid.omega**2), keep]
            terms = [[(1.0, 0, 2)], [(1.5, 0, 0), (-1.0, 1, 1)], [(1.0, 1, 2)],
                     [(1.0, 0, 3), (2.0, 1, 2)]]
            split = 3 if model is Model.DP2 else 2
        rows = split + (1 if model.two_component else 0)
        self.mult = -np.array(mult[:rows])
        weights = {}  # (left, right) -> its multipliers into (u_t, rho_t)
        for term, products in enumerate(terms[:rows]):
            for coef, left, right in products:
                if model.two_component or left != 1:  # rho = 0 adds nothing
                    w = weights.setdefault((left, right), np.zeros((2, len(keep)), complex))
                    w[int(term >= split)] += coef * self.mult[term]
        self.left, self.right = np.array(list(weights)).T
        self.weights = np.stack(list(weights.values()), axis=1)  # (output, product, mode)
        # Multiplies stacked spectra to (values, slopes): see `points`.
        self.value_slope = np.stack((np.ones_like(self.ik), self.ik))[:, None]
        for arr in (self.ik, self.mult, self.weights, self.value_slope):
            arr.setflags(write=False)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        """d/dx of every row of the grid values y, as `derivative` does for one field."""
        return np.fft.irfft(np.fft.rfft(y) * self.ik, self.n)

    def points(self, y: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
        """Grid values of every row of the spectra y, then their slopes, then the rows of extra.

        One irfft: for y = (u, rho) it gives (u, rho, u_x, rho_x).
        """
        spectra = (y * self.value_slope).reshape(-1, y.shape[-1])
        if extra is not None:
            spectra = np.concatenate((spectra, extra))
        return np.fft.irfft(spectra, self.n)

    def products(self, z: np.ndarray) -> np.ndarray:
        """The pairwise products of the rows of z = (u, rho, u_x, rho_x, ...)."""
        return z.take(self.left, 0) * z.take(self.right, 0)

    def combine(self, spectra: np.ndarray) -> np.ndarray:
        """(u_t, rho_t) spectra from the spectra of `products`."""
        return (self.weights * spectra).sum(axis=1)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.combine(np.fft.rfft(self.products(self.points(y))))


@lru_cache(maxsize=None)
def _kernel(model: Model, n: int) -> _Kernel:
    """The kernel of (model, n-point grid), built on first use and then shared."""
    return _Kernel(model, Grid(n))


def _stack(state: VelocityPair) -> np.ndarray:
    return np.stack((state.u.values, state.rho.values))


def _pair(grid: Grid, y: np.ndarray) -> VelocityPair:
    return VelocityPair(PeriodicField(grid, y[0]), PeriodicField(grid, y[1]))


def rhs(model: Model, state: VelocityPair) -> VelocityPair:
    """Time derivative (u_t, rho_t) of the weak Cauchy form."""
    kernel = _kernel(model, state.grid.n)
    return _pair(state.grid, np.fft.irfft(kernel(np.fft.rfft(_stack(state))), kernel.n))


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


def step_rk4(model: Model, state: VelocityPair | np.ndarray, dt: float,
             t: float = 0.0) -> VelocityPair | np.ndarray:
    """One dealiased RK4 step from time t; raises BlowupError if non-finite.

    `state` is a VelocityPair, or the (2, n//2 + 1) rfft spectra of
    (u, rho) that `evolve` steps without building fields; the result takes
    the same form.  Band-limited spectra stay band-limited; a
    VelocityPair's result is truncated by the 2/3 rule.  `evolve` steps
    its spectra through this public function so that the benchmark's
    tracer counts it as the stepping layer.
    """
    if not isinstance(state, VelocityPair):
        return _advance(_kernel(model, 2 * (state.shape[-1] - 1)), state, dt, t)
    y = _advance(_kernel(model, state.grid.n), np.fft.rfft(_stack(state)), dt, t)
    y[:, state.grid.dealias_cutoff + 1:] = 0.0
    return _pair(state.grid, np.fft.irfft(y, state.grid.n))


def conserved_energy(state: VelocityPair) -> float:
    """Metric energy <(u, rho), (u, rho)>; constant along 2CH/CH solutions."""
    return metric(state, state)


def mean_invariants(state: VelocityPair) -> tuple[float, float]:
    """Integrals of m = A u and rho over the circle.

    Both are conserved by 2CH: rho_t is a perfect x-derivative, and
    m_t = -d/dx(u m + u^2/2 - u_x^2/2 + rho^2/2).
    """
    one = constant_field(state.grid, 1.0)
    return inner_l2(helmholtz(state.u), one), inner_l2(state.rho, one)


def _initial_state(config: EvolutionConfig, initial: VelocityPair) -> VelocityPair:
    """Validate initial data against the config; return it dealiased."""
    if initial.grid.n != config.grid_n:
        raise ValueError(f"initial data on n={initial.grid.n}, config wants {config.grid_n}")
    if not config.model.two_component and np.max(np.abs(initial.rho.values)) != 0.0:
        raise ValueError(f"model {config.model.value} requires rho = 0 initial data")
    return VelocityPair(dealias(initial.u), dealias(initial.rho))


def _advance(f, y: np.ndarray, dt: float, t: float) -> np.ndarray:
    """One RK4 step of the spectra y' = f(y) from time t.

    Raises BlowupError if any coefficient is non-finite: a non-finite
    value at one grid point spreads through the stage's rfft to every mode.
    """
    y = rk4(f, y, dt)
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


def _integrate(config: EvolutionConfig, kernel: _Kernel, y: np.ndarray, step, stride: int,
               degenerate=lambda slopes: None, keep_slopes: bool = False):
    """Step the spectra y, (u, rho) in rows 0-1, to t_end; return kept steps, history, status.

    `step(y, t)` is `_advance` from t.  A non-finite step stops the run
    unkept; else the monitor turns every row of y into grid values and
    slopes in one irfft (also at t=0) and stops at `degenerate(slopes)`,
    which returns (criterion, value) or None, else at a threshold.  Kept
    steps (every `stride`-th, the last, a blow-up) fill one real history
    array with the grid values of the rows of y, then, with keep_slopes,
    their slopes.
    """
    n_steps = config.n_steps
    rows = len(y) * (2 if keep_slopes else 1)
    history = np.empty((rows, -(-n_steps // stride) + 1, kernel.n))
    kept = []
    status = RunStatus("completed")
    for i in range(n_steps + 1):
        t = i * config.dt
        if i > 0:
            try:
                y = step(y, t - config.dt)
            except BlowupError:
                status = RunStatus("blowup_detected", t=t, reason="non_finite")
                break
        z = kernel.points(y)
        slopes = z[len(y):]
        tripped = degenerate(slopes) or _threshold_reason(config, slopes)
        if i % stride == 0 or i == n_steps or tripped is not None:
            history[:, len(kept)] = z[:rows]
            kept.append(i)
        if tripped is not None:
            status = RunStatus("blowup_detected", t=t, reason=tripped[0], value=tripped[1])
            break
    return kept, history[:, :len(kept)], status


def evolve(config: EvolutionConfig, initial: VelocityPair) -> EvolveResult:
    """Integrate to t_end, recording snapshots/diagnostics every stride.

    Stops early with status blowup_detected when a threshold is crossed
    (checked at t=0 and after every step) or a step goes non-finite; the
    status carries the first offending time, the criterion that fired and
    the value that crossed its threshold.
    """
    start = _initial_state(config, initial)
    kernel = _kernel(config.model, config.grid_n)
    # Steps go through the public `step_rk4`, the span perfbench's tracer
    # counts as the stepping layer.
    kept, history, status = _integrate(
        config, kernel, np.stack((start.u.hat, start.rho.hat)),
        lambda y, t: step_rk4(config.model, y, config.dt, t), config.diagnostics_stride,
        keep_slopes=True)
    history.setflags(write=False)  # the snapshots view it without a copy
    times = [i * config.dt for i in kept]
    # Row 0 is `start`, whose fields keep the spectra `dealias` gave them.
    snapshots = [start] + [_pair(start.grid, history[:2, j]) for j in range(1, len(kept))]
    diagnostics = [DiagnosticsRecord(t, conserved_energy(s), float(ux.min()),
                                     float(np.max(np.abs(rhox))), *mean_invariants(s))
                   for t, s, ux, rhox in zip(times, snapshots, *history[2:])]
    return EvolveResult(times, snapshots, diagnostics, status)
