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

The integrator state is one stacked (2, n) array holding (u, rho), and the
right-hand side is a private kernel per (model, grid) that makes four
batched FFT calls along the last axis: rfft of (u, rho), irfft of
(u_x, rho_x), rfft of the stacked quadratic terms, irfft of (u_t, rho_t).
The dealias mask, d/dx and the inverse Helmholtz factor of each term are
folded into one multiplier, so an RK4 step costs 18 FFT calls.  `rhs` is
the `VelocityPair` view of the same kernel.
`evolve` and `evolve_flowmap` share one step loop, `_integrate`, with one
step (`_advance`) and one monitor; `evolve` builds fields for kept rows only.
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
    """Outcome of a run: 'completed' or 'blowup_detected' with time/reason."""

    kind: str
    t: float | None = None
    reason: str | None = None

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
    """Weak-form right-hand side of one model on one grid, on stacked arrays.

    `kernel(y)` maps a (2, n) array holding (u, rho) to (u_t, rho_t) with
    four batched FFT calls along the last axis: one rfft of (u, rho), one
    irfft for (u_x, rho_x), one rfft of the stacked quadratic terms and one
    irfft of the two combined spectra.  By linearity each term's dealias
    mask, derivative and inverse Helmholtz factor fold into one multiplier;
    the first `split` terms sum to u_t and the rest to rho_t.
    """

    def __init__(self, model: Model, grid: Grid):
        self.model = model
        self.n = grid.n
        self.cutoff = grid.dealias_cutoff
        self.ik = 1j * grid.omega
        self.ik[-1] = 0.0  # as `derivative`: the Nyquist mode is dropped
        keep = (grid.modes <= grid.dealias_cutoff).astype(float)
        lift = self.ik / (1.0 + grid.omega**2)  # Ainv d/dx
        if model in (Model.CH, Model.CH2):
            # u u_x, q = u^2 + u_x^2/2 (+ rho^2/2) | u rho_x + rho u_x
            mult = [keep, keep * lift, keep]
            self.split = 2
        else:
            # u u_x, 3u^2/2 (- rho^2), rho u_x | u rho_x + 2 rho u_x
            mult = [keep, keep * lift, keep / (1.0 + grid.omega**2), keep]
            self.split = 3 if model is Model.DP2 else 2
        rows = self.split + (1 if model.two_component else 0)
        self.mult = -np.array(mult[:rows])
        for arr in (self.ik, self.mult):
            arr.setflags(write=False)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        """d/dx of every row, as `derivative` does for one field."""
        return np.fft.irfft(np.fft.rfft(y) * self.ik, self.n)

    def dealias(self, y: np.ndarray) -> np.ndarray:
        """Every row truncated by the 2/3 rule, as `dealias` does for one field."""
        hat = np.fft.rfft(y)
        hat[..., self.cutoff + 1:] = 0.0
        return np.fft.irfft(hat, self.n)

    def _terms(self, u, rho, ux, rhox):
        if self.model is Model.CH:
            return u * ux, u * u + 0.5 * (ux * ux)
        if self.model is Model.CH2:
            return (u * ux, u * u + 0.5 * (ux * ux) + 0.5 * (rho * rho),
                    u * rhox + rho * ux)
        if self.model is Model.DP:
            return u * ux, 1.5 * (u * u)
        return (u * ux, 1.5 * (u * u) - rho * rho, rho * ux,
                u * rhox + 2.0 * (rho * ux))

    def __call__(self, y: np.ndarray) -> np.ndarray:
        u, rho = y
        ux, rhox = self.derivative(y)
        spectra = np.fft.rfft(np.stack(self._terms(u, rho, ux, rhox))) * self.mult
        # One-component models sum no rho_t terms, so rho_t is exactly 0.
        out = np.stack((spectra[:self.split].sum(axis=0),
                        spectra[self.split:].sum(axis=0)))
        return np.fft.irfft(out, self.n)


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
    return _pair(state.grid, _kernel(model, state.grid.n)(_stack(state)))


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

    `state` is a VelocityPair, or the stacked (2, n) array of (u, rho) that
    `evolve` steps without building fields; the result takes the same form.
    """
    pair = isinstance(state, VelocityPair)
    y = _stack(state) if pair else state
    kernel = _kernel(model, y.shape[-1])
    y = _advance(kernel, kernel, y, dt, t)
    return _pair(state.grid, y) if pair else y


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


def _advance(f, kernel: _Kernel, y: np.ndarray, dt: float, t: float) -> np.ndarray:
    """One RK4 step of y' = f(y) from time t, with rows 0-1 (u, rho) dealiased.

    Raises BlowupError if any value is non-finite: a non-finite stage
    spreads through the RK4 sum and the dealias to every point.
    """
    y = rk4(f, y, dt)
    y[:2] = kernel.dealias(y[:2])
    if not np.all(np.isfinite(y)):
        raise BlowupError(f"non-finite values at t={t + dt:.6g}")
    return y


def _threshold_reason(config: EvolutionConfig, slopes: np.ndarray) -> str | None:
    """The threshold crossed by slopes = (u_x, rho_x, ...), or None."""
    if float(slopes[0].min()) < config.blowup_slope_threshold:
        return "min_ux"
    if float(np.max(np.abs(slopes[1]))) > config.blowup_rhox_threshold:
        return "max_abs_rhox"
    return None


def _integrate(config: EvolutionConfig, kernel: _Kernel, y: np.ndarray, step, stride: int,
               degenerate=lambda slopes: None):
    """Step y, (u, rho) in rows 0-1, to t_end; return kept steps, their history, status.

    `step(y, t)` is `_advance` from t.  A non-finite step stops the run
    unkept; else the monitor derives all rows of y in one call (also at
    t=0) and stops at `degenerate(slopes)`, else at a threshold.  Kept
    steps (every `stride`-th, the last, a blow-up) fill one history array.
    """
    n_steps = config.n_steps
    history = np.empty((len(y), -(-n_steps // stride) + 1, y.shape[-1]))
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
        slopes = kernel.derivative(y)
        reason = degenerate(slopes) or _threshold_reason(config, slopes)
        if i % stride == 0 or i == n_steps or reason is not None:
            history[:, len(kept)] = y
            kept.append(i)
        if reason is not None:
            status = RunStatus("blowup_detected", t=t, reason=reason)
            break
    return kept, history[:, :len(kept)], status


def evolve(config: EvolutionConfig, initial: VelocityPair) -> EvolveResult:
    """Integrate to t_end, recording snapshots/diagnostics every stride.

    Stops early with status blowup_detected when a threshold is crossed
    (checked at t=0 and after every step) or a step goes non-finite; the
    status carries the first offending time and the criterion that fired.
    """
    start = _initial_state(config, initial)
    kernel = _kernel(config.model, config.grid_n)
    # Steps go through the public `step_rk4`, the span perfbench's tracer
    # counts as the stepping layer.
    kept, history, status = _integrate(
        config, kernel, _stack(start),
        lambda y, t: step_rk4(config.model, y, config.dt, t), config.diagnostics_stride)
    history.setflags(write=False)  # the snapshots view it without a copy
    times = [i * config.dt for i in kept]
    # Row 0 is `start`, whose fields keep the spectra `dealias` gave them.
    snapshots = [start] + [_pair(start.grid, history[:, j]) for j in range(1, len(kept))]
    diagnostics = [DiagnosticsRecord(t, conserved_energy(s), float(ux.min()),
                                     float(np.max(np.abs(rhox))), *mean_invariants(s))
                   for t, s, ux, rhox in zip(times, snapshots, *kernel.derivative(history))]
    return EvolveResult(times, snapshots, diagnostics, status)
