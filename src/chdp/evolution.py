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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    helmholtz_inverse,
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


def rhs(model: Model, state: VelocityPair) -> VelocityPair:
    """Time derivative (u_t, rho_t) of the weak Cauchy form."""
    u, rho = state.u, state.rho
    ux = derivative(u)
    transport = dealiased_product(u, ux)
    if model in (Model.CH, Model.CH2):
        q = u * u + 0.5 * (ux * ux)
        if model is Model.CH2:
            q = q + 0.5 * (rho * rho)
        u_t = -transport - helmholtz_inverse(derivative(dealias(q)))
    else:
        q = 1.5 * (u * u)
        if model is Model.DP2:
            q = q - rho * rho
        flux = derivative(dealias(q))
        if model is Model.DP2:
            flux = flux + dealiased_product(rho, ux)
        u_t = -transport - helmholtz_inverse(flux)
    if not model.two_component:
        return VelocityPair(u_t, zero_field(u.grid))
    rhox = derivative(rho)
    if model is Model.CH2:
        rho_t = -dealiased_product(u, rhox) - dealiased_product(rho, ux)
    else:
        rho_t = -dealiased_product(u, rhox) - 2.0 * dealiased_product(rho, ux)
    return VelocityPair(u_t, rho_t)


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


def _check_finite(t: float, *fields: PeriodicField):
    if not all(np.all(np.isfinite(f.values)) for f in fields):
        raise BlowupError(f"non-finite values at t={t:.6g}")


def step_rk4(model: Model, state: VelocityPair, dt: float, t: float = 0.0) -> VelocityPair:
    """One dealiased RK4 step from time t; raises BlowupError if non-finite.

    A non-finite stage spreads through the RK4 sum and `dealias` to every point.
    """
    new = rk4(lambda s: rhs(model, s), state, dt)
    out = VelocityPair(dealias(new.u), dealias(new.rho))
    _check_finite(t + dt, out.u, out.rho)
    return out


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


def _diagnostics(t: float, state: VelocityPair) -> DiagnosticsRecord:
    mean_m, mean_rho = mean_invariants(state)
    return DiagnosticsRecord(
        t=t,
        energy=conserved_energy(state),
        min_ux=float(derivative(state.u).values.min()),
        max_abs_rhox=float(np.max(np.abs(derivative(state.rho).values))),
        mean_m=mean_m,
        mean_rho=mean_rho,
    )


def _threshold_reason(config: EvolutionConfig, state: VelocityPair) -> str | None:
    if float(derivative(state.u).values.min()) < config.blowup_slope_threshold:
        return "min_ux"
    if float(np.max(np.abs(derivative(state.rho).values))) > config.blowup_rhox_threshold:
        return "max_abs_rhox"
    return None


def _initial_state(config: EvolutionConfig, initial: VelocityPair) -> VelocityPair:
    """Validate initial data against the config; return it dealiased."""
    if initial.grid.n != config.grid_n:
        raise ValueError(f"initial data on n={initial.grid.n}, config wants {config.grid_n}")
    if not config.model.two_component and np.max(np.abs(initial.rho.values)) != 0.0:
        raise ValueError(f"model {config.model.value} requires rho = 0 initial data")
    return VelocityPair(dealias(initial.u), dealias(initial.rho))


def evolve(config: EvolutionConfig, initial: VelocityPair) -> EvolveResult:
    """Integrate to t_end, recording snapshots/diagnostics every stride.

    Stops early with status blowup_detected when a threshold is crossed
    (checked at t=0 and after every step) or a step goes non-finite; the
    status carries the first offending time and the criterion that fired.
    """
    state = _initial_state(config, initial)
    result = EvolveResult(times=[0.0], snapshots=[state],
                          diagnostics=[_diagnostics(0.0, state)])

    reason = _threshold_reason(config, state)
    if reason is not None:
        result.status = RunStatus("blowup_detected", t=0.0, reason=reason)
        return result

    n_steps = config.n_steps
    for step in range(1, n_steps + 1):
        t = step * config.dt
        try:
            state = step_rk4(config.model, state, config.dt, t - config.dt)
        except BlowupError:
            result.status = RunStatus("blowup_detected", t=t, reason="non_finite")
            return result
        reason = _threshold_reason(config, state)
        record = step % config.diagnostics_stride == 0 or step == n_steps
        if record or reason is not None:
            result.times.append(t)
            result.snapshots.append(state)
            result.diagnostics.append(_diagnostics(t, state))
        if reason is not None:
            result.status = RunStatus("blowup_detected", t=t, reason=reason)
            return result
    return result
