"""Lagrangian side: group elements, flow maps, and momentum transport.

A group element is a pair (phi, f): an orientation-preserving circle map
and a function, multiplying as (phi, f)(psi, g) = (phi o psi, g + f o psi).
The geodesic is advanced as the first-order system

    u_t, rho_t  from the Eulerian right-hand side,
    phi_t = u o phi,      f_t = rho o phi,

which is equivalent to the second-order geodesic equation by
right-invariance; that equivalence is a tested property, not an
assumption.  It shares `rk4`, the Eulerian kernel and the blow-up monitor
with `evolve`: the state is one (4, n) array (u, rho, psi, f), rows 0-1
step through the kernel, and each RK4 stage builds one series plan at
phi = id + psi and applies it to the series weights of u and rho in one
matrix product.  Every step is written into one history array.
Along exact two-component CH flows (rho o phi) phi_x and the full
coadjoint-transported momentum pair are constant; along 2DP flows
(rho o phi) phi_x^2 is constant.  These are the quantities reported by
`momentum_drift`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from chdp.connection import Model, VelocityPair
from chdp.evolution import (BlowupError, EvolutionConfig, RunStatus, _check_finite,
                            _initial_state, _kernel, _Kernel, _threshold_reason, rk4)
from chdp.spectral import (
    Diffeo,
    Grid,
    PeriodicField,
    apply_series_matrix,
    compose,
    derivative,
    helmholtz,
    invert_diffeo,
    series_matrix,
    zero_field,
)

__all__ = [
    "GroupElement",
    "BodyMomentum",
    "FlowmapResult",
    "identity_element",
    "group_product",
    "group_inverse",
    "adjoint_action",
    "coadjoint_action",
    "body_velocity",
    "evolve_flowmap",
    "reconstruct_f",
    "momentum_drift",
]


@dataclass(frozen=True)
class GroupElement:
    """Element (phi, f) of the semidirect product group."""

    phi: Diffeo
    f: PeriodicField

    def __post_init__(self):
        if self.phi.grid.n != self.f.grid.n:
            raise ValueError("components must share a grid")

    @property
    def grid(self) -> Grid:
        return self.phi.grid


@dataclass(frozen=True)
class BodyMomentum:
    """Coadjoint-transported momentum pair; constant along exact 2CH flows."""

    m0: PeriodicField
    rho0: PeriodicField


def identity_element(grid: Grid) -> GroupElement:
    return GroupElement(Diffeo.identity(grid), zero_field(grid))


def group_product(a: GroupElement, b: GroupElement) -> GroupElement:
    """(phi_a o phi_b, f_b + f_a o phi_b)."""
    psi_b = b.phi.displacement
    comp = psi_b + compose(a.phi.displacement, b.phi)
    return GroupElement(Diffeo(comp), b.f + compose(a.f, b.phi))


def group_inverse(a: GroupElement) -> GroupElement:
    """(phi^{-1}, -f o phi^{-1})."""
    inv = invert_diffeo(a.phi)
    return GroupElement(inv, -compose(a.f, inv))


def adjoint_action(g: GroupElement, v: VelocityPair) -> VelocityPair:
    """Ad_(phi,f)(v, tau) = ((phi_x v) o phi^{-1}, (f_x v + tau) o phi^{-1})."""
    inv = invert_diffeo(g.phi)
    first = compose(g.phi.jacobian * v.u, inv)
    second = compose(derivative(g.f) * v.u + v.rho, inv)
    return VelocityPair(first, second)


def coadjoint_action(g: GroupElement, m: PeriodicField,
                     rho: PeriodicField) -> BodyMomentum:
    """Ad*_(phi,f)(m, rho) = ((m o phi) phi_x^2 + (rho o phi) f_x phi_x, (rho o phi) phi_x)."""
    plan = series_matrix(g.grid, g.phi.warped_points)
    m_w = apply_series_matrix(plan, m)
    rho_w = apply_series_matrix(plan, rho)
    jac = g.phi.jacobian.values
    fx = derivative(g.f).values
    m0 = m_w * jac**2 + rho_w * fx * jac
    rho0 = rho_w * jac
    return BodyMomentum(PeriodicField(g.grid, m0), PeriodicField(g.grid, rho0))


def body_velocity(g: GroupElement, phi_t: PeriodicField,
                  f_t: PeriodicField) -> VelocityPair:
    """Left translation of the material velocity to the algebra.

    U1 = phi_t / phi_x,  U2 = f_t - (f_x / phi_x) phi_t.
    """
    jac = g.phi.jacobian.values
    u1 = phi_t.values / jac
    u2 = f_t.values - derivative(g.f).values / jac * phi_t.values
    return VelocityPair(PeriodicField(g.grid, u1), PeriodicField(g.grid, u2))


# ---------------------------------------------------------------------------
# Coupled Eulerian + flow-map integration
# ---------------------------------------------------------------------------

@dataclass
class FlowmapResult:
    """Stacked per-step history of the coupled run.

    Rows of u/rho/psi/f are the fields at `times`; phi = id + psi.  The
    four arrays are views of one history array.
    """

    grid: Grid
    model: Model
    times: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    f: np.ndarray
    status: RunStatus

    def velocity_pair(self, i: int) -> VelocityPair:
        return VelocityPair(PeriodicField(self.grid, self.u[i]),
                            PeriodicField(self.grid, self.rho[i]))

    def group_element(self, i: int) -> GroupElement:
        return GroupElement(Diffeo(PeriodicField(self.grid, self.psi[i])),
                            PeriodicField(self.grid, self.f[i]))

    def jacobians(self) -> np.ndarray:
        """phi_x history, shape (len(times), n), via batched spectral derivative."""
        hat = np.fft.rfft(self.psi, axis=1)
        hat *= 1j * self.grid.omega
        hat[:, -1] = 0.0
        return 1.0 + np.fft.irfft(hat, n=self.grid.n, axis=1)


def _flow_rhs(kernel: _Kernel, grid: Grid, y: np.ndarray) -> np.ndarray:
    """d/dt of the stacked (u, rho, psi, f): the kernel, then (u, rho) o phi."""
    out = np.empty_like(y)
    out[:2] = kernel(y[:2])
    kmax = grid.dealias_cutoff
    plan = series_matrix(grid, grid.points + y[2], kmax=kmax)
    # Series weights of u and rho, as in `apply_series_matrix`.
    weights = np.fft.rfft(y[:2])[:, :kmax + 1] / grid.n
    weights[:, 1:] *= 2.0
    out[2:] = (plan @ weights.T).real.T
    return out


def evolve_flowmap(config: EvolutionConfig, initial: VelocityPair,
                   jacobian_floor: float = 1e-8) -> FlowmapResult:
    """Co-integrate (u, rho, psi, f) from (initial, identity) with RK4.

    The state is one (4, n) array; every step is written into one
    (4, steps + 1, n) history, whose rows the result's fields view.
    Stops early on the blow-up monitor of `evolve` (same status and time)
    or when min phi_x drops to `jacobian_floor` (reason 'phix_degenerate',
    checked before the Eulerian thresholds).
    """
    grid = initial.grid
    start = _initial_state(config, initial)
    kernel = _kernel(config.model, grid)
    y = np.zeros((4, grid.n))
    y[0], y[1] = start.u.values, start.rho.values
    history = np.empty((4, config.n_steps + 1, grid.n))
    status = RunStatus("completed")

    for step in range(config.n_steps + 1):
        t = step * config.dt
        if step > 0:
            y = rk4(lambda s: _flow_rhs(kernel, grid, s), y, config.dt)
            y[:2] = kernel.dealias(y[:2])
            try:
                _check_finite(t, y)
            except BlowupError:
                status = RunStatus("blowup_detected", t=t, reason="non_finite")
                break
        history[:, step] = y
        stored = step + 1

        slopes = kernel.derivative(y[:3])  # u_x, rho_x, psi_x
        if 1.0 + slopes[2].min() <= jacobian_floor:
            reason = "phix_degenerate"
        else:
            reason = _threshold_reason(config, slopes)
        if reason is not None:
            status = RunStatus("blowup_detected", t=t, reason=reason)
            break

    u, rho, psi, f = history[:, :stored]
    return FlowmapResult(grid=grid, model=config.model,
                         times=np.arange(stored) * config.dt,
                         u=u, rho=rho, psi=psi, f=f, status=status)


def reconstruct_f(model: Model, rho0: PeriodicField, times: np.ndarray,
                  jacobians: np.ndarray) -> PeriodicField:
    """Quadrature reconstruction of the function component.

    f(t) = rho0 * integral_0^t ds / phi_x(s)   (CH family)
    f(t) = rho0 * integral_0^t ds / phi_x(s)^2 (DP family)

    pointwise in the Lagrangian label; composite Simpson over the saved
    steps, matching the integrator's fourth-order accuracy.
    """
    if np.min(jacobians) <= 0.0:
        raise ValueError("jacobian history must stay positive")
    power = 1 if model in (Model.CH, Model.CH2) else 2
    if len(times) < 2:
        return zero_field(rho0.grid)
    integral = simpson(jacobians**(-power), x=np.asarray(times), axis=0)
    return PeriodicField(rho0.grid, rho0.values * integral)


def momentum_drift(model: Model, result: FlowmapResult,
                   stride: int = 1) -> dict[str, np.ndarray]:
    """Max-norm deviation of each conserved momentum from its t=0 value.

    Keys: 'rho0' for the density momentum ((rho o phi) phi_x for the CH
    family, (rho o phi) phi_x^2 for DP) on two-component models, 'm0' for
    the velocity component of the coadjoint-transported pair on the
    metric models (CH, 2CH).  Values are arrays over the sampled steps.
    """
    grid = result.grid
    indices = list(range(0, len(result.times), stride))
    if indices[-1] != len(result.times) - 1:
        indices.append(len(result.times) - 1)
    jac_all = result.jacobians()

    track_rho = model.two_component
    track_m = model.has_metric
    rho_power = 1 if model in (Model.CH, Model.CH2) else 2

    rho_series, m_series = [], []
    rho_ref, m_ref = None, None
    for i in indices:
        warped = grid.points + result.psi[i]
        plan = series_matrix(grid, warped)
        jac = jac_all[i]
        if track_rho:
            rho_i = PeriodicField(grid, result.rho[i])
            q = apply_series_matrix(plan, rho_i) * jac**rho_power
            if rho_ref is None:
                rho_ref = q
            rho_series.append(np.max(np.abs(q - rho_ref)))
        if track_m:
            m_i = helmholtz(PeriodicField(grid, result.u[i]))
            q = apply_series_matrix(plan, m_i) * jac**2
            if track_rho:
                f_i = PeriodicField(grid, result.f[i])
                rho_i = PeriodicField(grid, result.rho[i])
                q = q + apply_series_matrix(plan, rho_i) * derivative(f_i).values * jac
            if m_ref is None:
                m_ref = q
            m_series.append(np.max(np.abs(q - m_ref)))

    out = {}
    if track_rho:
        out["rho0"] = np.asarray(rho_series)
    if track_m:
        out["m0"] = np.asarray(m_series)
    return out
