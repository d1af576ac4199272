"""Lagrangian side: group elements, flow maps, and momentum transport.

A group element is a pair (phi, f): an orientation-preserving circle map
and a function, multiplying as (phi, f)(psi, g) = (phi o psi, g + f o psi).
The geodesic is advanced as the first-order system

    u_t, rho_t  from the Eulerian right-hand side,
    phi_t = u o phi,      f_t = rho o phi,

which is equivalent to the second-order geodesic equation by
right-invariance; that equivalence is a tested property, not an
assumption.  It runs the step loop of `evolve` (`evolution._integrate`:
RK4, dealiasing, blow-up monitor, kept-row history) on one (4, n) array
(u, rho, psi, f) and keeps every step.  Rows 0-1 step through the
Eulerian kernel, and each RK4 stage builds one series plan at
phi = id + psi and applies it to the series weights of u and rho in one
matrix product.  The monitor adds the phi_x floor before the thresholds.
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
from chdp.evolution import (EvolutionConfig, RunStatus, _advance, _initial_state,
                            _integrate, _kernel, _Kernel, _stack)
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


def _coadjoint_m0(m_w, rho_w, jac, fx):
    """(m o phi) phi_x^2 + (rho o phi) f_x phi_x, the velocity part of Ad*_(phi,f)(m, rho).

    Takes arrays, so it also serves a stored flow-map row with phi_x <= 0.
    """
    return m_w * jac**2 + rho_w * fx * jac


def coadjoint_action(g: GroupElement, m: PeriodicField,
                     rho: PeriodicField) -> BodyMomentum:
    """Ad*_(phi,f)(m, rho) = ((m o phi) phi_x^2 + (rho o phi) f_x phi_x, (rho o phi) phi_x)."""
    plan = series_matrix(g.grid, g.phi.warped_points)
    rho_w = apply_series_matrix(plan, rho)
    jac = g.phi.jacobian.values
    m0 = _coadjoint_m0(apply_series_matrix(plan, m), rho_w, jac, derivative(g.f).values)
    return BodyMomentum(PeriodicField(g.grid, m0), PeriodicField(g.grid, rho_w * jac))


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

    def group_element(self, i: int) -> GroupElement:
        return GroupElement(Diffeo(PeriodicField(self.grid, self.psi[i])),
                            PeriodicField(self.grid, self.f[i]))

    def jacobians(self, rows=None) -> np.ndarray:
        """phi_x at the given history rows (default all), via batched spectral derivative.

        The shape is (len(rows), n); every row equals the same row of the full history.
        """
        psi = self.psi if rows is None else self.psi[rows]
        hat = np.fft.rfft(psi, axis=1)
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

    The state is one (4, n) array stepped by the step loop of `evolve`,
    keeping every step in one (4, steps + 1, n) history, whose rows the
    result's fields view.  Stops early on the blow-up monitor of `evolve`
    (same status and time) or when min phi_x drops to `jacobian_floor`
    (reason 'phix_degenerate', checked before the Eulerian thresholds).
    """
    grid = initial.grid
    kernel = _kernel(config.model, grid.n)
    y = np.zeros((4, grid.n))
    y[:2] = _stack(_initial_state(config, initial))

    def step(v, t):
        return _advance(lambda w: _flow_rhs(kernel, grid, w), kernel, v, config.dt, t)

    def degenerate(slopes):  # slopes[2] is psi_x, so phi_x = 1 + psi_x
        return "phix_degenerate" if 1.0 + slopes[2].min() <= jacobian_floor else None

    kept, history, status = _integrate(config, kernel, y, step, 1, degenerate)
    u, rho, psi, f = history
    return FlowmapResult(grid=grid, model=config.model,
                         times=np.array(kept) * config.dt,
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
    rho_power = 1 if model in (Model.CH, Model.CH2) else 2

    deviations, first = [], None
    for i, jac in zip(indices, result.jacobians(indices)):
        plan = series_matrix(grid, grid.points + result.psi[i])
        q, rho_w = [], 0.0  # rho = 0 on one-component models
        if model.two_component:
            rho_w = apply_series_matrix(plan, PeriodicField(grid, result.rho[i]))
            q.append(rho_w * jac**rho_power)
        if model.has_metric:
            m_w = apply_series_matrix(plan, helmholtz(PeriodicField(grid, result.u[i])))
            fx = derivative(PeriodicField(grid, result.f[i])).values
            q.append(_coadjoint_m0(m_w, rho_w, jac, fx))
        first = q if first is None else first
        deviations.append([np.max(np.abs(a - b)) for a, b in zip(q, first)])

    keys = [key for key, on in (("rho0", model.two_component), ("m0", model.has_metric)) if on]
    return {key: np.array(column) for key, column in zip(keys, zip(*deviations))}
