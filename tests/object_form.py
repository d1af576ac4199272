"""Object-form reference integrators, kept as oracles for the array kernel.

Each operation here builds `PeriodicField` objects and calls the
single-field spectral operators, one FFT at a time.  `chdp.evolution` and
`chdp.flowmap` compute the same quantities on stacked arrays with batched
FFTs; the tests compare the two to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chdp.connection import Model, VelocityPair
from chdp.evolution import rk4
from chdp.spectral import (
    PeriodicField,
    apply_series_matrix,
    dealias,
    dealiased_product,
    derivative,
    helmholtz_inverse,
    series_matrix,
    zero_field,
)


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


def step_rk4(model: Model, state: VelocityPair, dt: float) -> VelocityPair:
    """One dealiased RK4 step of `rhs`."""
    new = rk4(lambda s: rhs(model, s), state, dt)
    return VelocityPair(dealias(new.u), dealias(new.rho))


@dataclass(frozen=True)
class FlowState:
    """(u, rho, psi, f) as fields, with the + and scalar * that `rk4` needs."""

    pair: VelocityPair
    psi: PeriodicField
    f: PeriodicField

    def __add__(self, other):
        return FlowState(self.pair + other.pair, self.psi + other.psi, self.f + other.f)

    def __mul__(self, scalar):
        return FlowState(scalar * self.pair, self.psi * scalar, self.f * scalar)

    __rmul__ = __mul__


def _flow_rhs(model: Model, state: FlowState) -> FlowState:
    grid = state.psi.grid
    plan = series_matrix(grid, grid.points + state.psi.values, kmax=grid.dealias_cutoff)
    psi_dot = apply_series_matrix(plan, state.pair.u)
    f_dot = apply_series_matrix(plan, state.pair.rho)
    return FlowState(rhs(model, state.pair), PeriodicField(grid, psi_dot),
                     PeriodicField(grid, f_dot))


def flowmap_trajectory(model: Model, initial: VelocityPair, dt: float,
                       steps: int) -> np.ndarray:
    """(u, rho, psi, f) after each of 0..steps RK4 steps, shape (4, steps + 1, n)."""
    grid = initial.grid
    state = FlowState(VelocityPair(dealias(initial.u), dealias(initial.rho)),
                      zero_field(grid), zero_field(grid))
    rows = []
    for step in range(steps + 1):
        if step > 0:
            new = rk4(lambda s: _flow_rhs(model, s), state, dt)
            state = FlowState(VelocityPair(dealias(new.pair.u), dealias(new.pair.rho)),
                              new.psi, new.f)
        rows.append([state.pair.u.values, state.pair.rho.values,
                     state.psi.values, state.f.values])
    return np.transpose(np.asarray(rows), (1, 0, 2))
