"""Lagrangian side: group elements, flow maps, and momentum transport.

A group element is a pair (phi, f): an orientation-preserving circle map
and a function, multiplying as (phi, f)(psi, g) = (phi o psi, g + f o psi).
The geodesic is advanced as the first-order system

    u_t, rho_t  from the Eulerian right-hand side,
    phi_t = u o phi,      f_t = rho o phi,

which is equivalent to the second-order geodesic equation by
right-invariance; that equivalence is a tested property, not an
assumption.  It runs the step loop of `evolve` (`evolution._integrate`:
RK4, blow-up monitor, kept-row history) on the rfft spectra of
(u, rho, psi, f), one complex (4, n//2 + 1) array, and keeps the steps
`evolve` keeps: every `diagnostics_stride`-th step, the last step and a
blow-up step.  Each RK4 stage makes one irfft of
(u, rho, u_x, rho_x, psi), evaluates the series of u and rho (their
spectra, rows 0-1 of the state) at phi = id + psi in one call of the
off-grid evaluator (`spectral._offgrid`, a type-2 NUFFT), and makes one
rfft of the Eulerian kernel's products and (u o phi, rho o phi) together:
13 FFT calls per step with the monitor's.  Rows 0-1 stay band-limited;
psi and f are not truncated.  The monitor's irfft gives the grid values
and slopes of all four rows, and `FlowmapResult` views them as kept:
its (u, rho) part is the `EvolveResult` of `evolve` for the same config,
and phi_x = 1 + psi_x is the value the monitor's phi_x floor checks,
before the thresholds.
Along exact two-component CH flows (rho o phi) phi_x and the full
coadjoint-transported momentum pair are constant; along 2DP flows
(rho o phi) phi_x^2 is constant.  These are the quantities reported by
`momentum_drift`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chdp.connection import Model, VelocityPair
from chdp.evolution import (EvolutionConfig, EvolveResult, _advance, _initial_state,
                            _integrate, _kernel, _Kernel)
from chdp.spectral import (
    Diffeo,
    Grid,
    PeriodicField,
    _offgrid,
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

@dataclass(frozen=True, eq=False)
class FlowmapResult(EvolveResult):
    """The kept steps of the coupled run: `EvolveResult` plus the flow map.

    Row i of psi, f, psi_x and f_x holds the grid values at times[i], the
    steps `evolve` keeps for the same config; phi = id + psi.  Every array
    is a read-only view of one history array.
    """

    psi: np.ndarray
    f: np.ndarray
    psi_x: np.ndarray
    f_x: np.ndarray

    def group_element(self, i: int) -> GroupElement:
        return GroupElement(Diffeo(PeriodicField(self.grid, self.psi[i])),
                            PeriodicField(self.grid, self.f[i]))

    def jacobians(self, rows=None) -> np.ndarray:
        """phi_x = 1 + psi_x at the given history rows (default all), shape (len(rows), n).

        The same values the monitor's phi_x floor checks.
        """
        return 1.0 + (self.psi_x if rows is None else self.psi_x[rows])


def _flow_rhs(kernel: _Kernel, grid: Grid, y: np.ndarray) -> np.ndarray:
    """d/dt of the stacked spectra of (u, rho, psi, f).

    One irfft gives (u, rho, u_x, rho_x, psi); the series of u and rho
    (the spectra y[:2]) are evaluated at phi = id + psi; the kernel's
    products and (u o phi, rho o phi) share one rfft.
    """
    z = kernel.points(y[:2], y[2:3])
    at_phi = _offgrid(y[:2], grid.points + z[4], grid.dealias_cutoff)
    spectra = np.fft.rfft(np.concatenate((kernel.products(z), at_phi)))
    return np.concatenate((kernel.combine(spectra[:-2]), spectra[-2:]))


def evolve_flowmap(config: EvolutionConfig, initial: VelocityPair,
                   jacobian_floor: float = 1e-8) -> FlowmapResult:
    """Co-integrate (u, rho, psi, f) from (initial, identity) with RK4.

    The state is the (4, n//2 + 1) spectra stepped by the step loop of
    `evolve`, keeping the grid values and slopes of the steps it keeps
    (every `config.diagnostics_stride`-th, the last, a blow-up) in one
    (8, kept steps, n) history, whose rows the result's fields view.
    Stops early on the blow-up monitor of `evolve` (same status and time)
    or when min phi_x drops to `jacobian_floor` (reason 'phix_degenerate',
    with min phi_x as the value, checked before the Eulerian thresholds).
    """
    grid = initial.grid
    kernel = _kernel(config.model, grid.n)
    start = _initial_state(config, initial)
    y = np.zeros((4, grid.n // 2 + 1), dtype=complex)
    y[:2] = start.u.hat, start.rho.hat

    def step(v, t):
        return _advance(lambda w: _flow_rhs(kernel, grid, w), v, config.dt, t)

    def degenerate(slopes):  # slopes[2] is psi_x, so phi_x = 1 + psi_x
        min_phix = 1.0 + float(slopes[2].min())
        return ("phix_degenerate", min_phix) if min_phix <= jacobian_floor else None

    return _integrate(FlowmapResult, config, grid, y, step, degenerate)


def reconstruct_f(model: Model, rho0: PeriodicField, times: np.ndarray,
                  jacobians: np.ndarray) -> PeriodicField:
    """Quadrature reconstruction of the function component.

    f(t) = rho0 * integral_0^t ds / phi_x(s)   (CH family)
    f(t) = rho0 * integral_0^t ds / phi_x(s)^2 (DP family)

    pointwise in the Lagrangian label; composite Simpson over the kept
    steps (`_simpson`), fourth order in their spacing, so with every step
    kept (`diagnostics_stride=1`) it matches the integrator's accuracy.
    """
    if np.min(jacobians) <= 0.0:
        raise ValueError("jacobian history must stay positive")
    power = 1 if model in (Model.CH, Model.CH2) else 2
    integral = _simpson(jacobians**(-power), np.asarray(times, dtype=float))
    return PeriodicField(rho0.grid, rho0.values * integral)


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson's rule over axis 0 of y at increasing abscissae x.

    Matches `scipy.integrate.simpson(y, x=x, axis=0)`: an odd number of
    samples uses the rule for unequal pairs of intervals; an even number
    adds Cartwright's correction for the last interval; two samples use
    the trapezoid rule and one gives 0.
    """
    count = len(x)
    if count < 2:
        return np.zeros(y.shape[1:])
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    if count == 2:
        return 0.5 * h[0] * (y[0] + y[1])
    stop = count - 2 if count % 2 else count - 3  # intervals covered by whole pairs
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    pairs = hsum / 6.0 * (y[0:stop:2] * (2.0 - h1 / h0)
                          + y[1:stop + 1:2] * (hsum * hsum / (h0 * h1))
                          + y[2:stop + 2:2] * (2.0 - h0 / h1))
    result = pairs.sum(axis=0)
    if count % 2 == 0:
        a, b = h[-2], h[-1]
        result += ((2.0 * b * b + 3.0 * a * b) / (6.0 * (a + b)) * y[-1]
                   + (b * b + 3.0 * a * b) / (6.0 * a) * y[-2]
                   - b**3 / (6.0 * a * (a + b)) * y[-3])
    return result


def momentum_drift(model: Model, result: FlowmapResult,
                   stride: int = 1) -> dict[str, np.ndarray]:
    """Max-norm deviation of each conserved momentum from its t=0 value.

    Keys: 'rho0' for the density momentum ((rho o phi) phi_x for the CH
    family, (rho o phi) phi_x^2 for DP) on two-component models, 'm0' for
    the velocity component of the coadjoint-transported pair on the
    metric models (CH, 2CH).  Values are arrays over the sampled steps.
    DP tracks neither and returns {} without sampling any step.
    """
    keys = [key for key, on in (("rho0", model.two_component), ("m0", model.has_metric)) if on]
    if not keys:
        return {}
    grid = result.grid
    indices = list(range(0, len(result.times), stride))
    if indices[-1] != len(result.times) - 1:
        indices.append(len(result.times) - 1)
    rho_power = 1 if model in (Model.CH, Model.CH2) else 2
    # Rows 0-1 are dealiased every step, so rho needs the modes up to the
    # cutoff only.  m = helmholtz(u) keeps every mode: helmholtz scales the
    # round-off above the cutoff by up to 1 + (pi n)^2, which would show
    # against `coadjoint_action` in the m0 drift, a small difference of
    # O(1) values.
    kmax = grid.n // 2 if model.has_metric else grid.dealias_cutoff

    deviations, first = [], None
    for i, jac in zip(indices, result.jacobians(indices)):
        plan = series_matrix(grid, grid.points + result.psi[i], kmax=kmax)
        q, rho_w = [], 0.0  # rho = 0 on one-component models
        if model.two_component:
            rho_w = apply_series_matrix(plan, PeriodicField(grid, result.rho[i]))
            q.append(rho_w * jac**rho_power)
        if model.has_metric:
            m_w = apply_series_matrix(plan, helmholtz(PeriodicField(grid, result.u[i])))
            q.append(_coadjoint_m0(m_w, rho_w, jac, result.f_x[i]))
        first = q if first is None else first
        deviations.append([np.max(np.abs(a - b)) for a, b in zip(q, first)])

    return {key: np.array(column) for key, column in zip(keys, zip(*deviations))}
