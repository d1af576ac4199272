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
rfft of the Eulerian kernel's terms and (u o phi, rho o phi) together.
Stage 1 reads its irfft from the monitor's, whose rows 0, 1, 4, 5 and 2
hold (u, rho, u_x, rho_x, psi): 12 FFT calls per step with the
monitor's.  Rows 0-1 stay band-limited;
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
    helmholtz,
    series_matrix,
)

__all__ = [
    "GroupElement",
    "FlowmapResult",
    "evolve_flowmap",
    "reconstruct_f",
    "momentum_drift",
]

# `evolve_flowmap` stops with reason 'phix_degenerate' once min phi_x is at
# or below this.
_JACOBIAN_FLOOR = 1e-8


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


def _flow_rhs(kernel: _Kernel, grid: Grid, y: np.ndarray,
              monitor: np.ndarray | None = None) -> np.ndarray:
    """d/dt of the stacked spectra of (u, rho, psi, f).

    One irfft gives (u, rho, u_x, rho_x, psi), unless `monitor`, the
    monitor's irfft of y (u, rho, psi, f, then their slopes), holds them
    as rows 0, 1, 4, 5 and 2; the series of u and rho (the spectra y[:2])
    are evaluated at phi = id + psi; the kernel's terms and
    (u o phi, rho o phi) share one rfft.
    """
    z = kernel.points(y[:2], y[2:3]) if monitor is None else monitor[[0, 1, 4, 5, 2]]
    at_phi = _offgrid(y[:2], grid.points + z[4], grid.dealias_cutoff)
    spectra = np.fft.rfft(np.concatenate((kernel.terms(z), at_phi)))
    return np.concatenate((kernel.combine(spectra[:-2]), spectra[-2:]))


def evolve_flowmap(config: EvolutionConfig, initial: VelocityPair) -> FlowmapResult:
    """Co-integrate (u, rho, psi, f) from (initial, identity) with RK4.

    The state is the (4, n//2 + 1) spectra stepped by the step loop of
    `evolve`, keeping the grid values and slopes of the steps it keeps
    (every `config.diagnostics_stride`-th, the last, a blow-up) in one
    (8, kept steps, n) history, whose rows the result's fields view.
    Stops early on the blow-up monitor of `evolve` (same status and time)
    or when min phi_x drops to `_JACOBIAN_FLOOR` (reason 'phix_degenerate',
    with min phi_x as the value, checked before the Eulerian thresholds).
    """
    grid = initial.grid
    kernel = _kernel(config.model, grid.n)
    start = _initial_state(config, initial)
    y = np.zeros((4, grid.n // 2 + 1), dtype=complex)
    y[:2] = start.u.hat, start.rho.hat

    def step(v, t, z):
        return _advance(lambda w: _flow_rhs(kernel, grid, w), v, config.dt, t,
                        _flow_rhs(kernel, grid, v, z))

    def degenerate(slopes):  # slopes[2] is psi_x, so phi_x = 1 + psi_x
        min_phix = 1.0 + float(slopes[2].min())
        return ("phix_degenerate", min_phix) if min_phix <= _JACOBIAN_FLOOR else None

    return _integrate(FlowmapResult, config, grid, y, step, degenerate)


def reconstruct_f(model: Model, rho0: PeriodicField, times: np.ndarray,
                  jacobians: np.ndarray) -> PeriodicField:
    """Quadrature reconstruction of the function component.

    f(t) = rho0 * integral_0^t ds / phi_x(s)   (CH family)
    f(t) = rho0 * integral_0^t ds / phi_x(s)^2 (DP family)

    pointwise in the Lagrangian label; composite Simpson over the kept
    steps (`_simpson`), fourth order in their time step, so with every step
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


# Bytes of one block's `series_matrix` plan in `momentum_drift`: it bounds
# the drift's memory whatever kmax is (6 blocks per row at n = 1024 on 2DP).
_PLAN_BYTES = 2**20


def momentum_drift(result: FlowmapResult, stride: int = 1) -> dict[str, np.ndarray]:
    """Max-norm deviation of each conserved momentum of result.model from its t=0 value.

    Keys: 'rho0' for the density momentum ((rho o phi) phi_x for the CH
    family, (rho o phi) phi_x^2 for DP) on two-component models, 'm0' for
    the velocity component of the coadjoint-transported pair on the
    metric models (CH, 2CH).  Values are arrays over the sampled steps:
    every `stride`-th kept row and the last (stride must be at least 1).
    DP tracks neither and returns {} without sampling any step.

    The series of rho and m are evaluated at phi = id + psi one block of
    points at a time, both through the block's `series_matrix` plan, which
    holds at most `_PLAN_BYTES`: O(n + block) memory per row.
    """
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    model = result.model
    keys = [key for key, on in (("rho0", model.two_component), ("m0", model.has_metric)) if on]
    if not keys:
        return {}
    grid = result.grid
    indices = list(range(0, len(result.times), stride))
    if indices[-1] != len(result.times) - 1:
        indices.append(len(result.times) - 1)
    rho_power = 1 if model in (Model.CH, Model.CH2) else 2
    # Rows 0-1 are dealiased every step, so rho needs the modes up to the
    # cutoff only.  m = helmholtz(u) keeps every mode, as the coadjoint
    # action it tracks does: helmholtz scales the round-off above the cutoff
    # by up to 1 + (pi n)^2, and truncating it would show in the m0 drift,
    # a small difference of O(1) values.
    kmax = grid.n // 2 if model.has_metric else grid.dealias_cutoff
    block = max(1, _PLAN_BYTES // (16 * (kmax + 1)))

    deviations, first = [], None
    for i, jac in zip(indices, result.jacobians(indices)):
        fields = [PeriodicField(grid, result.rho[i])] if model.two_component else []
        if model.has_metric:
            fields.append(helmholtz(PeriodicField(grid, result.u[i])))
        phi = grid.points + result.psi[i]
        at_phi = np.empty((len(fields), grid.n))
        for start in range(0, grid.n, block):
            plan = series_matrix(grid, phi[start:start + block], kmax=kmax)
            for row, field in zip(at_phi, fields):
                row[start:start + block] = apply_series_matrix(plan, field)
        q, rho_w = [], 0.0  # rho = 0 on one-component models
        if model.two_component:
            rho_w = at_phi[0]
            q.append(rho_w * jac**rho_power)
        if model.has_metric:
            # (m o phi) phi_x^2 + (rho o phi) f_x phi_x, the velocity part
            # of Ad*_(phi,f)(m, rho); arrays, so a row with phi_x <= 0 serves.
            q.append(at_phi[-1] * jac**2 + rho_w * result.f_x[i] * jac)
        first = q if first is None else first
        deviations.append([np.max(np.abs(a - b)) for a, b in zip(q, first)])

    return {key: np.array(column) for key, column in zip(keys, zip(*deviations))}
