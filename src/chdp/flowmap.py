"""Lagrangian side: group elements, flow maps, and momentum transport.

A group element is a pair (phi, f): an orientation-preserving circle map
and a function, multiplying as (phi, f)(psi, g) = (phi o psi, g + f o psi).
The geodesic (phi, f) solves phi_t = u o phi, f_t = rho o phi alongside
the Eulerian right-hand side (the Lagrangian form, kept as the oracle
`tests/object_form.py::flowmap_trajectory`); that this is the
second-order geodesic equation, by right-invariance, is a tested
property, not an assumption.

`evolve_flowmap` steps the back-to-labels map instead (Holm, Marsden &
Ratiu, Adv. Math. 137, 1998): chi = phi^-1 = id + xi and g = f o chi,
which live on the Eulerian grid,

    xi_t = -u (1 + xi_x),      g_t = rho - u g_x,

so a stage needs no off-grid evaluation.  It runs the step loop of
`evolve` (`evolution._integrate`: RK4, blow-up monitor, kept-row history)
on the Fourier coefficients (rfft / n) of (u, rho, xi, g), one complex
(4, n//2 + 1) array, and keeps the steps `evolve` keeps: every
`diagnostics_stride`-th step, the last step and a blow-up step.  Its
stages are the Eulerian kernel on four state rows
(`evolution._kernel(model, n, 4)`): one irfft of (u, rho, u_x, xi_x, g_x)
and one rfft of the Eulerian terms and the products u xi_x, u g_x.
Stage 1 reads its irfft from the monitor's: 8 FFT calls per step with
the monitor's, as for `evolve`.  The transport rows are not truncated:
dealiasing them put the 2DP f of C7's run 3.7e-12 off the Lagrangian
form, against 6e-15.

The monitor's minimum and maximum of each slope row decide the step.  A
NaN minimum of any row, the labels' included, stops the run as
non-finite, unkept, as on `evolve`.  Then, before the Eulerian
thresholds, it stops the run with
- 'labels_folded' (value min chi_x) when chi_x <= 0 somewhere: chi is no
  longer invertible;
- 'labels_unresolved' (value: the tail) when the spectral tail of xi or
  g exceeds `_LABELS_TAIL_LIMIT`.  A row's tail is its largest rfft
  coefficient above 2/3 of the dealias cutoff over its largest at modes
  1..cutoff, read from the state spectra with no FFT.  chi steepens where
  phi compresses (chi_x = 1 / (phi_x o chi)); past the limit the labels
  no longer resolve the map, and phi would be wrong.  Restarting the
  labels from the identity and composing the sub-maps (remapping) is not
  done.
No floor on phi_x is needed: unfolded, chi_x = 1 + xi_x is positive and
sums to n over the grid (no mode 0), so min phi_x = 1 / max chi_x > 1 / n.
Only the kept rows are turned back into (psi, f) of phi = id + psi
(`_group_rows`): Newton inverts chi from the grid rows (xi, g)
(`spectral._inverse_points`, shared with `invert_diffeo`), evaluating
(xi, xi_x, g) in one `_offgrid` call per iteration, so the last one also
gives f = g o phi.  A 'labels_folded' run's last row has no inverse and
holds NaN there, and `momentum_drift` skips it.  The slopes psi_x and
f_x are taken only where they are read, by `FlowmapResult.jacobians` and
`momentum_drift`, as the spectral derivatives of the kept psi and f that
`derivative` and the object form take.
`FlowmapResult` views the result: its (u, rho) part is the `EvolveResult`
of `evolve` for the same config.
Along exact two-component CH flows (rho o phi) phi_x and the full
coadjoint-transported momentum pair are constant; along 2DP flows
(rho o phi) phi_x^2 is constant.  These are the quantities reported by
`momentum_drift`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chdp.connection import Model, VelocityPair
from chdp.evolution import (EvolutionConfig, EvolveResult, RunStatus, _initial_state, _integrate,
                            _kernel, rk4)
from chdp.spectral import (
    Diffeo,
    Grid,
    PeriodicField,
    _check_same_grid,
    _inverse_points,
    apply_series_matrix,
    series_matrix,
)

__all__ = [
    "GroupElement",
    "FlowmapResult",
    "evolve_flowmap",
    "reconstruct_f",
    "momentum_drift",
]

# `evolve_flowmap` stops with reason 'labels_unresolved' once the spectral
# tail of xi or g exceeds the limit.  On 2CH with amplitude 0.3 in both
# slots, n = 256, dt = 1e-3, the tail of g is 6e-6 at t = 0.5, where psi
# agrees with the Lagrangian form to 3e-13 and f to 1e-11, and 1e-2 at
# t = 0.7, where psi agrees to 2e-5 only.
_LABELS_TAIL_LIMIT = 1e-4
# The kept-row Newton inversion of chi stops once max |chi(phi) - x| is at
# or below this (at 1e-12, psi of C7's 2CH run is off by 9e-13).
_LABELS_INVERSION_TOL = 1e-14


@dataclass(frozen=True)
class GroupElement:
    """Element (phi, f) of the semidirect product group."""

    phi: Diffeo
    f: PeriodicField

    def __post_init__(self):
        _check_same_grid(self.phi, self.f)


# ---------------------------------------------------------------------------
# Coupled Eulerian + flow-map integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FlowmapResult(EvolveResult):
    """The kept steps of the coupled run: `EvolveResult` plus the flow map.

    Row i of psi and f holds the grid values at times[i], the steps
    `evolve` keeps for the same config; phi = id + psi.  Every array is a
    read-only view of one history array.
    """

    psi: np.ndarray
    f: np.ndarray

    def group_element(self, i: int) -> GroupElement:
        return GroupElement(Diffeo(PeriodicField(self.grid, self.psi[i])),
                            PeriodicField(self.grid, self.f[i]))

    def jacobians(self, rows=None) -> np.ndarray:
        """phi_x = 1 + psi_x at the given history rows (default all), shape (len(rows), n).

        psi_x is the spectral derivative of the kept psi, taken here; a
        folded row's is NaN.
        """
        return 1.0 + _slopes(self.grid, self.psi if rows is None else self.psi[rows])


def _slopes(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """Spectral derivatives of the grid-value rows, as `derivative` takes them."""
    return np.fft.irfft(np.fft.rfft(rows) * grid.ik, grid.n)


def _group_rows(grid: Grid, history: np.ndarray, status: RunStatus) -> None:
    """Turn the kept (xi, g) rows 2, 3 of history into (psi, f), in place.

    Row by row, Newton inverts chi = id + xi to phi = id + psi, and the
    last iteration's `_offgrid` call gives f = g o phi.  The monitor stops
    a run at its first folded step (min chi_x <= 0), so only the last row
    of a 'labels_folded' run is folded: it has no inverse and gets NaN.
    """
    count = history.shape[1]
    if status.reason == "labels_folded":
        count -= 1
        history[2:, count] = np.nan
    for i in range(count):
        y, (g,) = _inverse_points(grid, history[2:4, i], _LABELS_INVERSION_TOL)
        history[2, i] = y - grid.points
        history[3, i] = g


def evolve_flowmap(config: EvolutionConfig, initial: VelocityPair) -> FlowmapResult:
    """Co-integrate (u, rho, xi, g) from (initial, identity) with RK4; return phi = chi^-1.

    The state is the (4, n//2 + 1) Fourier coefficients stepped by the
    step loop of `evolve`, keeping the grid values of the steps it keeps
    (every `config.diagnostics_stride`-th, the last, a blow-up) in one
    (4, kept steps, n) history, whose labels rows `_group_rows` turns into
    (psi, f) and the result's fields view.  Stops early on the
    blow-up monitor of `evolve` (same status and time, and the same
    ValueError on non-finite initial data): a non-finite step
    of any row first, then the labels, then the thresholds.  The labels
    stop it at 'labels_folded' (min chi_x <= 0) and 'labels_unresolved'
    (the spectral tail of xi or g above `_LABELS_TAIL_LIMIT`), each with
    its value.
    """
    grid = initial.grid
    kernel = _kernel(config.model, grid.n, 4)
    y = np.zeros((4, grid.n // 2 + 1), dtype=complex)
    y[:2] = _initial_state(config, initial)
    cutoff = grid.dealias_cutoff
    top = 2 * cutoff // 3 + 1  # the first mode above 2/3 of the cutoff

    def check(v, lows):  # lows[2]: min xi_x; chi_x = 1 + xi_x
        min_chix = 1.0 + lows[2]
        if min_chix <= 0.0:
            return "labels_folded", min_chix
        size = np.abs(v[2:, 1:])  # modes 1..n/2 of xi and g
        tails = [a / b if b > 0.0 else (np.inf if a > 0.0 else 0.0)
                 for a, b in zip(size[:, top - 1:].max(axis=1).tolist(),
                                 size[:, :cutoff].max(axis=1).tolist())]
        return ("labels_unresolved", max(tails)) if max(tails) > _LABELS_TAIL_LIMIT else None

    return _integrate(FlowmapResult, config, grid, y,
                      lambda v, z: rk4(kernel, v, config.dt, kernel(v, z)), check,
                      lambda history, status: _group_rows(grid, history, status))


def reconstruct_f(model: Model, rho0: PeriodicField, times: np.ndarray,
                  jacobians: np.ndarray) -> PeriodicField:
    """Quadrature reconstruction of the function component.

    f(t) = rho0 * integral_0^t ds / phi_x(s)   (CH family)
    f(t) = rho0 * integral_0^t ds / phi_x(s)^2 (DP family)

    pointwise in the Lagrangian label; composite Simpson over the kept
    steps (`_simpson`), fourth order in their time step, so with every step
    kept (`diagnostics_stride=1`) it matches the integrator's accuracy.
    """
    if not np.all(jacobians > 0.0):  # NaN included
        raise ValueError("jacobian history must stay positive")
    power = 1 if model.has_metric else 2
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
    every `stride`-th kept row that has a map and the last of those
    (stride: an integer >= 1).  The last row of a 'labels_folded' run has
    no map (`_group_rows`), so its drift is not sampled.  DP tracks
    neither and returns {} without sampling any step.

    Per sampled row, one rfft gives the spectra of rho and m = helmholtz(u),
    phi_x is 1 + the row's psi_x, taken here with f_x from one rfft and one
    irfft of (psi, f), and both series are evaluated at
    phi = id + psi one block of points at a time, by one `apply_series_matrix`
    call on the block's plan, of at most `_PLAN_BYTES`: O(n + block) memory.
    """
    if not isinstance(stride, (int, np.integer)):
        raise ValueError(f"stride must be an integer, got {stride!r}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    model = result.model
    keys = [key for key, on in (("rho0", model.two_component), ("m0", model.has_metric)) if on]
    if not keys:
        return {}
    grid = result.grid
    count = len(result.times) - (result.status.reason == "labels_folded")
    indices = sorted({*range(0, count, stride), count - 1})
    rho_power = 1 if model.has_metric else 2
    # Rows 0-1 are dealiased every step, so rho needs the modes up to the
    # cutoff only.  m = helmholtz(u) keeps every mode, as the coadjoint
    # action it tracks does: helmholtz scales the round-off above the cutoff
    # by up to 1 + (pi n)^2, and truncating it would show in the m0 drift,
    # a small difference of O(1) values.
    kmax = grid.n // 2 if model.has_metric else grid.dealias_cutoff
    block = max(1, _PLAN_BYTES // (16 * (kmax + 1)))
    # The rows of (rho, m) that `keys` name, and the multipliers from (rho, u) to them.
    tracked = slice(0 if model.two_component else 1, 2 if model.has_metric else 1)
    to_momenta = np.stack((np.ones_like(grid.helmholtz_symbol), grid.helmholtz_symbol))[tracked]

    deviations, first = [], None
    for i in indices:
        hats = np.fft.rfft(np.stack((result.rho[i], result.u[i]))[tracked]) * to_momenta
        phi = grid.points + result.psi[i]
        psi_x, f_x = _slopes(grid, np.stack((result.psi[i], result.f[i])))
        jac = 1.0 + psi_x
        at_phi = np.hstack([apply_series_matrix(series_matrix(grid, phi[j:j + block], kmax), hats)
                            for j in range(0, grid.n, block)])
        q, rho_w = [], 0.0  # rho = 0 on one-component models
        if model.two_component:
            rho_w = at_phi[0]
            q.append(rho_w * jac**rho_power)
        if model.has_metric:
            # (m o phi) phi_x^2 + (rho o phi) f_x phi_x, the velocity part
            # of Ad*_(phi,f)(m, rho); arrays, so a row with phi_x <= 0 serves.
            q.append(at_phi[-1] * jac**2 + rho_w * f_x * jac)
        first = q if first is None else first
        deviations.append([np.max(np.abs(a - b)) for a, b in zip(q, first)])

    return {key: np.array(column) for key, column in zip(keys, zip(*deviations))}
