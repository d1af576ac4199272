"""Object-form references, kept as oracles for the array kernels.

Each operation here builds `PeriodicField` objects and calls the
single-field spectral operators, one FFT at a time.  `chdp.evolution`,
`chdp.flowmap` and `chdp.curvature` compute the same quantities on stacked
arrays with batched FFTs; the tests compare the two to round-off.  The
rigid-body stepper here takes `np.cross` and the SVD polar factor of every
step, where `chdp.rigidbody` steps Euler's equation on three floats,
carries R by each step's RK4 propagator and projects the kept attitudes by
Newton-Schulz.  `stacked_trajectory` is the RK4 of the stacked state
z = [Pi; R] whose step `chdp.rigidbody` factors into those two parts.
`write_columns` is the `csv.writer` form of `chdp.csvio`'s joined writer,
and `rk4` the textbook sum that `chdp.evolution.rk4` computes in place.

The group operations of the semidirect product Diff(S^1) x C^inf(S^1)
(product, inverse, adjoint and coadjoint actions, body velocity) live
here too, on `GroupElement`s: the tests check the group identities on
them, and `chdp.flowmap.momentum_drift` against the coadjoint action.
`conserved_energy` and `mean_invariants` are the one-state forms of the
`DiagnosticsTable` columns, and `cosine_pair` samples a
`CosineDirectionPair` as two `VelocityPair`s.  `curvature_terms` and
`negative_search` take S field by field, from `chdp.connection`'s
`christoffel` of `Model.CH2` and `metric`.

Three views the tests read and no command runs live here as well:
`kernel_gram_determinant` (`chdp.curvature`'s Gram determinant of one
plane), `euler_rhs` (Euler's equation by `np.cross`, the oracle of row 0 of
`stacked_rates`) and `read_manifest` (a `run.json` as a
dict; NaN and infinities are rejected, as strict JSON parsers do).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from chdp.connection import Model, VelocityPair, christoffel, metric
from chdp.curvature import CosineDirectionPair, _plane
from chdp.evolution import step_count
from chdp.flowmap import GroupElement
from chdp.rigidbody import RigidBodyState, RigidBodyTrajectory, _reorthonormalize, hat
from chdp.spectral import (
    Diffeo,
    Grid,
    PeriodicField,
    apply_series_matrix,
    compose,
    cosine_field,
    dealias,
    dealiased_product,
    derivative,
    helmholtz,
    helmholtz_inverse,
    inner_l2,
    invert_diffeo,
    random_band_limited,
    series_matrix,
    zero_field,
)


def rk4(f, y, dt: float, k1=None):
    """One classical RK4 step of y' = f(y), the textbook sum, for any y with + and scalar *.

    The oracle of `chdp.evolution.rk4`, which sums in place in the same
    order and so gives the same bits on arrays.
    """
    k1 = f(y) if k1 is None else k1
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    plan = series_matrix(grid.points + state.psi.values, grid.dealias_cutoff)
    psi_dot, f_dot = apply_series_matrix(plan, np.stack((state.pair.u.hat, state.pair.rho.hat)))
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


def conserved_energy(state: VelocityPair) -> float:
    """Metric energy <(u, rho), (u, rho)>; constant along 2CH/CH solutions."""
    return metric(state, state)


def mean_invariants(state: VelocityPair) -> tuple[float, float]:
    """Integrals of m = A u and rho over the circle.

    Both are conserved by 2CH: rho_t is a perfect x-derivative, and
    m_t = -d/dx(u m + u^2/2 - u_x^2/2 + rho^2/2).
    """
    one = PeriodicField(state.grid, np.ones(state.grid.n))
    return inner_l2(helmholtz(state.u), one), inner_l2(state.rho, one)


@dataclass(frozen=True)
class BodyMomentum:
    """Coadjoint-transported momentum pair; constant along exact 2CH flows."""

    m0: PeriodicField
    rho0: PeriodicField


def identity_element(grid: Grid) -> GroupElement:
    return GroupElement(Diffeo(zero_field(grid)), zero_field(grid))


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
    """Ad*_(phi,f)(m, rho) = ((m o phi) phi_x^2 + (rho o phi) f_x phi_x, (rho o phi) phi_x).

    By the dense plan with every mode, in the operation order of
    `chdp.flowmap.momentum_drift`.
    """
    plan = series_matrix(g.phi.warped_points, g.phi.grid.n // 2)
    rho_w, m_w = apply_series_matrix(plan, np.stack((rho.hat, m.hat)))
    jac = g.phi.jacobian.values
    m0 = m_w * jac**2 + rho_w * derivative(g.f).values * jac
    return BodyMomentum(PeriodicField(g.phi.grid, m0), PeriodicField(g.phi.grid, rho_w * jac))


def body_velocity(g: GroupElement, phi_t: PeriodicField,
                  f_t: PeriodicField) -> VelocityPair:
    """Left translation of the material velocity to the algebra.

    U1 = phi_t / phi_x,  U2 = f_t - (f_x / phi_x) phi_t.
    """
    jac = g.phi.jacobian.values
    u1 = phi_t.values / jac
    u2 = f_t.values - derivative(g.f).values / jac * phi_t.values
    return VelocityPair(PeriodicField(g.phi.grid, u1), PeriodicField(g.phi.grid, u2))


def cosine_pair(grid: Grid, direction: CosineDirectionPair) -> tuple[VelocityPair, VelocityPair]:
    """Sample the direction pair on a grid that resolves it.

    Products of two directions reach mode 2 max_mode, which the dealias
    cutoff must keep for the oracle's S to be exact.
    """
    d = direction
    if grid.dealias_cutoff < 2 * d.max_mode:
        raise ValueError(f"n={grid.n} does not resolve curvature of modes up to {d.max_mode} "
                         f"(n >= {max(16, 6 * d.max_mode + 2)})")
    slots = [cosine_field(grid, m) if m else zero_field(grid)
             for m in (d.m_k1, d.m_k2, d.m_l1, d.m_l2)]
    return VelocityPair(*slots[:2]), VelocityPair(*slots[2:])


def curvature_terms(a: VelocityPair, b: VelocityPair) -> tuple[float, float]:
    """<Gamma(a, b), Gamma(a, b)> and <Gamma(a, a), Gamma(b, b)>; S is their difference."""
    gamma_ab = christoffel(Model.CH2, a, b)
    return metric(gamma_ab, gamma_ab), metric(christoffel(Model.CH2, a, a),
                                              christoffel(Model.CH2, b, b))


def gram_determinant(a: VelocityPair, b: VelocityPair) -> float:
    return metric(a, a) * metric(b, b) - metric(a, b) ** 2


def kernel_gram_determinant(a: VelocityPair, b: VelocityPair) -> float:
    """The Gram determinant of the plane of a and b from `chdp.curvature`'s evaluator."""
    return _plane(a, b)[1]


def negative_search(grid, rng, trials: int, max_mode: int) -> list[tuple[int, float]]:
    """(trial, Sec) of random band-limited planes, one trial and field at a time."""
    results = []
    for trial in range(trials):
        a = VelocityPair(random_band_limited(grid, rng, max_mode),
                         random_band_limited(grid, rng, max_mode))
        b = VelocityPair(random_band_limited(grid, rng, max_mode),
                         random_band_limited(grid, rng, max_mode))
        gram = gram_determinant(a, b)
        if gram <= 1e-12 * metric(a, a) * metric(b, b):
            continue
        first, second = curvature_terms(a, b)
        results.append((trial, (first - second) / gram))
    results.sort(key=lambda item: item[1])
    return results


def closed_form_curvature(m_k1: int, m_k2: int, m_l1: int, m_l2: int) -> float:
    """S on one cosine direction pair in Python floats, one Kronecker delta at a time.

    Velocity modes m_k1 = m_l1 = 0 mean zero velocity slots, where the
    velocity terms (CH term, I3, I4) are absent.
    """
    tau = 2.0 * np.pi
    a, b, c, e = tau * m_k1, tau * m_l1, tau * m_k2, tau * m_l2

    def delta(i, j):
        return 1.0 if i == j else 0.0

    i1 = ((c - e) ** 2 / (1 + (c - e) ** 2)
          + (c + e) ** 2 / (1 + (c + e) ** 2)) / 32.0
    i2 = -c**2 / (1 + (2 * c) ** 2) / 8.0 * delta(m_k2, m_l2)
    if m_k1 == 0:
        return sum((i1, i2, 0.0, 0.0))
    sum_deltas = (delta(m_k1 + m_l1, m_k2 - m_l2) + delta(m_k1 + m_l1, m_l2 - m_k2)
                  + delta(m_k1 + m_l1, m_k2 + m_l2))
    diff_deltas = (delta(m_k1 - m_l1, m_k2 - m_l2) + delta(m_k1 - m_l1, m_l2 - m_k2)
                   + delta(m_k1 - m_l1, m_k2 + m_l2) + delta(m_l1 - m_k1, m_k2 + m_l2))
    i3 = ((1 - 0.5 * a * b) * (a + b) ** 2 / (1 + (a + b) ** 2) / 8.0 * sum_deltas
          + (1 + 0.5 * a * b) * (a - b) ** 2 / (1 + (a - b) ** 2) / 8.0 * diff_deltas
          - a**2 / 4.0 * (1 - 0.5 * a**2) / (1 + (2 * a) ** 2) * delta(m_k1, m_l2)
          - b**2 / 4.0 * (1 - 0.5 * b**2) / (1 + (2 * b) ** 2) * delta(m_k2, m_l1))
    i4 = (a**2 / 16.0 * (1 - 0.5 * delta(m_k1, m_l2))
          + b**2 / 16.0 * (1 - 0.5 * delta(m_l1, m_k2))
          - a * b / 16.0 * (diff_deltas - sum_deltas))
    ch_term = 0.0
    if m_k1 != m_l1:
        k, l = a, b
        ch_term = ((1 + 0.5 * k * l) ** 2 / (1 + (k - l) ** 2) * (k - l) ** 2
                   + (1 - 0.5 * k * l) ** 2 / (1 + (k + l) ** 2) * (k + l) ** 2) / 8.0
    return ch_term + sum((i1, i2, i3, i4))


def svd_polar_factor(mat: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar factor via SVD, last column flipped for det < 0)."""
    u, _, vt = np.linalg.svd(mat)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        u[:, -1] = -u[:, -1]
        rot = u @ vt
    return rot


def euler_rhs(state: RigidBodyState) -> np.ndarray:
    """dOmega/dt = I^{-1} ((I Omega) x Omega), by `np.cross`."""
    inertia, omega = state.inertia, state.omega
    return np.cross(inertia * omega, omega) / inertia


def rigidbody_trajectory(state0: RigidBodyState, dt: float,
                         t_end: float) -> RigidBodyTrajectory:
    """RK4 of Euler's equation by `np.cross` and dR/dt = R hat(Omega), R re-projected by SVD."""
    inertia = state0.inertia
    n_steps = step_count(dt, t_end)

    def rhs(y):
        omega, attitude = y[0], y[1:]
        hat = np.array([[0.0, -omega[2], omega[1]],
                        [omega[2], 0.0, -omega[0]],
                        [-omega[1], omega[0], 0.0]])
        dy = np.empty((4, 3))
        dy[0] = np.cross(inertia * omega, omega) / inertia
        dy[1:] = attitude @ hat
        return dy

    y = np.vstack([state0.omega, state0.attitude])
    times = np.empty(n_steps + 1)
    omegas = np.empty((n_steps + 1, 3))
    attitudes = np.empty((n_steps + 1, 3, 3))
    for step in range(n_steps + 1):
        times[step] = step * dt
        omegas[step], attitudes[step] = y[0], y[1:]
        if step == n_steps:
            break
        y = rk4(rhs, y, dt)
        y[1:] = svd_polar_factor(y[1:])

    body_momentum = omegas * inertia
    spatial_momentum = np.einsum("tij,tj->ti", attitudes, body_momentum)
    energy = np.einsum("ti,ti->t", omegas, body_momentum)
    return RigidBodyTrajectory(times, omegas, attitudes, body_momentum,
                               spatial_momentum, energy)


def stacked_state(state: RigidBodyState) -> np.ndarray:
    """The stacked (4, 3) state z = [Pi; R], Pi = I Omega the body momentum."""
    return np.vstack([state.inertia * state.omega, state.attitude])


def stacked_rates(z: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """dz/dt = z hat(Omega), Omega = z[0] / I: row 0 Pi x Omega, rows 1-3 R hat(Omega)."""
    return z.dot(hat(z[0] / inertia))


def stacked_states(state0: RigidBodyState, dt: float, steps: int) -> np.ndarray:
    """The (steps + 1, 4, 3) states of `rk4` on the stacked equation; no R is projected."""
    z = stacked_state(state0)
    states = np.empty((steps + 1, 4, 3))
    states[0] = z
    for step in range(1, steps + 1):
        states[step] = z = rk4(lambda y: stacked_rates(y, state0.inertia), z, dt)
    return states


def stacked_trajectory(state0: RigidBodyState, dt: float, t_end: float) -> RigidBodyTrajectory:
    """`stacked_states` to t_end, each kept R after the first projected by `_reorthonormalize`."""
    n_steps = step_count(dt, t_end)
    states = stacked_states(state0, dt, n_steps)
    states[1:, 1:] = _reorthonormalize(states[1:, 1:])
    body_momentum, attitudes = states[:, 0], states[:, 1:]
    omegas = body_momentum / state0.inertia
    spatial_momentum = np.einsum("tij,tj->ti", attitudes, body_momentum)
    energy = np.einsum("ti,ti->t", omegas, body_momentum)
    return RigidBodyTrajectory(np.arange(n_steps + 1) * dt, omegas, attitudes,
                               body_momentum, spatial_momentum, energy)


def write_columns(path, header, columns):
    """Write columns under header with `csv.writer`, one Python value per cell."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_manifest(path) -> dict:
    """A `run.json` written by `chdp.csvio.write_manifest`, parsed as strict JSON."""
    with open(path) as handle:
        return json.load(handle, parse_constant=_reject_constant)
