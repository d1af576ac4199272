"""Free rigid body: the finite-dimensional calibration instance.

The same geodesic structure as the PDE models, on the rotation group: the
body angular velocity solves I dOmega/dt = (I Omega) x Omega, the attitude
solves dR/dt = R hat(Omega), and the spatial angular momentum pi = R I Omega
is constant.  Body and spatial momenta are exchanged by the (co)adjoint
action, here plain rotation of 3-vectors, so Pi(t) = R(t)^T pi(0) along
exact solutions; `coadjoint_drift` measures the numerical violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chdp.evolution import rk4, step_count

__all__ = [
    "RigidBodyState",
    "RigidBodyTrajectory",
    "hat",
    "euler_rhs",
    "evolve_rigidbody",
    "coadjoint_drift",
]


def hat(x) -> np.ndarray:
    """Antisymmetric matrix of a 3-vector: hat(x) @ y = x cross y."""
    x = np.asarray(x, dtype=float)
    return np.array([
        [0.0, -x[2], x[1]],
        [x[2], 0.0, -x[0]],
        [-x[1], x[0], 0.0],
    ])


@dataclass(frozen=True)
class RigidBodyState:
    """Attitude R in SO(3), body angular velocity, principal inertia moments."""

    attitude: np.ndarray
    omega: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        attitude = np.asarray(self.attitude, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        inertia = np.asarray(self.inertia, dtype=float)
        if attitude.shape != (3, 3) or omega.shape != (3,) or inertia.shape != (3,):
            raise ValueError("attitude must be 3x3; omega and inertia 3-vectors")
        if np.max(np.abs(attitude.T @ attitude - np.eye(3))) > 1e-9:
            raise ValueError("attitude is not orthogonal to 1e-9")
        if np.linalg.det(attitude) <= 0:
            raise ValueError("attitude must have determinant +1")
        if np.any(inertia <= 0):
            raise ValueError("inertia moments must be positive")
        object.__setattr__(self, "attitude", attitude)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "inertia", inertia)

    @classmethod
    def from_rest_attitude(cls, omega, inertia) -> "RigidBodyState":
        return cls(np.eye(3), omega, inertia)


def euler_rhs(state: RigidBodyState) -> np.ndarray:
    """dOmega/dt = I^{-1} ((I Omega) x Omega)."""
    momentum = state.inertia * state.omega
    return np.cross(momentum, state.omega) / state.inertia


@dataclass
class RigidBodyTrajectory:
    times: np.ndarray
    omega: np.ndarray             # (T, 3) body angular velocity
    attitude: np.ndarray          # (T, 3, 3)
    body_momentum: np.ndarray     # (T, 3) Pi = I Omega
    spatial_momentum: np.ndarray  # (T, 3) pi = R Pi
    energy: np.ndarray            # (T,)   Omega . I Omega


def _reorthonormalize(mat: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(mat)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        u[:, -1] = -u[:, -1]
        rot = u @ vt
    return rot


def evolve_rigidbody(state0: RigidBodyState, dt: float, t_end: float) -> RigidBodyTrajectory:
    """RK4 co-integration of (Omega, R), re-orthonormalizing R each step.

    `rk4` steps one (4, 3) array: Omega in row 0, R in rows 1-3.
    """
    inertia = state0.inertia
    n_steps = step_count(dt, t_end)

    def rhs(y):
        omega, attitude = y[0], y[1:]
        dy = np.empty((4, 3))
        dy[0] = np.cross(inertia * omega, omega) / inertia
        dy[1:] = attitude @ hat(omega)
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
        y[1:] = _reorthonormalize(y[1:])

    body_momentum = omegas * inertia
    spatial_momentum = np.einsum("tij,tj->ti", attitudes, body_momentum)
    energy = np.einsum("ti,ti->t", omegas, body_momentum)
    return RigidBodyTrajectory(times, omegas, attitudes, body_momentum,
                               spatial_momentum, energy)


def coadjoint_drift(trajectory: RigidBodyTrajectory) -> float:
    """max_t || Pi(t) - R(t)^T pi(0) ||: body-momentum transport residual."""
    pi0 = trajectory.spatial_momentum[0]
    transported = np.einsum("tji,j->ti", trajectory.attitude, pi0)
    return float(np.max(np.linalg.norm(trajectory.body_momentum - transported, axis=1)))
