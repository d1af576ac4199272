"""Free rigid body: the finite-dimensional calibration instance.

The same geodesic structure as the PDE models, on the rotation group: the
body momentum Pi = I Omega solves Euler's equation dPi/dt = Pi x Omega, the
attitude solves dR/dt = R hat(Omega), and the spatial angular momentum
pi = R Pi is constant.  Body and spatial momenta are exchanged by the
(co)adjoint action, here plain rotation of 3-vectors, so Pi(t) = R(t)^T pi(0)
along exact solutions; `coadjoint_drift` measures the numerical violation.

For a row vector r, r @ hat(Omega) = r x Omega, so both equations are one
product on the stacked (4, 3) state z = [Pi; R]:
dz/dt = z hat(Omega) with Omega = Pi / I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chdp.evolution import rk4, step_count

__all__ = [
    "RigidBodyState",
    "RigidBodyTrajectory",
    "hat",
    "evolve_rigidbody",
    "coadjoint_drift",
    "conservation_drifts",
]

# hat(x)[i, j] = sum_k _HAT[i, j, k] x[k] = -epsilon_ijk x[k]; the zeros stay +0.0.
_HAT = np.zeros((3, 3, 3))
_HAT[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = -1.0
_HAT[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = 1.0

_EYE = np.eye(3)
# A step that leaves the attitude further than this from orthonormal
# (max |R^T R - I|) is past RK4's stability limit and is rejected.
_MAX_DEFECT = 0.5
_POLAR_TOL = 1e-15
_POLAR_MAX_ITERATIONS = 60


def hat(x) -> np.ndarray:
    """Antisymmetric matrix of a 3-vector: hat(x) @ y = x cross y."""
    return _HAT.dot(x)


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
        for name, value in (("attitude", attitude), ("omega", omega), ("inertia", inertia)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if not np.max(np.abs(attitude.T @ attitude - np.eye(3))) <= 1e-9:
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


def _stacked(state: RigidBodyState) -> np.ndarray:
    """The stepper's state z = [Pi; R], Pi = I Omega the body momentum."""
    return np.vstack([state.inertia * state.omega, state.attitude])


def _rates(z: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """dz/dt of the stacked state: row 0 Pi x Omega, rows 1-3 R hat(Omega)."""
    return z.dot(hat(z[0] / inertia))


@dataclass
class RigidBodyTrajectory:
    times: np.ndarray
    omega: np.ndarray             # (T, 3) body angular velocity
    attitude: np.ndarray          # (T, 3, 3)
    body_momentum: np.ndarray     # (T, 3) Pi = I Omega
    spatial_momentum: np.ndarray  # (T, 3) pi = R Pi
    energy: np.ndarray            # (T,)   Omega . I Omega


def _defect(gram: np.ndarray) -> float:
    """max |G - I| over the entries of a 3x3 Gram matrix, in Python floats.

    NaN if any entry is NaN: Python's `max` drops a NaN that is not its
    first argument, so the sum of the deviations, NaN exactly when one of
    them is (they are >= 0), decides that case.
    """
    (a, b, c), (d, e, f), (g, h, i) = gram.tolist()
    deviations = (abs(a - 1.0), abs(e - 1.0), abs(i - 1.0),
                  abs(b), abs(c), abs(d), abs(f), abs(g), abs(h))
    total = sum(deviations)
    return total if total != total else max(deviations)


def _reorthonormalize(mat: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix: the polar factor by Newton-Schulz iteration.

    R <- R (3I - R^T R) / 2 until max |R^T R - I| <= 1e-15 (Bjorck & Bowie,
    SIAM J. Numer. Anal. 8, 1971; Higham, SIAM J. Sci. Stat. Comput. 7,
    1986).  The map keeps the sign of det R and, for singular values s with
    s^2 < 3, drives every s to 1, quadratically near 1.  So `mat` must be
    within 0.5 of orthonormal (then every s^2 <= 2.5) with positive
    determinant; otherwise it raises ValueError.
    """
    (a, b, c), (d, e, f), (g, h, i) = mat.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # Every entry is a factor in det, which is finite unless an entry is not
    # (or it overflows).  A non-finite entry is rejected before the Gram
    # product, where inf * 0 would warn, as NaN if one is NaN, else inf.
    if math.isfinite(det):
        gram = mat.T.dot(mat)
        defect = _defect(gram)
    else:
        defect = abs(a) + abs(b) + abs(c) + abs(d) + abs(e) + abs(f) + abs(g) + abs(h) + abs(i)
    if not defect <= _MAX_DEFECT:
        raise ValueError(f"attitude is {defect:.3g} from orthonormal "
                         f"(max |R^T R - I| > {_MAX_DEFECT})")
    if det <= 0.0:
        raise ValueError("attitude has non-positive determinant")
    for _ in range(_POLAR_MAX_ITERATIONS):
        if defect <= _POLAR_TOL:
            return mat
        mat = 0.5 * (mat @ (3.0 * _EYE - gram))
        gram = mat.T.dot(mat)
        defect = _defect(gram)
    raise ValueError(f"polar iteration left the attitude {defect:.3g} from orthonormal "
                     f"after {_POLAR_MAX_ITERATIONS} iterations")


def _trajectory_bytes(n_steps: int) -> int:
    """Bytes of the arrays `evolve_rigidbody` holds for a run of n_steps.

    Per kept step: the (4, 3) stacked state of the history, whose rows are
    the body momentum and attitude, then omega and the spatial momentum
    (3 each), the energy and the time.
    """
    return 8 * (n_steps + 1) * (4 * 3 + 3 + 3 + 1 + 1)


def evolve_rigidbody(state0: RigidBodyState, dt: float, t_end: float) -> RigidBodyTrajectory:
    """RK4 co-integration of (Pi, R), re-orthonormalizing R each step.

    `rk4` steps the stacked (4, 3) state, one `hat` per stage.  A step that
    leaves R too far from a rotation for the polar iteration (dt past RK4's
    stability limit) raises ValueError naming the step, also when its
    stages overflowed: the loop runs under one `np.errstate` that silences
    overflow and invalid warnings, so the error is what the caller sees.
    """
    n_steps = step_count(dt, t_end)
    inertia = state0.inertia
    z = _stacked(state0)

    def rhs(z):
        return _rates(z, inertia)

    history = np.empty((n_steps + 1, 4, 3))
    history[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            z = rk4(rhs, z, dt)
            try:
                z[1:] = _reorthonormalize(z[1:])
            except ValueError as exc:
                raise ValueError(f"rigid-body step {step} with dt={dt!r}: {exc}; "
                                 f"reduce dt") from None
            history[step] = z

    body_momentum, attitudes = history[:, 0], history[:, 1:]
    omegas = body_momentum / inertia
    spatial_momentum = np.einsum("tij,tj->ti", attitudes, body_momentum)
    energy = np.einsum("ti,ti->t", omegas, body_momentum)
    return RigidBodyTrajectory(np.arange(n_steps + 1) * dt, omegas, attitudes,
                               body_momentum, spatial_momentum, energy)


def coadjoint_drift(trajectory: RigidBodyTrajectory) -> float:
    """max_t || Pi(t) - R(t)^T pi(0) ||: body-momentum transport residual."""
    pi0 = trajectory.spatial_momentum[0]
    transported = np.einsum("tji,j->ti", trajectory.attitude, pi0)
    return float(np.max(np.linalg.norm(trajectory.body_momentum - transported, axis=1)))


def conservation_drifts(trajectory: RigidBodyTrajectory) -> dict[str, float]:
    """Largest departures from t=0 of the invariants, plus the coadjoint residual.

    Keys: pi_drift (max ||pi(t) - pi(0)||), energy_drift, casimir_drift
    (|Pi|^2) and coadjoint_drift.
    """
    casimir = np.einsum("ti,ti->t", trajectory.body_momentum, trajectory.body_momentum)
    pi = trajectory.spatial_momentum
    return {
        "pi_drift": float(np.max(np.linalg.norm(pi - pi[0], axis=1))),
        "energy_drift": float(np.max(np.abs(trajectory.energy - trajectory.energy[0]))),
        "casimir_drift": float(np.max(np.abs(casimir - casimir[0]))),
        "coadjoint_drift": coadjoint_drift(trajectory),
    }
