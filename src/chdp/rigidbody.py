"""Free rigid body: the finite-dimensional calibration instance.

The same geodesic structure as the PDE models, on the rotation group: the
body momentum Pi = I Omega solves Euler's equation dPi/dt = Pi x Omega, the
attitude solves dR/dt = R hat(Omega), and the spatial angular momentum
pi = R Pi is constant.  Body and spatial momenta are exchanged by the
(co)adjoint action, here plain rotation of 3-vectors, so Pi(t) = R(t)^T pi(0)
along exact solutions; `coadjoint_drift` measures the numerical violation.

For a row vector r, r @ hat(Omega) = r x Omega, so both equations are one
product on the stacked (4, 3) state z = [Pi; R]:
dz/dt = z hat(Omega) with Omega = Pi / I.  The stepper carries R as RK4
leaves it; the attitudes it keeps are projected onto SO(3) in blocks.
"""

from __future__ import annotations

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
# A carried attitude further than this from orthonormal (max |R^T R - I|)
# is past RK4's stability limit and is rejected.
_MAX_DEFECT = 0.5
_POLAR_TOL = 1e-15
_POLAR_MAX_ITERATIONS = 60
# Kept steps whose attitudes are projected together: bounds the projection's
# temporaries, and how far a run steps past the first step it rejects.
_BLOCK_ROWS = 256


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
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(inertia * omega)):
                raise ValueError("body momentum inertia * omega must be finite")
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


class _AttitudeError(ValueError):
    """An attitude `_reorthonormalize` cannot project; `row` is its index in the stack."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _defects(gram: np.ndarray) -> np.ndarray:
    """max |G - I| of each Gram matrix of a (k, 3, 3) stack; NaN where an entry is NaN."""
    return np.abs(gram - _EYE).reshape(-1, 9).max(axis=1)


def _reorthonormalize(mats: np.ndarray) -> np.ndarray:
    """Nearest rotation matrices: polar factors by Newton-Schulz iteration.

    `mats` is one (3, 3) matrix or a (k, 3, 3) stack, and the result has
    its shape.  Each matrix is iterated R <- R (3I - R^T R) / 2 until its
    own max |R^T R - I| <= 1e-15 (Bjorck & Bowie, SIAM J. Numer. Anal. 8,
    1971; Higham, SIAM J. Sci. Stat. Comput. 7, 1986).  `@` multiplies a
    stack one matrix at a time, so a matrix's result has the bits of a
    call on it alone, and R^T R has the bits of `R.T @ R`.  The map keeps
    the sign of det R and, for singular values s with s^2 < 3, drives every
    s to 1, quadratically near 1.  So each matrix must be within 0.5 of
    orthonormal (then every s^2 <= 2.5) with positive determinant;
    otherwise `_AttitudeError` names the first that is not.  The work runs
    under one `np.errstate`, so a non-finite matrix raises with no
    RuntimeWarning.
    """
    shape = np.shape(mats)
    stack = np.array(mats, dtype=float).reshape(-1, 3, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        r0, r1, r2 = stack[:, 0], stack[:, 1], stack[:, 2]
        # det R = r0 . (r1 x r2): every entry is a factor in it, so it is
        # finite unless an entry is not (or it overflows).
        det = (r0[:, 0] * (r1[:, 1] * r2[:, 2] - r1[:, 2] * r2[:, 1])
               - r0[:, 1] * (r1[:, 0] * r2[:, 2] - r1[:, 2] * r2[:, 0])
               + r0[:, 2] * (r1[:, 0] * r2[:, 1] - r1[:, 1] * r2[:, 0]))
        gram = stack.transpose(0, 2, 1) @ stack
        defect = _defects(gram)
        bad = ~(np.isfinite(det) & (defect <= _MAX_DEFECT) & (det > 0.0))
        if bad.any():
            row = int(bad.argmax())
            # A non-finite matrix is named so: its distance from orthonormal
            # would print as inf or nan.
            if not np.isfinite(det[row]):
                message = "attitude is non-finite, far from orthonormal"
            elif not defect[row] <= _MAX_DEFECT:
                message = f"attitude is {defect[row]:.3g} from orthonormal"
            else:
                raise _AttitudeError(row, "attitude has non-positive determinant")
            raise _AttitudeError(row, f"{message} (max |R^T R - I| > {_MAX_DEFECT})")
        # The iterates not yet converged, their indices in the stack and Gram matrices.
        active = np.flatnonzero(defect > _POLAR_TOL)
        iterates, gram = stack[active], gram[active]
        for _ in range(_POLAR_MAX_ITERATIONS):
            if not active.size:
                return stack.reshape(shape)
            iterates = 0.5 * (iterates @ (3.0 * _EYE - gram))
            gram = iterates.transpose(0, 2, 1) @ iterates
            defect = _defects(gram)
            done = defect <= _POLAR_TOL
            stack[active[done]] = iterates[done]
            more = ~done
            active, iterates, gram, defect = (active[more], iterates[more], gram[more],
                                              defect[more])
    raise _AttitudeError(int(active[0]), f"polar iteration left the attitude {defect[0]:.3g} "
                         f"from orthonormal after {_POLAR_MAX_ITERATIONS} iterations")


def _trajectory_bytes(n_steps: int) -> int:
    """Bytes of the arrays `evolve_rigidbody` holds for a run of n_steps.

    Per kept step: the (4, 3) stacked state of the history, whose rows are
    the body momentum and attitude, then omega and the spatial momentum
    (3 each), the energy and the time.
    """
    return 8 * (n_steps + 1) * (4 * 3 + 3 + 3 + 1 + 1)


def evolve_rigidbody(state0: RigidBodyState, dt: float, t_end: float) -> RigidBodyTrajectory:
    """RK4 co-integration of (Pi, R); each kept R is projected onto SO(3).

    `rk4` steps the stacked (4, 3) state, one `hat` per stage, and the loop
    carries that state as it comes from the step: no step projects R.  Row
    0, the body momentum, evolves by itself (its rate reads row 0 alone),
    so `omega` and `energy` do not depend on R or on its projection.  The
    kept attitudes are replaced by their polar factors `_BLOCK_ROWS` steps
    at a time, as each block fills (Hairer, Lubich & Wanner, Geometric
    Numerical Integration, 2nd ed., IV.4: projecting the output, not the
    step).  Stability is judged on the carried R: when a block holds an R
    too far from a rotation for the polar iteration, also one whose stages
    overflowed, ValueError names the first such step.  The loop runs under
    one `np.errstate` that silences overflow and invalid warnings, so the
    error is what the caller sees.  On the reference spin (inertia 1,2,3,
    omega 1,1,1), dt=2 fails at step 1, dt=1 at step 4, dt=0.8 at step 11
    and dt=0.5 at step 123 (t=61.5), runs that a projection inside every
    step would let go on; dt=0.5 to t=8 completes.
    """
    n_steps = step_count(dt, t_end)
    inertia = state0.inertia
    z = _stacked(state0)

    def rhs(z):
        return _rates(z, inertia)

    history = np.empty((n_steps + 1, 4, 3))
    history[0] = z
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_steps + 1)
            for step in range(start, stop):
                history[step] = z = rk4(rhs, z, dt)
            try:
                history[start:stop, 1:] = _reorthonormalize(history[start:stop, 1:])
            except _AttitudeError as exc:
                raise ValueError(f"rigid-body step {start + exc.row} with dt={dt!r}: {exc}; "
                                 f"reduce dt") from None

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
    (|Pi|^2) and coadjoint_drift.  A drift of invariants that overflowed
    (the energy of a momentum near 1e300) is inf or NaN, with no
    RuntimeWarning.
    """
    casimir = np.einsum("ti,ti->t", trajectory.body_momentum, trajectory.body_momentum)
    pi = trajectory.spatial_momentum
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "pi_drift": float(np.max(np.linalg.norm(pi - pi[0], axis=1))),
            "energy_drift": float(np.max(np.abs(trajectory.energy - trajectory.energy[0]))),
            "casimir_drift": float(np.max(np.abs(casimir - casimir[0]))),
            "coadjoint_drift": coadjoint_drift(trajectory),
        }
