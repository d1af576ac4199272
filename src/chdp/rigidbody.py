"""Free rigid body: the finite-dimensional calibration instance.

The same geodesic structure as the PDE models, on the rotation group: the
body momentum Pi = I Omega solves Euler's equation dPi/dt = Pi x Omega, the
attitude solves dR/dt = R hat(Omega), and the spatial angular momentum
pi = R Pi is constant.  Body and spatial momenta are exchanged by the
(co)adjoint action, here plain rotation of 3-vectors, so Pi(t) = R(t)^T pi(0)
along exact solutions; `coadjoint_drift` measures the numerical violation.

Euler's equation is the reduced one: it closes on Pi, the coadjoint
(Euler-Arnold) form on so(3)*, and the attitude is rebuilt from it
(Arnold, Ann. Inst. Fourier 16, 1966).  For a row vector r,
r @ hat(Omega) = r x Omega, so both equations are one product on the
stacked (4, 3) state z = [Pi; R]: dz/dt = z hat(Omega), Omega = Pi / I.
The stepper takes classical RK4 of that stacked equation in two parts.
Every stage rate is z_k A_k, A_k = hat(Omega_k), and Omega_k is fixed by
row 0 of the stage alone.  So one step is z_{n+1} = z_n P_n, by

    stage 1:  z A1
    stage 2:  (z + dt/2 z A1) A2         = z B2,  B2 = (I + dt/2 A1) A2
    stage 3:  (z + dt/2 z B2) A3         = z B3,  B3 = (I + dt/2 B2) A3
    stage 4:  (z + dt z B3) A4           = z B4,  B4 = (I + dt B3) A4
    z_{n+1} = z + dt/6 z (A1 + 2 B2 + 2 B3 + B4) = z P,
              P = I + (dt/6) (A1 + 2 B2 + 2 B3 + B4).

Row 0 of z P is RK4 of Pi' = Pi x Omega, stepped on three floats, and
rows 1-3 are R_{n+1} = R_n P_n.  In exact arithmetic this is the RK4 step
of the stacked state; only the rounding differs.  The stepper carries R
as the products leave it; the attitudes it keeps are projected onto SO(3)
in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chdp.evolution import step_count

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
    """RK4 of (Pi, R) as Pi on three floats and R by each step's propagator.

    The module docstring derives the step: classical RK4 of the stacked
    state z = [Pi; R] is z_{n+1} = z_n P_n, with P_n built from the four
    stage generators hat(Omega_k).  For each block of `_BLOCK_ROWS` steps
    the loop steps Euler's equation Pi' = Pi x Omega by that RK4 on Python
    floats, its sum in `evolution.rk4`'s order, one `hat` per stage; then
    it forms the block's P_n in batched 3x3 products and carries the
    attitude as R_{n+1} = R_n P_n, one product per step.  No step projects
    R, so `omega` and `energy` do not depend on R or on its projection.
    The kept attitudes are replaced by their polar factors as each block
    fills (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2nd
    ed., IV.4: projecting the output, not the step), and the next block
    starts from the carried R, not the projected one.  Stability is judged
    on the carried R: when a block holds an R too far from a rotation for
    the polar iteration, also one whose stages overflowed, ValueError
    names the first such step.  The loop runs under one `np.errstate` that
    silences overflow and invalid warnings, and Python floats overflow to
    inf and NaN with none, so the error is what the caller sees.  On the
    reference spin (inertia 1,2,3, omega 1,1,1), dt=2 fails at step 1,
    dt=1 at step 4, dt=0.8 at step 11 and dt=0.5 at step 123 (t=61.5),
    runs that a projection inside every step would let go on; dt=0.5 to
    t=8 completes.
    """
    n_steps = step_count(dt, t_end)
    inertia = state0.inertia
    i0, i1, i2 = inertia.tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    history = np.empty((n_steps + 1, 4, 3))
    history[0, 0] = inertia * state0.omega
    history[0, 1:] = state0.attitude
    p0, p1, p2 = history[0, 0].tolist()
    carried = state0.attitude
    # The four stage generators hat(Omega_k) of each step of a block.
    generators = np.empty((min(_BLOCK_ROWS, n_steps), 4, 3, 3))

    def rate(q0, q1, q2, gen, k):
        """Pi x Omega at the stage momentum q; hat(Omega) into gen[k]."""
        w0, w1, w2 = q0 / i0, q1 / i1, q2 / i2
        gen[k] = hat((w0, w1, w2))
        return q1 * w2 - q2 * w1, q2 * w0 - q0 * w2, q0 * w1 - q1 * w0

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_steps + 1)
            block = generators[:stop - start]
            momenta = []
            for gen in block:
                a0, a1, a2 = rate(p0, p1, p2, gen, 0)
                b0, b1, b2 = rate(half * a0 + p0, half * a1 + p1, half * a2 + p2, gen, 1)
                c0, c1, c2 = rate(half * b0 + p0, half * b1 + p1, half * b2 + p2, gen, 2)
                d0, d1, d2 = rate(dt * c0 + p0, dt * c1 + p1, dt * c2 + p2, gen, 3)
                p0 = (2.0 * b0 + a0 + 2.0 * c0 + d0) * sixth + p0
                p1 = (2.0 * b1 + a1 + 2.0 * c1 + d1) * sixth + p1
                p2 = (2.0 * b2 + a2 + 2.0 * c2 + d2) * sixth + p2
                momenta.append((p0, p1, p2))
            history[start:stop, 0] = momenta

            # A_k and B_k of the module docstring, one (block, 3, 3) stack each.
            gen1, gen2, gen3, gen4 = block.transpose(1, 0, 2, 3)
            prod2 = (half * gen1 + _EYE) @ gen2
            prod3 = (half * prod2 + _EYE) @ gen3
            prod4 = (dt * prod3 + _EYE) @ gen4
            propagators = (2.0 * prod2 + gen1 + 2.0 * prod3 + prod4) * sixth + _EYE
            attitude = carried
            for step, propagator in zip(range(start, stop), propagators):
                attitude = np.matmul(attitude, propagator, out=history[step, 1:])
            carried = attitude.copy()
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
