import warnings

import numpy as np
import pytest

import object_form
from object_form import euler_rhs
from chdp import rigidbody
from chdp.rigidbody import (
    RigidBodyState,
    _AttitudeError,
    _reorthonormalize,
    _trajectory_bytes,
    coadjoint_drift,
    conservation_drifts,
    evolve_rigidbody,
    hat,
)


class TestHat:
    def test_zero(self):
        assert np.array_equal(hat([0, 0, 0]), np.zeros((3, 3)))

    def test_unit_x(self):
        m = hat([1, 0, 0])
        assert m[1, 2] == -1.0 and m[2, 1] == 1.0
        assert np.max(np.abs(m + m.T)) == 0.0

    def test_cross_product_identity(self, rng):
        for _ in range(10):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert np.max(np.abs(hat(x) @ y - np.cross(x, y))) <= 1e-14

    def test_entries_are_the_components(self, rng):
        for _ in range(10):
            x = rng.standard_normal(3)
            x[rng.integers(3)] = 0.0
            assert np.array_equal(hat(x), [[0.0, -x[2], x[1]],
                                           [x[2], 0.0, -x[0]],
                                           [-x[1], x[0], 0.0]])


class TestEulerRhs:
    def test_spherical_inertia(self, rng):
        state = RigidBodyState.from_rest_attitude(rng.standard_normal(3), [2.0, 2.0, 2.0])
        assert np.max(np.abs(euler_rhs(state))) <= 1e-15

    def test_principal_axis_equilibrium(self):
        state = RigidBodyState.from_rest_attitude([0.0, 3.0, 0.0], [1.0, 2.0, 3.0])
        assert np.max(np.abs(euler_rhs(state))) == 0.0

    def test_hand_computed_value(self):
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert np.allclose(euler_rhs(state), [-1.0, 1.0, -1.0 / 3.0], atol=1e-15)

    def test_stepper_rates_match(self, rng):
        # |Omega| <= 1 and I in [0.5, 2] keep every rate below 2, so 1e-15 is
        # a few ulps.
        for _ in range(200):
            attitude = _random_rotation(rng)
            state = RigidBodyState(attitude, rng.uniform(-0.5, 0.5, 3), rng.uniform(0.5, 2.0, 3))
            rates = object_form.stacked_rates(object_form.stacked_state(state), state.inertia)
            assert np.max(np.abs(rates[0] / state.inertia - euler_rhs(state))) <= 1e-15
            assert np.max(np.abs(rates[1:] - attitude @ hat(state.omega))) <= 1e-15


class TestStateValidation:
    def test_rejects_non_orthogonal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="orthogonal"):
            RigidBodyState(bad, np.ones(3), np.ones(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            RigidBodyState(refl, np.ones(3), np.ones(3))

    def test_rejects_bad_inertia(self):
        with pytest.raises(ValueError, match="inertia"):
            RigidBodyState.from_rest_attitude(np.ones(3), [1.0, -2.0, 3.0])

    @pytest.mark.parametrize("attitude, omega, inertia, name", [
        (np.eye(3), [np.nan, 1.0, 1.0], [1.0, 2.0, 3.0], "omega"),
        (np.eye(3), [1.0, 1.0, 1.0], [1.0, np.inf, 3.0], "inertia"),
        (np.eye(3), [1.0, 1.0, 1.0], [np.nan, 2.0, 3.0], "inertia"),
        (np.full((3, 3), np.nan), [1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "attitude"),
        (np.diag([1.0, 1.0, np.inf]), [1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "attitude"),
    ], ids=["omega_nan", "inertia_inf", "inertia_nan", "attitude_nan", "attitude_inf"])
    def test_rejects_non_finite(self, attitude, omega, inertia, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RigidBodyState(attitude, omega, inertia)

    def test_rejects_overflowing_body_momentum(self):
        # Finite inertia and omega whose product I * Omega overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="body momentum inertia \\* omega must be finite"):
                RigidBodyState.from_rest_attitude([1e10, 1.0, 1.0], [1e300, 1e300, 1e300])


@pytest.fixture(scope="module")
def reference_run():
    state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    return evolve_rigidbody(state, dt=1e-3, t_end=10.0)


def _benchmark_spin(seed):
    """The spin of the benchmark's `rigidbody` workload for a seed (dt 1e-3, t 5)."""
    rng = np.random.default_rng(seed)
    inertia = np.array([1.0, 2.0, 3.0]) + rng.uniform(-0.4, 0.4, 3)
    omega = rng.standard_normal(3)
    omega *= np.sqrt(3.0) / np.linalg.norm(omega)
    return RigidBodyState.from_rest_attitude(omega, inertia)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _with_entry(mat, index, value):
    mat = mat.copy()
    mat[index] = value
    return mat


class TestReorthonormalize:
    def test_matches_svd_polar_factor(self, rng):
        worst_polar = worst_defect = 0.0
        for scale in np.geomspace(1e-16, 0.1, 31):
            for _ in range(20):
                mat = _random_rotation(rng) + scale * rng.standard_normal((3, 3))
                rot = _reorthonormalize(mat)
                worst_polar = max(worst_polar, np.max(np.abs(
                    rot - object_form.svd_polar_factor(mat))))
                worst_defect = max(worst_defect, np.max(np.abs(rot.T @ rot - np.eye(3))))
        assert worst_polar <= 1e-14
        assert worst_defect <= 1e-15

    def test_rotation_returned_unchanged(self):
        assert np.array_equal(_reorthonormalize(np.eye(3)), np.eye(3))

    # A non-finite entry makes det R non-finite and is rejected before any
    # Gram product.  one_nan: a single NaN.  one_inf: an inf with no zero to
    # multiply it by.  eye_inf and eye_neg_inf: an inf beside zeros, whose
    # inf * 0 in a Gram product would warn.
    @pytest.mark.parametrize("mat, message", [
        (1.5 * np.eye(3), "from orthonormal"),
        (np.diag([1.0, 1.0, -1.0]), "determinant"),
        (np.full((3, 3), np.nan), "is non-finite, far from orthonormal"),
        (_with_entry(np.eye(3), (2, 1), np.nan), "is non-finite, far from orthonormal"),
        (_with_entry(np.ones((3, 3)), (2, 1), -np.inf), "is non-finite, far from orthonormal"),
        (_with_entry(np.eye(3), (2, 1), np.inf), "is non-finite, far from orthonormal"),
        (_with_entry(np.eye(3), (0, 2), -np.inf), "is non-finite, far from orthonormal"),
    ], ids=["far", "reflection", "nan", "one_nan", "one_inf", "eye_inf", "eye_neg_inf"])
    def test_rejects_what_it_cannot_project(self, mat, message):
        with pytest.raises(ValueError, match=message):
            _reorthonormalize(mat)

    def test_stack_matches_single_calls(self, rng):
        # Rows that take no iteration, one, and several.
        stack = np.array([_random_rotation(rng) + scale * rng.standard_normal((3, 3))
                          for scale in (0.0, 1e-15, 1e-12, 1e-6, 1e-2, 0.1) for _ in range(4)])
        projected = _reorthonormalize(stack)
        assert projected.shape == stack.shape
        for mat, rot in zip(stack, projected):
            assert np.array_equal(rot, _reorthonormalize(mat))

    @pytest.mark.parametrize("bad, message", [
        (1.5 * np.eye(3), "attitude is 1.25 from orthonormal"),
        (np.diag([1.0, 1.0, -1.0]), "determinant"),
        (_with_entry(np.eye(3), (2, 1), np.nan), "is non-finite, far from orthonormal"),
    ], ids=["far", "reflection", "nan"])
    def test_stack_names_its_first_bad_row(self, rng, bad, message):
        stack = np.array([_random_rotation(rng) for _ in range(8)])
        stack[3] = bad
        stack[6] = 2.0 * np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_AttitudeError, match=message) as info:
                _reorthonormalize(stack)
        assert info.value.row == 3


class TestEvolve:
    def test_principal_axis_rotation(self):
        state = RigidBodyState.from_rest_attitude([2.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        traj = evolve_rigidbody(state, dt=1e-2, t_end=1.0)
        assert np.max(np.abs(traj.omega - traj.omega[0])) <= 1e-12
        # uniform rotation about axis 1: R(t) e1 = e1
        assert np.max(np.abs(traj.attitude[:, :, 0] - np.array([1.0, 0.0, 0.0]))) <= 1e-9

    def test_spatial_momentum_constant(self, reference_run):
        drift = np.max(np.linalg.norm(
            reference_run.spatial_momentum - reference_run.spatial_momentum[0], axis=1))
        assert drift <= 1e-8

    def test_energy_and_casimir_constant(self, reference_run):
        energy_drift = np.max(np.abs(reference_run.energy - reference_run.energy[0]))
        assert energy_drift <= 1e-8
        casimir = np.einsum("ti,ti->t", reference_run.body_momentum,
                            reference_run.body_momentum)
        assert np.max(np.abs(casimir - casimir[0])) <= 1e-8

    def test_attitude_stays_orthonormal(self, reference_run):
        sample = reference_run.attitude[::500]
        defects = [np.max(np.abs(r.T @ r - np.eye(3))) for r in sample]
        assert max(defects) <= 1e-9

    def test_matches_cross_product_svd_oracle(self, reference_run):
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        oracle = object_form.rigidbody_trajectory(state, dt=1e-3, t_end=10.0)
        assert np.array_equal(reference_run.times, oracle.times)
        for name in ("omega", "attitude", "spatial_momentum", "energy"):
            assert np.max(np.abs(getattr(reference_run, name) - getattr(oracle, name))) <= 1e-12

    @pytest.mark.parametrize("spin, t_end", [
        (RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), 10.0),
        (_benchmark_spin(7), 5.0),
    ], ids=["reference", "benchmark_seed7"])
    def test_matches_stacked_rk4_oracle(self, spin, t_end):
        # The same RK4 step as the stacked form's, in exact arithmetic: only
        # the rounding differs.
        run = evolve_rigidbody(spin, dt=1e-3, t_end=t_end)
        oracle = object_form.stacked_trajectory(spin, dt=1e-3, t_end=t_end)
        assert np.array_equal(run.times, oracle.times)
        for name in ("omega", "attitude", "energy"):
            assert np.max(np.abs(getattr(run, name) - getattr(oracle, name))) <= 1e-14

    def test_one_hat_per_stage(self, monkeypatch):
        # The count the benchmark's traced rigid-body run pins: four per step.
        calls = []

        def counted(x):
            calls.append(x)
            return hat(x)

        monkeypatch.setattr(rigidbody, "hat", counted)
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        evolve_rigidbody(state, dt=1e-2, t_end=3.0)
        assert len(calls) == 4 * 300

    def test_block_size_leaves_the_run_unchanged(self, monkeypatch):
        # Each block starts from the carried attitude, not the projected one,
        # so where the blocks end changes no bit.
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        runs = {}
        for rows in (1, 7, 256):
            monkeypatch.setattr(rigidbody, "_BLOCK_ROWS", rows)
            runs[rows] = evolve_rigidbody(state, dt=1e-3, t_end=2.0)
            with pytest.raises(ValueError, match=r"step 123 with dt=0\.5: "):
                evolve_rigidbody(state, dt=0.5, t_end=200.0)
        for rows in (1, 7):
            for name, value in vars(runs[256]).items():
                assert np.array_equal(getattr(runs[rows], name), value), (rows, name)

    def test_times_are_step_multiples(self):
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        traj = evolve_rigidbody(state, dt=0.1, t_end=3.0)
        assert traj.times.tolist() == [step * 0.1 for step in range(31)]

    def test_trajectory_bytes_are_the_run_arrays(self):
        # The arrays a run holds, views counted once through their base.
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        traj = evolve_rigidbody(state, dt=0.1, t_end=3.0)
        owners = {id(a): a for a in (v if v.base is None else v.base
                                     for v in vars(traj).values())}
        assert sum(a.nbytes for a in owners.values()) == _trajectory_bytes(30)

    def test_overflowed_energy_drift_is_not_a_number(self):
        # I * Omega is 1e300, finite; the energy Omega . I Omega overflows.
        state = RigidBodyState.from_rest_attitude([1e100, 0.0, 0.0], [1e200, 1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drifts = conservation_drifts(evolve_rigidbody(state, dt=1e-101, t_end=2e-101))
        assert np.isnan(drifts["energy_drift"])
        assert drifts["pi_drift"] == drifts["coadjoint_drift"] == 0.0

    def test_conservation_drifts(self, reference_run):
        drifts = conservation_drifts(reference_run)
        assert set(drifts) == {"pi_drift", "energy_drift", "casimir_drift", "coadjoint_drift"}
        assert max(drifts.values()) <= 1e-8
        assert drifts["coadjoint_drift"] == coadjoint_drift(reference_run)

    def test_large_dt_orthonormal(self):
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        traj = evolve_rigidbody(state, dt=0.5, t_end=8.0)
        # R^T R by the products the projection stops on.
        gram = traj.attitude.transpose(0, 2, 1) @ traj.attitude
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-15

    def test_omega_and_energy_do_not_read_the_attitude(self, rng):
        # Row 0 of the stepped state, the body momentum, depends on row 0
        # alone: the premise that lets the attitude be projected after the
        # step, not inside it.
        runs = [evolve_rigidbody(RigidBodyState(attitude, [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                 dt=1e-2, t_end=3.0)
                for attitude in (np.eye(3), _random_rotation(rng))]
        assert np.array_equal(runs[0].omega, runs[1].omega)
        assert np.array_equal(runs[0].energy, runs[1].energy)

    def test_kept_attitudes_orthonormal(self, reference_run):
        # R^T R by the products the projection stops on.
        attitude = reference_run.attitude
        gram = attitude.transpose(0, 2, 1) @ attitude
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-15

    # Stability is judged on the attitude the loop carries, which no step
    # projects: these runs leave the stable region where a step's own
    # propagator does not.
    @pytest.mark.parametrize("dt, t_end, step", [(0.5, 200.0, 123), (0.8, 40.0, 11),
                                                 (1.0, 40.0, 4)])
    def test_carried_attitude_past_stability_rejected(self, dt, t_end, step):
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=rf"step {step} with dt={dt!r}: attitude is 0\.5\d* "
                                             rf"from orthonormal .*; reduce dt"):
            evolve_rigidbody(state, dt=dt, t_end=t_end)

    def test_dt_past_stability_rejected(self):
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError,
                           match=r"step 1 with dt=2\.0: attitude is 13 from orthonormal"):
            evolve_rigidbody(state, dt=2.0, t_end=8.0)

    def test_coadjoint_drift_small(self, reference_run):
        assert coadjoint_drift(reference_run) <= 1e-8

    def test_coadjoint_drift_spherical(self):
        state = RigidBodyState.from_rest_attitude([0.3, -0.2, 0.5], [2.0, 2.0, 2.0])
        traj = evolve_rigidbody(state, dt=1e-2, t_end=2.0)
        assert coadjoint_drift(traj) <= 1e-10

    def test_coadjoint_drift_zero_velocity(self):
        state = RigidBodyState.from_rest_attitude([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        traj = evolve_rigidbody(state, dt=1e-2, t_end=1.0)
        assert coadjoint_drift(traj) == 0.0

    def test_rk4_order_on_omega(self):
        state = RigidBodyState.from_rest_attitude([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

        def final_omega(dt):
            return evolve_rigidbody(state, dt=dt, t_end=2.0).omega[-1]

        ref = final_omega(5e-4)
        e1 = np.linalg.norm(final_omega(8e-3) - ref)
        e2 = np.linalg.norm(final_omega(4e-3) - ref)
        assert 14.0 <= e1 / e2 <= 18.0
