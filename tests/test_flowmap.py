import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

import object_form
from object_form import (
    adjoint_action,
    body_velocity,
    coadjoint_action,
    group_inverse,
    group_product,
    identity_element,
)
from chdp import flowmap
from chdp.connection import Model, VelocityPair, bracket
from chdp.evolution import EvolutionConfig, _kernel, _Kernel, _points, evolve, rk4
from chdp.flowmap import GroupElement, evolve_flowmap, momentum_drift, reconstruct_f
from chdp.spectral import (
    Diffeo,
    Grid,
    PeriodicField,
    compose,
    cosine_field,
    derivative,
    helmholtz,
    inner_l2,
    invert_diffeo,
    random_band_limited,
    zero_field,
)


def random_element(grid, rng, amp=0.02):
    psi = random_band_limited(grid, rng, 3, scale=amp)
    f = random_band_limited(grid, rng, 4, scale=0.5)
    return GroupElement(Diffeo(psi), f)


def random_pair(grid, rng, max_mode=5, scale=0.5):
    return VelocityPair(random_band_limited(grid, rng, max_mode, scale),
                        random_band_limited(grid, rng, max_mode, scale))


class TestGroup:
    def test_identity(self, grid128, rng):
        a = random_element(grid128, rng)
        e = identity_element(grid128)
        prod = group_product(a, e)
        assert np.max(np.abs(prod.phi.displacement.values
                             - a.phi.displacement.values)) <= 1e-12
        assert np.max(np.abs(prod.f.values - a.f.values)) <= 1e-12

    def test_inverse(self, grid128, rng):
        a = random_element(grid128, rng)
        prod = group_product(a, group_inverse(a))
        assert np.max(np.abs(prod.phi.displacement.values)) <= 1e-9
        assert np.max(np.abs(prod.f.values)) <= 1e-9

    def test_associativity(self, grid128, rng):
        a = random_element(grid128, rng)
        b = random_element(grid128, rng)
        c = random_element(grid128, rng)
        left = group_product(group_product(a, b), c)
        right = group_product(a, group_product(b, c))
        assert np.max(np.abs(left.phi.displacement.values
                             - right.phi.displacement.values)) <= 1e-9
        assert np.max(np.abs(left.f.values - right.f.values)) <= 1e-9

    def test_grid_mismatch(self, grid64, grid128):
        with pytest.raises(ValueError, match="grid mismatch"):
            GroupElement(Diffeo(zero_field(grid64)), zero_field(grid128))


class TestAdjoint:
    def test_identity_element_acts_trivially(self, grid128, rng):
        v = random_pair(grid128, rng)
        out = adjoint_action(identity_element(grid128), v)
        assert np.max(np.abs(out.u.values - v.u.values)) <= 1e-10
        assert np.max(np.abs(out.rho.values - v.rho.values)) <= 1e-10

    def test_inverse_undoes(self, grid256, rng):
        g = random_element(grid256, rng)
        v = random_pair(grid256, rng)
        back = adjoint_action(group_inverse(g), adjoint_action(g, v))
        assert np.max(np.abs(back.u.values - v.u.values)) <= 1e-8
        assert np.max(np.abs(back.rho.values - v.rho.values)) <= 1e-8

    def test_derivative_is_bracket(self, grid128, rng):
        # d/de Ad_{g(e)} v at e=0 with g(e) = (id + e w1, e w2) equals
        # the infinitesimal action bracket(v, w).
        w = random_pair(grid128, rng, max_mode=3, scale=0.3)
        v = random_pair(grid128, rng, max_mode=4, scale=0.5)
        eps = 1e-4

        def ad_at(sign):
            g = GroupElement(Diffeo(sign * eps * w.u), sign * eps * w.rho)
            return adjoint_action(g, v)

        plus, minus = ad_at(1.0), ad_at(-1.0)
        fd_u = (plus.u.values - minus.u.values) / (2 * eps)
        fd_rho = (plus.rho.values - minus.rho.values) / (2 * eps)
        expected = bracket(v, w)
        assert np.max(np.abs(fd_u - expected.u.values)) <= 1e-5
        assert np.max(np.abs(fd_rho - expected.rho.values)) <= 1e-5


class TestCoadjoint:
    def test_identity_element(self, grid128, rng):
        m = random_band_limited(grid128, rng, 5)
        rho = random_band_limited(grid128, rng, 5)
        out = coadjoint_action(identity_element(grid128), m, rho)
        assert np.max(np.abs(out.m0.values - m.values)) <= 1e-10
        assert np.max(np.abs(out.rho0.values - rho.values)) <= 1e-10

    def test_pairing_identity(self, grid256, rng):
        # <(m, rho), Ad_g(v, tau)>_{L2xL2} = <Ad*_g(m, rho), (v, tau)>_{L2xL2}
        g = random_element(grid256, rng)
        m = random_band_limited(grid256, rng, 4)
        rho = random_band_limited(grid256, rng, 4)
        v = random_pair(grid256, rng, max_mode=4)
        ad_v = adjoint_action(g, v)
        lhs = inner_l2(m, ad_v.u) + inner_l2(rho, ad_v.rho)
        star = coadjoint_action(g, m, rho)
        rhs_val = inner_l2(star.m0, v.u) + inner_l2(star.rho0, v.rho)
        assert lhs == pytest.approx(rhs_val, abs=1e-8)


class TestBodyVelocity:
    def test_identity_element(self, grid128, rng):
        phi_t = random_band_limited(grid128, rng, 5)
        f_t = random_band_limited(grid128, rng, 5)
        out = body_velocity(identity_element(grid128), phi_t, f_t)
        assert np.max(np.abs(out.u.values - phi_t.values)) <= 1e-12
        assert np.max(np.abs(out.rho.values - f_t.values)) <= 1e-12

    def test_zero_material_velocity(self, grid128, rng):
        g = random_element(grid128, rng)
        out = body_velocity(g, zero_field(grid128), zero_field(grid128))
        assert np.max(np.abs(out.u.values)) == 0.0
        assert np.max(np.abs(out.rho.values)) == 0.0

    def test_adjoint_recovers_spatial(self, grid128, rng):
        # Ad_g(body velocity) = spatial velocity (u, rho) when the material
        # velocity is (u o phi, rho o phi).
        g = random_element(grid128, rng)
        u = random_band_limited(grid128, rng, 4, scale=0.4)
        rho = random_band_limited(grid128, rng, 4, scale=0.4)
        phi_t = compose(u, g.phi)
        f_t = compose(rho, g.phi)
        spatial = adjoint_action(g, body_velocity(g, phi_t, f_t))
        assert np.max(np.abs(spatial.u.values - u.values)) <= 1e-7
        assert np.max(np.abs(spatial.rho.values - rho.values)) <= 1e-7


class TestEvolveFlowmap:
    def test_constant_transport(self):
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.3)
        initial = VelocityPair(zero_field(grid) + 0.5, zero_field(grid))
        res = evolve_flowmap(config, initial)
        assert res.status.completed
        assert np.max(np.abs(res.psi[-1] - 0.5 * 0.3)) <= 1e-12
        assert np.max(np.abs(res.f[-1])) <= 1e-14

    def test_constant_pair(self):
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.3)
        initial = VelocityPair(zero_field(grid) + 0.5, zero_field(grid) + 0.7)
        res = evolve_flowmap(config, initial)
        jac = res.jacobians()
        assert np.max(np.abs(jac - 1.0)) <= 1e-12
        assert np.max(np.abs(res.f[-1] - 0.7 * 0.3)) <= 1e-12

    def test_jacobian_rows_match_full_history(self):
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.05, diagnostics_stride=1)
        initial = VelocityPair(cosine_field(grid, 1, 0.2), cosine_field(grid, 2, 0.1))
        res = evolve_flowmap(config, initial)
        rows = [0, 7, 50]
        assert np.array_equal(res.jacobians(rows), res.jacobians()[rows])

    @pytest.mark.parametrize("model", list(Model))
    def test_jacobians_are_one_plus_psi_x(self, model):
        grid = Grid(64)
        config = EvolutionConfig(model, dt=1e-3, t_end=0.02)
        rho = cosine_field(grid, 2, 0.1) if model.two_component else zero_field(grid)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.2), rho))
        # phi_x is the spectral derivative of the kept psi, taken as the
        # object form's `derivative` takes it, bit for bit.
        want = [1.0 + derivative(PeriodicField(grid, psi)).values for psi in res.psi]
        assert np.array_equal(res.jacobians(), want)

    @pytest.mark.parametrize("model", list(Model))
    def test_eulerian_block_matches_evolve(self, model):
        # One step loop, one keep rule and one diagnostics pass: the flow
        # map's Eulerian rows and diagnostics are those of `evolve` for the
        # same config.
        grid = Grid(64)
        config = EvolutionConfig(model, dt=1e-3, t_end=0.1, diagnostics_stride=7)
        rho = cosine_field(grid, 1, 0.1) if model.two_component else zero_field(grid)
        initial = VelocityPair(cosine_field(grid, 1, 0.2), rho)
        res = evolve_flowmap(config, initial)
        eul = evolve(config, initial)
        assert np.array_equal(res.times, eul.times)
        for name in ("u", "rho"):
            assert np.array_equal(getattr(res, name), getattr(eul, name)), name
        for name, column in vars(eul.diagnostics).items():
            assert np.array_equal(getattr(res.diagnostics, name), column), name

    @pytest.mark.parametrize("model", list(Model))
    def test_matches_object_form_trajectory(self, model):
        # The labels form against the Lagrangian oracle phi_t = u o phi,
        # f_t = rho o phi.
        grid = Grid(64)
        config = EvolutionConfig(model, dt=1e-3, t_end=0.05, diagnostics_stride=1)
        rho = cosine_field(grid, 2, 0.1) if model.two_component else zero_field(grid)
        initial = VelocityPair(cosine_field(grid, 1, 0.2), rho)
        res = evolve_flowmap(config, initial)
        ref = object_form.flowmap_trajectory(model, initial, 1e-3, 50)
        got = np.stack((res.u, res.rho, res.psi, res.f))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12
        # the fields view one read-only history of grid values alone
        assert res.u.base.shape == (4, len(res.times), grid.n)
        arrays = (res.u, res.rho, res.psi, res.f)
        assert all(a.base is res.u.base and not a.flags.writeable for a in arrays)

    def test_velocity_reconstruction(self):
        # phi_t o phi^{-1} must match the Eulerian u: phi_t at the last kept
        # step, the one-sided five-point difference of the last five kept
        # psi rows (spacing 1e-2), is u o phi.
        grid = Grid(128)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.2)
        initial = VelocityPair(cosine_field(grid, 1, 0.2), cosine_field(grid, 2, 0.1))
        res = evolve_flowmap(config, initial)
        dt = res.times[-1] - res.times[-2]
        phi_t = np.tensordot([3.0, -16.0, 36.0, -48.0, 25.0], res.psi[-5:], 1) / (12.0 * dt)
        g = res.group_element(len(res.times) - 1)
        assert np.max(np.abs(phi_t - compose(PeriodicField(grid, res.u[-1]), g.phi).values)) <= 1e-7

    @pytest.mark.parametrize("model, amplitudes, dt, tail_limit, reason", [
        (Model.CH2, (0.3, 0.3), 1e-3, np.inf, "labels_folded"),
        (Model.CH, (2.0, 0.0), 5e-4, flowmap._LABELS_TAIL_LIMIT, "labels_unresolved"),
    ], ids=["2ch_until_folded", "ch_amplitude_2"])
    def test_min_phix_stays_above_one_over_n(self, monkeypatch, model, amplitudes, dt,
                                             tail_limit, reason):
        # On an unfolded step the grid values of chi_x = 1 + xi_x are
        # positive and sum to n (xi_x has no mode 0), so max chi_x < n and
        # min phi_x = 1 / max chi_x > 1 / n: no floor on phi_x can trip
        # first.  chi is rebuilt here by inverting each kept phi, up to the
        # fold of the first run (its tail check off) and the unresolved
        # labels of the second.
        monkeypatch.setattr(flowmap, "_LABELS_TAIL_LIMIT", tail_limit)
        grid = Grid(256)
        config = EvolutionConfig(model, dt=dt, t_end=3.0, diagnostics_stride=10)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, amplitudes[0]),
                                                  cosine_field(grid, 1, amplitudes[1])))
        assert res.status.reason == reason
        unfolded = len(res.times) - (reason == "labels_folded")
        chi_x = np.stack([invert_diffeo(res.group_element(i).phi).jacobian.values
                          for i in range(unfolded)])
        assert np.all(chi_x > 0.0)
        assert chi_x.sum(axis=1) == pytest.approx(grid.n, rel=1e-12)
        assert 1.0 < chi_x[-1].max() and chi_x.max() < grid.n

    def test_compression_stops_on_unresolved_labels(self):
        # chi steepens where phi compresses.  The spectral tail of the labels
        # stops the run before t = 0.7, where phi would be off by 2e-5, and
        # every kept row up to the stop matches the Lagrangian oracle.
        grid = Grid(256)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, diagnostics_stride=50)
        initial = VelocityPair(cosine_field(grid, 1, 0.3), cosine_field(grid, 1, 0.3))
        res = evolve_flowmap(config, initial)
        assert res.status.kind == "blowup_detected"
        assert res.status.reason == "labels_unresolved"
        assert res.status.value > flowmap._LABELS_TAIL_LIMIT
        assert res.status.t == res.times[-1] < 0.7
        steps = np.rint(res.times / config.dt).astype(int)
        ref = object_form.flowmap_trajectory(Model.CH2, initial, config.dt, steps[-1])[:, steps]
        got = np.stack((res.u, res.rho, res.psi, res.f))
        assert np.max(np.abs(got - ref)[:, :-1]) <= 1e-8

    def test_folded_labels_are_flagged(self, monkeypatch):
        # With the tail check off, the same run goes on until chi folds: the
        # run stops there, and the folded row, which has no inverse, is NaN,
        # and so is its phi_x.
        monkeypatch.setattr(flowmap, "_LABELS_TAIL_LIMIT", np.inf)
        grid = Grid(256)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, diagnostics_stride=100)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3),
                                                  cosine_field(grid, 1, 0.3)))
        assert res.status.reason == "labels_folded"
        assert res.status.value <= 0.0 and res.status.t == res.times[-1] < 1.0
        flow = np.stack((res.psi, res.f, res.jacobians()))
        assert np.all(np.isnan(flow[:, -1])) and np.all(np.isfinite(flow[:, :-1]))


@pytest.mark.parametrize("model, n, initial, thresholds, expected", [
    pytest.param(Model.CH2, 64, lambda g: VelocityPair(zero_field(g), cosine_field(g, 1, 1.0)),
                 {"blowup_rhox_threshold": 5.0}, ("max_abs_rhox", 0.0), id="initial_rhox"),
    pytest.param(Model.CH, 128, lambda g: VelocityPair.single(cosine_field(g, 1, 2.0)),
                 {"blowup_slope_threshold": -20.0}, ("min_ux", 0.044), id="steep_min_ux"),
    pytest.param(Model.CH, 64, lambda g: VelocityPair.single(cosine_field(g, 1, 1e200)),
                 {"blowup_slope_threshold": -1e300, "blowup_rhox_threshold": 1e300},
                 ("non_finite", 0.001), id="overflow_step"),
])
def test_evolve_and_flowmap_share_blowup_monitor(model, n, initial, thresholds, expected):
    config = EvolutionConfig(model, dt=1e-3, t_end=0.1, **thresholds)
    data = initial(Grid(n))
    eul = evolve(config, data).status
    flow = evolve_flowmap(config, data).status
    assert (flow.kind, flow.reason, flow.t) == (eul.kind, eul.reason, eul.t)
    assert eul.kind == "blowup_detected"
    assert (eul.reason, eul.t) == (expected[0], pytest.approx(expected[1]))


@pytest.mark.parametrize("run, rows", [(evolve, 2), (evolve_flowmap, 4)],
                         ids=["evolve", "flowmap"])
def test_history_holds_the_grid_values_alone(run, rows):
    # At stride 1 the kept history is a run's one large array: the grid
    # values of the state rows, no slopes, and the diagnostics come from
    # the monitor, so no pass over the kept rows raises the traced peak
    # past 1.3 times the history's bytes (3 times on evolve and 2.5 on
    # the flow map when the slopes were kept and reduced after the loop).
    grid = Grid(256)
    initial = VelocityPair(cosine_field(grid, 1, 0.1), cosine_field(grid, 1, 0.1))
    run(EvolutionConfig(Model.CH2, dt=1e-4, t_end=1e-4), initial)  # builds the kernels
    config = EvolutionConfig(Model.CH2, dt=1e-4, t_end=0.1, diagnostics_stride=1)
    tracemalloc.start()
    try:
        res = run(config, initial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status.completed
    assert res.u.base.shape == (rows, 1001, grid.n)
    assert peak <= 1.3 * res.u.base.nbytes


@pytest.mark.parametrize("model, n, initial", [
    (Model.CH2, 64, lambda g: VelocityPair(zero_field(g) + np.nan, zero_field(g))),
    (Model.CH2, 64, lambda g: VelocityPair(zero_field(g), zero_field(g) - np.inf)),
    (Model.DP, 64, lambda g: VelocityPair.single(zero_field(g) + np.inf)),
    (Model.CH, 64, lambda g: VelocityPair.single(cosine_field(g, 1, 1e308))),
    (Model.DP2, 256, lambda g: VelocityPair(cosine_field(g, 60, 1e306), zero_field(g))),
], ids=["nan", "minus_inf_rho", "inf", "coefficients_overflow", "slopes_overflow"])
def test_evolve_and_flowmap_reject_nonfinite_starts(model, n, initial):
    # NaN or infinite data, and data whose rfft (1e308 cos 2 pi x) or
    # slopes (1e306 cos 120 pi x, slope 3.8e308) overflow, are an input
    # error before any step, with no warning on the way.
    config = EvolutionConfig(model, dt=1e-3, t_end=0.1)
    for run in (evolve, evolve_flowmap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="initial data must have finite grid values"):
                run(config, initial(Grid(n)))


@pytest.mark.parametrize("stride, amplitude, thresholds, last", [
    (1, 0.2, {}, 100), (7, 0.2, {}, 100), (200, 0.2, {}, 100),
    (10, 2.0, {"blowup_slope_threshold": -20.0}, 44),
], ids=["stride_1", "stride_7", "stride_above_steps", "blowup_row"])
def test_evolve_and_flowmap_keep_the_same_rows(stride, amplitude, thresholds, last):
    # Every stride-th step and the last one: ceil(100 / stride) + 1 rows
    # for a completed run; a blow-up at step 44 adds its own row.
    config = EvolutionConfig(Model.CH, dt=1e-3, t_end=0.1, diagnostics_stride=stride, **thresholds)
    initial = VelocityPair.single(cosine_field(Grid(128), 1, amplitude))
    steps = [*range(0, last, stride), last]
    if last == 100:
        assert len(steps) == -(-100 // stride) + 1
    for result in (evolve(config, initial), evolve_flowmap(config, initial)):
        assert result.status.completed == (last == 100)
        assert np.rint(result.times / config.dt).astype(int).tolist() == steps


@pytest.mark.parametrize("model", list(Model))
def test_runs_build_no_field(monkeypatch, model):
    # From the initial fields to the drift, the PDE path stays on arrays.
    grid = Grid(64)
    rho = cosine_field(grid, 2, 0.2) if model.two_component else zero_field(grid)
    initial = VelocityPair(cosine_field(grid, 1, 0.3), rho)
    config = EvolutionConfig(model, dt=1e-2, t_end=0.1, diagnostics_stride=2)
    built, init = [], PeriodicField.__init__

    def counting(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(PeriodicField, "__init__", counting)
    evolve(config, initial)
    momentum_drift(evolve_flowmap(config, initial))
    assert built == []


def test_non_finite_xi_stops_the_run(monkeypatch):
    # The state is spectra, so a non-finite xi coefficient makes xi_x
    # non-finite at every point: the stage's xi row goes non-finite, the
    # Eulerian rows stay finite, no floating-point warning is raised, and
    # the step loop stops the run with 'non_finite', keeping no such row.
    grid = Grid(64)
    stage, calls, outputs = _Kernel.__call__, [], []

    def poisoned(kernel, y, z=None):
        calls.append(None)
        if len(calls) == 9:  # stage 1 of step 3
            y, z = y.copy(), None
            y[2, 3] = np.nan
        out = stage(kernel, y, z)
        outputs.append(out)
        return out

    monkeypatch.setattr(_Kernel, "__call__", poisoned)
    config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.01, diagnostics_stride=1)
    res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.2),
                                              cosine_field(grid, 2, 0.1)))
    assert not np.any(np.isfinite(outputs[8][2]))
    assert np.all(np.isfinite(outputs[8][:2]))
    assert (res.status.kind, res.status.reason, res.status.value) == (
        "blowup_detected", "non_finite", None)
    assert res.status.t == pytest.approx(0.003)
    assert res.times.tolist() == pytest.approx([0.0, 0.001, 0.002])
    assert np.all(np.isfinite(np.stack((res.psi, res.f, res.jacobians()))))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", [0, 5, 32], ids=["mode0", "interior", "nyquist"])
@pytest.mark.parametrize("run, row", [(evolve, 0), (evolve, 1), (evolve_flowmap, 0),
                                      (evolve_flowmap, 1), (evolve_flowmap, 2), (evolve_flowmap, 3)],
                         ids=["evolve-u", "evolve-rho", "flowmap-u", "flowmap-rho", "flowmap-xi",
                              "flowmap-g"])
def test_non_finite_coefficient_stops_the_run(monkeypatch, run, row, mode, bad):
    # k4 of step 3 gets one non-finite coefficient, so step 3's result has
    # it at (row, mode) alone.  The monitor finds it from the slope minima
    # (ik times it is NaN, also at modes 0 and n/2), before the labels and
    # threshold checks: the run stops at t = 0.003 with 'non_finite' and
    # no value, keeps no such row and raises no floating-point warning
    # (the suite turns warnings into errors).
    grid = Grid(64)
    stage, calls = _Kernel.__call__, []

    def poisoned(kernel, y, z=None):
        out = stage(kernel, y, z)
        calls.append(None)
        if len(calls) == 12:  # stage 4 of step 3
            out[row, mode] = bad
        return out

    monkeypatch.setattr(_Kernel, "__call__", poisoned)
    config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.01, diagnostics_stride=1)
    res = run(config, VelocityPair(cosine_field(grid, 1, 0.2), cosine_field(grid, 2, 0.1)))
    assert (res.status.kind, res.status.reason, res.status.value) == (
        "blowup_detected", "non_finite", None)
    assert res.status.t == pytest.approx(0.003)
    assert res.times.tolist() == pytest.approx([0.0, 0.001, 0.002])
    flow = (res.psi, res.f, res.jacobians()) if run is evolve_flowmap else ()
    assert np.all(np.isfinite(np.stack((res.u, res.rho, *flow))))
    assert np.all(np.isfinite(np.stack(list(vars(res.diagnostics).values()))))


@pytest.mark.parametrize("model", list(Model))
def test_labels_step_from_monitor_points_is_exact(model, rng):
    # The monitor's irfft of (u, rho, xi, g) is the stage-1 irfft of the
    # next step: a step from it is bit for bit the step that makes its own.
    # The (u, rho) rows are the Eulerian kernel's, bit for bit.
    grid = Grid(256)
    kernel = _kernel(model, grid.n, 4)
    y = np.stack([random_band_limited(grid, rng, top, scale).hat
                  for top, scale in ((grid.dealias_cutoff, 0.3), (grid.dealias_cutoff, 0.2),
                                     (grid.n // 2 - 1, 0.02), (grid.n // 2 - 1, 0.1))])
    if not model.two_component:
        y[1] = 0.0
    k1 = kernel(y, _points(grid, y))
    assert np.array_equal(k1, kernel(y))
    assert np.array_equal(k1[:2], _kernel(model, grid.n)(y[:2]))
    assert np.array_equal(rk4(kernel, y, 1e-3, k1), rk4(kernel, y, 1e-3))


@pytest.mark.parametrize("model, n, amplitude",
                         [(Model.CH2, 64, 0.3), (Model.CH2, 256, 0.1), (Model.DP2, 1024, 0.1)])
def test_kept_psi_is_the_inverse_of_kept_chi(monkeypatch, model, n, amplitude):
    # The kept rows and `invert_diffeo` take one Newton solve to one
    # tolerance, so each kept chi = id + xi inverts to the kept psi, bit for bit.
    grid = Grid(n)
    inverse_points, calls = flowmap._inverse_points, []

    def recording(grid, rows):
        xi = rows[0].copy()  # the history row that the call's y replaces
        y, further = inverse_points(grid, rows)
        calls.append((xi, y))
        return y, further

    monkeypatch.setattr(flowmap, "_inverse_points", recording)
    config = EvolutionConfig(model, dt=1e-3, t_end=0.1)
    res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, amplitude),
                                              cosine_field(grid, 2, amplitude)))
    assert res.status.kind == "completed" and len(calls) == len(res.times) == 11
    for (xi, y), psi in zip(calls, res.psi):
        assert np.array_equal(y - grid.points, psi)
        inverse = invert_diffeo(Diffeo(PeriodicField(grid, xi)))
        assert np.array_equal(inverse.displacement.values, psi)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 10])
def test_simpson_matches_scipy(rng, count):
    # odd counts: composite rule; even: Cartwright's last-interval correction;
    # two: trapezoid; one: zero.  Unequal spacing exercises every weight.
    times = np.cumsum(rng.uniform(0.01, 0.2, count))
    values = rng.standard_normal((count, 5))
    want = simpson(values, x=times, axis=0)
    got = flowmap._simpson(values, times)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


class TestReconstructF:
    def test_zero_density(self):
        grid = Grid(64)
        times = np.linspace(0.0, 1.0, 11)
        jac = np.ones((11, 64))
        out = reconstruct_f(Model.CH2, zero_field(grid), times, jac)
        assert np.max(np.abs(out.values)) == 0.0

    def test_unit_jacobian(self):
        grid = Grid(64)
        times = np.linspace(0.0, 0.4, 9)
        jac = np.ones((9, 64))
        out = reconstruct_f(Model.CH2, zero_field(grid) + 0.7, times, jac)
        assert np.max(np.abs(out.values - 0.7 * 0.4)) <= 1e-14

    def test_rejects_degenerate_jacobian(self):
        grid = Grid(64)
        times = np.linspace(0.0, 0.4, 5)
        jac = np.ones((5, 64))
        jac[3, 7] = -0.1
        with pytest.raises(ValueError):
            reconstruct_f(Model.CH2, zero_field(grid) + 1.0, times, jac)

    def test_rejects_nan_jacobian(self):
        # NaN is not positive: it raises as a negative entry does, not
        # through to a field holding NaN.
        grid = Grid(64)
        times = np.linspace(0.0, 0.4, 5)
        jac = np.ones((5, 64))
        jac[3, 7] = np.nan
        with pytest.raises(ValueError, match="must stay positive"):
            reconstruct_f(Model.CH2, zero_field(grid) + 1.0, times, jac)

    def test_rejects_folded_run(self):
        # A 'labels_folded' run's last row has no map, so its jacobians are NaN.
        grid = Grid(32)
        config = EvolutionConfig(Model.CH2, dt=0.05, t_end=1.0)
        initial = VelocityPair(cosine_field(grid, 1, 5.0), cosine_field(grid, 1, 5.0))
        res = evolve_flowmap(config, initial)
        assert res.status.reason == "labels_folded"
        with pytest.raises(ValueError, match="must stay positive"):
            reconstruct_f(Model.CH2, initial.rho, res.times, res.jacobians())

    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_matches_ode_to_fourth_order(self, model):
        grid = Grid(128)
        initial = VelocityPair(cosine_field(grid, 1, 0.3), cosine_field(grid, 1, 0.3))

        def gap(dt):
            config = EvolutionConfig(model, dt=dt, t_end=0.2, diagnostics_stride=1)
            res = evolve_flowmap(config, initial)
            quad = reconstruct_f(model, initial.rho, res.times, res.jacobians())
            return np.max(np.abs(res.f[-1] - quad.values))

        ratio = gap(1e-2) / gap(5e-3)
        assert 12.0 <= ratio <= 20.0


class TestMomentumDrift:
    def test_matches_coadjoint_action(self):
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.2)
        initial = VelocityPair(cosine_field(grid, 1, 0.3), cosine_field(grid, 2, 0.2))
        res = evolve_flowmap(config, initial)
        last = len(res.times) - 1

        def transported(i):
            return coadjoint_action(res.group_element(i), helmholtz(PeriodicField(grid, res.u[i])),
                                    PeriodicField(grid, res.rho[i]))

        start, end = transported(0), transported(last)
        drifts = momentum_drift(res, stride=last)
        want_m0 = np.max(np.abs(end.m0.values - start.m0.values))
        want_rho0 = np.max(np.abs(end.rho0.values - start.rho0.values))
        # The drift and the oracle both differentiate the kept psi and f;
        # they agree to the round-off of m0 itself (|m0| about 12 here), not
        # to that of its 1e-6 drift.
        m0_scale = np.max(np.abs(start.m0.values))
        assert drifts["m0"][-1] == pytest.approx(want_m0, rel=1e-12, abs=1e-14 * m0_scale)
        assert drifts["rho0"][-1] == pytest.approx(want_rho0, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("model", list(Model))
    def test_row_with_folded_map(self, model):
        # momentum_drift works on arrays, so it takes a planted row with phi_x <= 0 as it is.
        grid = Grid(64)
        config = EvolutionConfig(model, dt=1e-2, t_end=0.02)
        rho = cosine_field(grid, 1, 0.2) if model.two_component else zero_field(grid)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3), rho))
        psi = res.psi.copy()
        psi[-1] = cosine_field(grid, 1, 0.5).values  # phi_x = 1 - pi sin(2 pi x)
        res = dataclasses.replace(res, psi=psi)
        assert res.jacobians([len(res.times) - 1]).min() < 0.0
        drifts = momentum_drift(res)
        assert set(drifts) == ({"rho0"} if model.two_component else set()) | (
            {"m0"} if model.has_metric else set())
        for values in drifts.values():
            assert values.shape == (len(res.times),)
            assert np.all(np.isfinite(values)) and values[0] == 0.0

    def test_folded_last_row_is_not_sampled(self):
        # The step to t=0.05 folds the labels: the last row has no map, and
        # the drift samples only the rows before it.
        grid = Grid(32)
        config = EvolutionConfig(Model.CH2, dt=0.05, t_end=1.0)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 5.0),
                                                  cosine_field(grid, 1, 5.0)))
        assert res.status.reason == "labels_folded"
        drifts = momentum_drift(res)
        assert set(drifts) == {"rho0", "m0"}
        for values in drifts.values():
            assert values.shape == (len(res.times) - 1,)
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_rejects_stride_below_one(self, stride):
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.02)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3),
                                                  cosine_field(grid, 1, 0.2)))
        with pytest.raises(ValueError, match=f"stride must be at least 1, got {stride}"):
            momentum_drift(res, stride)

    def test_rejects_non_integer_stride(self):
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.1, diagnostics_stride=1)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3),
                                                  cosine_field(grid, 1, 0.2)))
        for stride in (2.0, 2.5):
            with pytest.raises(ValueError, match=f"stride must be an integer, got {stride}"):
                momentum_drift(res, stride)
        drifts, want = momentum_drift(res, np.int64(3)), momentum_drift(res, 3)
        for key, values in want.items():
            assert np.array_equal(drifts[key], values) and len(values) == 5

    @pytest.mark.parametrize("model", [Model.CH, Model.CH2, Model.DP2])
    def test_blocks_match_one_plan(self, monkeypatch, model):
        # Blocks of 7 points, the last one ragged, against one plan per row,
        # to 1e-14 of the momenta at t = 0 (rho0, and m = helmholtz(u0)).
        grid = Grid(128)
        rho = cosine_field(grid, 2, 0.2) if model.two_component else zero_field(grid)
        config = EvolutionConfig(model, dt=1e-3, t_end=0.05, diagnostics_stride=10)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3) + 0.1, rho))
        kmax = grid.n // 2 if model.has_metric else grid.dealias_cutoff
        monkeypatch.setattr(flowmap, "_PLAN_BYTES", 16 * (kmax + 1) * grid.n)
        whole = momentum_drift(res)

        plan_of, sizes = flowmap.series_matrix, []

        def recording(y, kmax):
            sizes.append(np.size(y))
            return plan_of(y, kmax)

        monkeypatch.setattr(flowmap, "series_matrix", recording)
        monkeypatch.setattr(flowmap, "_PLAN_BYTES", 16 * (kmax + 1) * 7)
        blocks = momentum_drift(res)
        assert sizes == len(res.times) * ([7] * (grid.n // 7) + [grid.n % 7])
        scales = {"rho0": np.max(np.abs(res.rho[0])),
                  "m0": np.max(np.abs(helmholtz(PeriodicField(grid, res.u[0])).values))}
        assert set(blocks) == set(whole) and whole
        for key, values in blocks.items():
            assert np.max(values) > 0.0
            assert np.max(np.abs(values - whole[key])) <= 1e-14 * scales[key]

    def test_peak_memory_at_n4096(self):
        # Each block's plan holds at most 1 MiB; one whole-row plan at
        # kmax = n/2 would take 134 MB.
        grid = Grid(4096)
        config = EvolutionConfig(Model.CH2, dt=1e-4, t_end=4e-4, diagnostics_stride=2)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3),
                                                  cosine_field(grid, 2, 0.2)))
        tracemalloc.start()
        try:
            drifts = momentum_drift(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert [len(values) for values in drifts.values()] == [len(res.times)] * 2

    def test_peak_memory_does_not_grow_with_rows(self):
        # 401 kept rows at n = 1024: phi_x is read row by row, never copied
        # for every sampled row at once (3.3 MB here).
        grid = Grid(1024)
        config = EvolutionConfig(Model.CH2, dt=1e-4, t_end=0.04, diagnostics_stride=1)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3),
                                                  cosine_field(grid, 2, 0.2)))
        assert len(res.times) == 401
        tracemalloc.start()
        try:
            drifts = momentum_drift(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20
        assert [len(values) for values in drifts.values()] == [401] * 2

    def test_dp_tracks_nothing(self, monkeypatch):
        grid = Grid(64)
        config = EvolutionConfig(Model.DP, dt=1e-2, t_end=0.1)
        res = evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.3), zero_field(grid)))
        calls = []
        monkeypatch.setattr(flowmap, "series_matrix",
                            lambda *args, **kwargs: calls.append(args))
        assert momentum_drift(res) == {}
        assert calls == []

    def test_zero_data(self):
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.1)
        res = evolve_flowmap(config, VelocityPair(zero_field(grid), zero_field(grid)))
        drifts = momentum_drift(res)
        assert np.max(drifts["rho0"]) == 0.0
        assert np.max(drifts["m0"]) == 0.0

    def test_2ch_conservation_short_run(self):
        grid = Grid(128)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.3, diagnostics_stride=50)
        initial = VelocityPair(cosine_field(grid, 1, 0.1), cosine_field(grid, 1, 0.1))
        res = evolve_flowmap(config, initial)
        drifts = momentum_drift(res)
        assert np.max(drifts["rho0"]) <= 1e-7
        assert np.max(drifts["m0"]) <= 1e-6

    def test_2dp_conservation_short_run(self):
        grid = Grid(128)
        config = EvolutionConfig(Model.DP2, dt=1e-3, t_end=0.3, diagnostics_stride=50)
        initial = VelocityPair(cosine_field(grid, 1, 0.1), cosine_field(grid, 1, 0.1))
        res = evolve_flowmap(config, initial)
        drifts = momentum_drift(res)
        assert np.max(drifts["rho0"]) <= 1e-7
        assert "m0" not in drifts

    def test_coadjoint_constancy_along_flow(self):
        # Ad*_{(phi, f)}(m(t), rho(t)) stays at its initial value.
        grid = Grid(128)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.25)
        initial = VelocityPair(cosine_field(grid, 1, 0.1), cosine_field(grid, 2, 0.1))
        res = evolve_flowmap(config, initial)
        i = len(res.times) - 1
        g = res.group_element(i)
        m_t = helmholtz(PeriodicField(grid, res.u[i]))
        rho_t = PeriodicField(grid, res.rho[i])
        transported = coadjoint_action(g, m_t, rho_t)
        m_initial = helmholtz(initial.u)
        assert np.max(np.abs(transported.m0.values - m_initial.values)) <= 1e-6
        assert np.max(np.abs(transported.rho0.values - initial.rho.values)) <= 1e-6
