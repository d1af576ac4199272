import numpy as np
import pytest
import sympy

from chdp.connection import Model, VelocityPair, christoffel
from chdp.evolution import (
    BlowupError,
    EvolutionConfig,
    conserved_energy,
    evolve,
    mean_invariants,
    rhs,
    rhs_momentum_form,
    rk4,
    step_count,
    step_rk4,
)
from chdp.spectral import (
    Grid,
    constant_field,
    cosine_field,
    dealiased_product,
    derivative,
    helmholtz,
    random_band_limited,
    zero_field,
)


def random_state(grid, rng, model, max_mode=8, scale=0.2):
    u = random_band_limited(grid, rng, max_mode, scale)
    if model.two_component:
        return VelocityPair(u, random_band_limited(grid, rng, max_mode, scale))
    return VelocityPair.single(u)


class TestRhs:
    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_constants_are_steady(self, model, grid64):
        s = VelocityPair(constant_field(grid64, 0.7), constant_field(grid64, -0.4))
        out = rhs(model, s)
        assert np.max(np.abs(out.u.values)) <= 1e-14
        assert np.max(np.abs(out.rho.values)) <= 1e-14

    def test_2ch_reduces_to_ch(self, grid64, rng):
        u = random_band_limited(grid64, rng, 8)
        two = rhs(Model.CH2, VelocityPair.single(u))
        one = rhs(Model.CH, VelocityPair.single(u))
        assert np.array_equal(two.u.values, one.u.values)
        assert np.max(np.abs(two.rho.values)) == 0.0

    @pytest.mark.parametrize("model", list(Model))
    def test_matches_christoffel_diagonal(self, model, grid128, rng):
        # (u_t + u u_x, rho_t + u rho_x) = Gamma(s, s)
        s = random_state(grid128, rng, model)
        out = rhs(model, s)
        gamma = christoffel(model, s, s)
        adv_u = out.u + dealiased_product(s.u, derivative(s.u))
        adv_rho = out.rho + dealiased_product(s.u, derivative(s.rho))
        assert np.max(np.abs(adv_u.values - gamma.u.values)) <= 1e-10
        assert np.max(np.abs(adv_rho.values - gamma.rho.values)) <= 1e-10


class TestMomentumForm:
    @pytest.mark.parametrize("model", list(Model))
    def test_constants(self, model, grid64):
        rho0 = 0.3 if model.two_component else 0.0
        s = VelocityPair(constant_field(grid64, 1.1), constant_field(grid64, rho0))
        out = rhs_momentum_form(model, s)
        assert np.max(np.abs(out.u.values)) <= 1e-13
        assert np.max(np.abs(out.rho.values)) <= 1e-13

    @pytest.mark.parametrize("model", list(Model))
    def test_equals_helmholtz_of_weak_form(self, model, grid128, rng):
        s = random_state(grid128, rng, model)
        weak = rhs(model, s)
        strong = rhs_momentum_form(model, s)
        assert np.max(np.abs(helmholtz(weak.u).values - strong.u.values)) <= 1e-9
        assert np.max(np.abs(weak.rho.values - strong.rho.values)) <= 1e-10

    def test_2ch_mean_m_flux_is_perfect_derivative(self):
        # Symbolic check that m_t = -d/dx(u m + u^2/2 - u_x^2/2 + rho^2/2),
        # which makes the mean of m a conserved quantity.
        x = sympy.symbols("x")
        u = sympy.Function("u")(x)
        rho = sympy.Function("rho")(x)
        m = u - u.diff(x, 2)
        m_t = -u * m.diff(x) - 2 * m * u.diff(x) - rho * rho.diff(x)
        flux = u * m + u**2 / 2 - u.diff(x) ** 2 / 2 + rho**2 / 2
        assert sympy.simplify(m_t + flux.diff(x)) == 0


class TestRk4:
    def test_linear_system_is_rk4_polynomial(self, rng):
        a = rng.standard_normal((4, 4))
        y = rng.standard_normal(4)
        ha = 0.1 * a
        ha2 = ha @ ha
        poly = np.eye(4) + ha + ha2 / 2 + ha2 @ ha / 6 + ha2 @ ha2 / 24
        out = rk4(lambda v: a @ v, y, 0.1)
        assert np.max(np.abs(out - poly @ y)) <= 1e-14


class TestStepCount:
    @pytest.mark.parametrize("dt, t_end, steps", [(1e-4, 1.0, 10000), (1e-3, 0.05, 50),
                                                  (5e-4, 2.0, 4000), (0.3, 0.9, 3)])
    def test_whole_steps(self, dt, t_end, steps):
        assert step_count(dt, t_end) == steps

    @pytest.mark.parametrize("dt, t_end, name", [
        (np.nan, 1.0, "dt"),
        (0.0, 1.0, "dt"),
        (1e-3, np.inf, "t_end"),
        (1e-3, np.nan, "t_end"),
        (0.2, 0.1, "t_end"),
        (0.3, 1.0, "t_end"),
        (1e-300, 1e300, "t_end"),
    ])
    def test_rejects(self, dt, t_end, name):
        with pytest.raises(ValueError, match=name):
            step_count(dt, t_end)


class TestStepRk4:
    def test_zero_fixed_point(self, grid64):
        z = VelocityPair(zero_field(grid64), zero_field(grid64))
        out = step_rk4(Model.CH2, z, 1e-2)
        assert np.max(np.abs(out.u.values)) == 0.0
        assert np.max(np.abs(out.rho.values)) == 0.0

    def test_constants_fixed_point(self, grid64):
        s = VelocityPair(constant_field(grid64, 0.5), constant_field(grid64, 0.2))
        out = step_rk4(Model.CH2, s, 1e-2)
        assert np.max(np.abs(out.u.values - 0.5)) <= 1e-14
        assert np.max(np.abs(out.rho.values - 0.2)) <= 1e-14

    def test_blowup_error_on_nonfinite(self, grid64):
        bad = VelocityPair(constant_field(grid64, np.nan), zero_field(grid64))
        with pytest.raises(BlowupError):
            step_rk4(Model.CH2, bad, 1e-2)

    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_global_order_four(self, model):
        grid = Grid(64)
        s0 = VelocityPair(cosine_field(grid, 1, 0.3), cosine_field(grid, 2, 0.2))

        def integrate(dt, t_end=0.5):
            s = s0
            for _ in range(int(round(t_end / dt))):
                s = step_rk4(model, s, dt)
            return s

        ref = integrate(5e-4)
        coarse = integrate(4e-3)
        fine = integrate(2e-3)
        e1 = np.max(np.abs(coarse.u.values - ref.u.values))
        e2 = np.max(np.abs(fine.u.values - ref.u.values))
        assert 14.0 <= e1 / e2 <= 18.0


class TestEvolve:
    def test_zero_initial(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.1, grid_n=64)
        result = evolve(config, VelocityPair(zero_field(grid64), zero_field(grid64)))
        assert result.status.completed
        assert all(np.max(np.abs(s.u.values)) == 0.0 for s in result.snapshots)

    def test_rejects_wrong_grid(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.1, grid_n=128)
        with pytest.raises(ValueError, match="n=64"):
            evolve(config, VelocityPair.single(cosine_field(grid64, 1)))

    def test_single_component_rejects_rho(self, grid64):
        config = EvolutionConfig(Model.CH, dt=1e-2, t_end=0.1, grid_n=64)
        with pytest.raises(ValueError, match="rho"):
            evolve(config, VelocityPair(cosine_field(grid64, 1), cosine_field(grid64, 1)))

    def test_2ch_reduction_matches_ch(self, grid64):
        u0 = cosine_field(grid64, 1, 0.2)
        cfg2 = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.2, grid_n=64)
        cfg1 = EvolutionConfig(Model.CH, dt=1e-3, t_end=0.2, grid_n=64)
        two = evolve(cfg2, VelocityPair.single(u0))
        one = evolve(cfg1, VelocityPair.single(u0))
        du = two.final.u.values - one.final.u.values
        assert np.max(np.abs(du)) <= 1e-10
        assert np.max(np.abs(two.final.rho.values)) == 0.0

    def test_2ch_energy_conservation(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, grid_n=64,
                                 diagnostics_stride=100)
        initial = VelocityPair(cosine_field(grid64, 1, 0.1), cosine_field(grid64, 1, 0.1))
        result = evolve(config, initial)
        assert result.status.completed
        e0 = result.diagnostics[0].energy
        drift = max(abs(d.energy - e0) for d in result.diagnostics) / e0
        assert drift <= 1e-8

    def test_2ch_mean_invariants_conserved(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.5, grid_n=64,
                                 diagnostics_stride=50)
        initial = VelocityPair(cosine_field(grid64, 1, 0.2) + 0.1,
                               cosine_field(grid64, 2, 0.2) + 0.3)
        result = evolve(config, initial)
        m0, r0 = result.diagnostics[0].mean_m, result.diagnostics[0].mean_rho
        assert max(abs(d.mean_m - m0) for d in result.diagnostics) <= 1e-10
        assert max(abs(d.mean_rho - r0) for d in result.diagnostics) <= 1e-10

    def test_blowup_detector_fires_min_ux(self):
        grid = Grid(256)
        config = EvolutionConfig(Model.CH2, dt=5e-4, t_end=2.0, grid_n=256,
                                 blowup_slope_threshold=-50.0,
                                 diagnostics_stride=100)
        result = evolve(config, VelocityPair.single(cosine_field(grid, 1, 2.0)))
        assert result.status.kind == "blowup_detected"
        assert result.status.reason == "min_ux"
        assert result.status.t is not None and result.status.t < 2.0
        assert result.diagnostics[-1].min_ux < -50.0

    def test_blowup_detector_fires_rhox(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, grid_n=64,
                                 blowup_rhox_threshold=5.0)
        initial = VelocityPair(zero_field(grid64), cosine_field(grid64, 1, 1.0))
        result = evolve(config, initial)
        assert result.status.kind == "blowup_detected"
        assert result.status.reason == "max_abs_rhox"

    def test_detector_quiet_on_smooth_run(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.5, grid_n=64)
        result = evolve(config, VelocityPair.single(cosine_field(grid64, 1, 0.1)))
        assert result.status.completed


class TestScalars:
    def test_energy_values(self, grid64):
        z = VelocityPair(zero_field(grid64), zero_field(grid64))
        assert conserved_energy(z) == 0.0
        c = VelocityPair.single(cosine_field(grid64, 1))
        assert conserved_energy(c) == pytest.approx((1 + 4 * np.pi**2) / 2, rel=1e-13)

    def test_mean_invariants_zero(self, grid64):
        z = VelocityPair(zero_field(grid64), zero_field(grid64))
        assert mean_invariants(z) == (0.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(Model.CH2, dt=0.2, t_end=0.1, grid_n=64)
        with pytest.raises(ValueError):
            EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, grid_n=63)
        with pytest.raises(ValueError):
            EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, grid_n=64,
                            blowup_slope_threshold=1.0)
        with pytest.raises(ValueError, match="whole number of steps"):
            EvolutionConfig(Model.CH2, dt=0.3, t_end=1.0, grid_n=64)
