import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chdp.connection import (
    Model,
    VelocityPair,
    ad_transpose,
    bracket,
    christoffel,
    metric,
)
from chdp.spectral import (
    Grid,
    cosine_field,
    derivative,
    random_band_limited,
    zero_field,
)

TWO_PI = 2.0 * np.pi


def random_pair(grid, rng, max_mode=8, scale=0.5):
    return VelocityPair(random_band_limited(grid, rng, max_mode, scale),
                        random_band_limited(grid, rng, max_mode, scale))


def ch_gamma_cosine_oracle(grid, k_mode, l_mode):
    """Closed-form CH Christoffel value on a cosine pair, from trig algebra.

    Gamma(cos ax, cos bx) = d/dx [ -(1 - ab/2)/(2(1+(a+b)^2)) cos((a+b)x)
                                   -(1 + ab/2)/(2(1+(a-b)^2)) cos((a-b)x) ]
    """
    a = TWO_PI * k_mode
    b = TWO_PI * l_mode
    x = grid.points
    cp = 0.5 * (1.0 - 0.5 * a * b) / (1.0 + (a + b) ** 2)
    cm = 0.5 * (1.0 + 0.5 * a * b) / (1.0 + (a - b) ** 2)
    return cp * (a + b) * np.sin((a + b) * x) + cm * (a - b) * np.sin((a - b) * x)


class TestChristoffelCH:
    def test_zero_input(self, grid64, rng):
        zero = VelocityPair.single(zero_field(grid64))
        v = VelocityPair.single(random_band_limited(grid64, rng, 6))
        assert np.max(np.abs(christoffel(Model.CH, zero, v).u.values)) <= 1e-15

    def test_constants(self, grid64):
        c = VelocityPair.single(zero_field(grid64) + 0.8)
        assert np.max(np.abs(christoffel(Model.CH, c, c).u.values)) <= 1e-15

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3), (1, 4)])
    def test_cosine_closed_form(self, grid128, k, l):
        out = christoffel(Model.CH, VelocityPair.single(cosine_field(grid128, k)),
                          VelocityPair.single(cosine_field(grid128, l))).u
        assert np.max(np.abs(out.values - ch_gamma_cosine_oracle(grid128, k, l))) <= 1e-12

    def test_zero_mean(self, grid64, rng):
        u = VelocityPair.single(random_band_limited(grid64, rng, 8) + 0.3)
        v = VelocityPair.single(random_band_limited(grid64, rng, 8) + 0.1)
        assert abs(christoffel(Model.CH, u, v).u.values.mean()) <= 1e-14


class TestChristoffelDP:
    def test_zero_input(self, grid64, rng):
        zero = VelocityPair.single(zero_field(grid64))
        v = VelocityPair.single(random_band_limited(grid64, rng, 6))
        assert np.max(np.abs(christoffel(Model.DP, zero, v).u.values)) == 0.0

    def test_constants(self, grid64):
        c = VelocityPair.single(zero_field(grid64) + 1.2)
        assert np.max(np.abs(christoffel(Model.DP, c, c).u.values)) <= 1e-15

    def test_cosine_value(self, grid64):
        # cos^2(2 pi x) = 1/2 + cos(4 pi x)/2, so the DP map returns
        # (3/2) * (2 pi) / (1 + 16 pi^2) * sin(4 pi x).
        u = VelocityPair.single(cosine_field(grid64, 1))
        expected = 1.5 * TWO_PI / (1.0 + (2 * TWO_PI) ** 2) * np.sin(2 * TWO_PI * grid64.points)
        assert np.max(np.abs(christoffel(Model.DP, u, u).u.values - expected)) <= 1e-13


class TestTwoComponentMaps:
    def test_2ch_reduces_to_ch(self, grid64, rng):
        u = VelocityPair.single(random_band_limited(grid64, rng, 8))
        v = VelocityPair.single(random_band_limited(grid64, rng, 8))
        out = christoffel(Model.CH2, u, v)
        ch = christoffel(Model.CH, u, v)
        assert np.array_equal(out.u.values, ch.u.values)
        assert np.max(np.abs(out.rho.values)) == 0.0
        assert np.max(np.abs(ch.rho.values)) == 0.0

    @pytest.mark.parametrize("model", [Model.CH, Model.DP])
    def test_one_component_ignores_density(self, model, grid64, rng):
        # CH and DP are the rho = tau = 0 restrictions of 2CH and 2DP.
        a = random_pair(grid64, rng)
        b = random_pair(grid64, rng)
        out = christoffel(model, a, b)
        bare = christoffel(model, VelocityPair.single(a.u), VelocityPair.single(b.u))
        assert np.array_equal(out.u.values, bare.u.values)
        assert np.max(np.abs(out.rho.values)) == 0.0

    def test_2ch_pure_density(self, grid64):
        # rho = cos(2 pi x), tau = cos(4 pi x):
        # -Ainv d/dx(rho tau)/2 = (pi/2) sin(2pi x)/(1+4pi^2) + (3pi/2) sin(6pi x)/(1+36pi^2)
        rho = cosine_field(grid64, 1)
        tau = cosine_field(grid64, 2)
        a = VelocityPair(zero_field(grid64), rho)
        b = VelocityPair(zero_field(grid64), tau)
        out = christoffel(Model.CH2, a, b)
        x = grid64.points
        expected = (0.5 * TWO_PI / 2 / (1 + TWO_PI**2) * np.sin(TWO_PI * x)
                    + 0.5 * 3 * TWO_PI / 2 / (1 + (3 * TWO_PI) ** 2) * np.sin(3 * TWO_PI * x))
        assert np.max(np.abs(out.u.values - expected)) <= 1e-13
        assert np.max(np.abs(out.rho.values)) == 0.0

    def test_2dp_reduces_to_dp(self, grid64, rng):
        u = VelocityPair.single(random_band_limited(grid64, rng, 8))
        v = VelocityPair.single(random_band_limited(grid64, rng, 8))
        out = christoffel(Model.DP2, u, v)
        assert np.array_equal(out.u.values, christoffel(Model.DP, u, v).u.values)
        assert np.max(np.abs(out.rho.values)) == 0.0

    def test_2dp_pure_density(self, grid64):
        # ((0,rho),(0,tau)) keeps only +Ainv d/dx(rho tau) in the first slot.
        rho = cosine_field(grid64, 1)
        tau = cosine_field(grid64, 2)
        out = christoffel(Model.DP2, VelocityPair(zero_field(grid64), rho),
                          VelocityPair(zero_field(grid64), tau))
        x = grid64.points
        expected = -(TWO_PI / 2 / (1 + TWO_PI**2) * np.sin(TWO_PI * x)
                     + 3 * TWO_PI / 2 / (1 + (3 * TWO_PI) ** 2) * np.sin(3 * TWO_PI * x))
        assert np.max(np.abs(out.u.values - expected)) <= 1e-13
        assert np.max(np.abs(out.rho.values)) == 0.0

    def test_2dp_diagonal(self, grid64, rng):
        # On the diagonal the map must match the displayed combination.
        s = random_pair(grid64, rng, max_mode=6)
        out = christoffel(Model.DP2, s, s)
        from chdp.spectral import dealiased_product, helmholtz_inverse
        ux = derivative(s.u)
        first = (christoffel(Model.DP, s, s).u
                 - helmholtz_inverse(dealiased_product(ux, s.rho))
                 + helmholtz_inverse(derivative(dealiased_product(s.rho, s.rho))))
        second = -2.0 * dealiased_product(ux, s.rho)
        assert np.max(np.abs(out.u.values - first.values)) <= 1e-13
        assert np.max(np.abs(out.rho.values - second.values)) <= 1e-13


class TestDispatch:
    @pytest.mark.parametrize("model", list(Model))
    def test_symmetry_exact(self, model, grid64, rng):
        a = random_pair(grid64, rng)
        b = random_pair(grid64, rng)
        ab = christoffel(model, a, b)
        ba = christoffel(model, b, a)
        assert np.array_equal(ab.u.values, ba.u.values)
        assert np.array_equal(ab.rho.values, ba.rho.values)

    @pytest.mark.parametrize("model", list(Model))
    def test_bilinearity(self, model, grid64, rng):
        a = random_pair(grid64, rng, max_mode=6)
        a2 = random_pair(grid64, rng, max_mode=6)
        b = random_pair(grid64, rng, max_mode=6)
        alpha, beta = 0.7, -1.3
        lhs = christoffel(model, alpha * a + beta * a2, b)
        rhs = alpha * christoffel(model, a, b) + beta * christoffel(model, a2, b)
        assert np.max(np.abs(lhs.u.values - rhs.u.values)) <= 1e-11
        assert np.max(np.abs(lhs.rho.values - rhs.rho.values)) <= 1e-11


def test_pair_grid_mismatch(grid64, grid128):
    with pytest.raises(ValueError, match="grid mismatch"):
        VelocityPair(zero_field(grid64), zero_field(grid128))


class TestMetric:
    def test_cosine_values(self, grid64):
        c1 = cosine_field(grid64, 1)
        u_only = VelocityPair.single(c1)
        assert metric(u_only, u_only) == pytest.approx((1 + 4 * np.pi**2) / 2, rel=1e-13)
        rho_only = VelocityPair(zero_field(grid64), c1)
        assert metric(rho_only, rho_only) == pytest.approx(0.5, abs=1e-14)
        rho_other = VelocityPair(zero_field(grid64), cosine_field(grid64, 2))
        assert metric(rho_only, rho_other) == pytest.approx(0.0, abs=1e-14)

    def test_positive_definite(self, grid64, rng):
        for _ in range(5):
            a = random_pair(grid64, rng)
            assert metric(a, a) > 0.0


class TestBracketAndAdTranspose:
    def test_bracket_antisymmetry(self, grid64, rng):
        a = random_pair(grid64, rng)
        ab = bracket(a, a)
        assert np.max(np.abs(ab.u.values)) <= 1e-14
        assert np.max(np.abs(ab.rho.values)) <= 1e-14

    def test_bracket_constant_first_components(self, grid64, rng):
        a = VelocityPair(zero_field(grid64) + 0.4, random_band_limited(grid64, rng, 6))
        b = VelocityPair(zero_field(grid64) - 1.1, random_band_limited(grid64, rng, 6))
        assert np.max(np.abs(bracket(a, b).u.values)) <= 1e-14

    def test_jacobi_identity(self, grid128, rng):
        a = random_pair(grid128, rng, max_mode=8)
        b = random_pair(grid128, rng, max_mode=8)
        c = random_pair(grid128, rng, max_mode=8)
        res = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
               + bracket(c, bracket(a, b)))
        assert np.max(np.abs(res.u.values)) <= 1e-9
        assert np.max(np.abs(res.rho.values)) <= 1e-9

    def test_ad_transpose_zero(self, grid64, rng):
        b = random_pair(grid64, rng)
        zero = VelocityPair(zero_field(grid64), zero_field(grid64))
        out = ad_transpose(zero, b)
        assert np.max(np.abs(out.u.values)) == 0.0
        assert np.max(np.abs(out.rho.values)) == 0.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_duality_identity(self, seed):
        # <ad_transpose(a, b), c> = <a, [b, c]> on random band-limited triples
        grid = Grid(128)
        rng = np.random.default_rng(seed)
        a = random_pair(grid, rng, max_mode=10)
        b = random_pair(grid, rng, max_mode=10)
        c = random_pair(grid, rng, max_mode=10)
        lhs = metric(ad_transpose(a, b), c)
        rhs = metric(a, bracket(b, c))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_2ch_gamma_from_ad_transpose(self, seed):
        # Gamma(a,b) = [ ((a1 b1)_x, a2_x b1 + b2_x a1) + B(a,b) + B(b,a) ] / 2
        grid = Grid(128)
        rng = np.random.default_rng(seed)
        a = random_pair(grid, rng, max_mode=10)
        b = random_pair(grid, rng, max_mode=10)
        transport = VelocityPair(
            derivative(a.u * b.u),
            derivative(a.rho) * b.u + derivative(b.rho) * a.u,
        )
        alt = 0.5 * (transport + ad_transpose(a, b) + ad_transpose(b, a))
        out = christoffel(Model.CH2, a, b)
        assert np.max(np.abs(out.u.values - alt.u.values)) <= 1e-10
        assert np.max(np.abs(out.rho.values - alt.rho.values)) <= 1e-10
