import functools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import object_form
from chdp import evolution
from chdp.connection import Model, VelocityPair, christoffel
from chdp.evolution import (
    EvolutionConfig,
    _kernel,
    _points,
    evolve,
    rhs,
    rhs_momentum_form,
    rk4,
    step_count,
    step_rk4,
)
from chdp.flowmap import evolve_flowmap
from chdp.spectral import (
    Grid,
    PeriodicField,
    cosine_field,
    dealias,
    dealiased_product,
    derivative,
    helmholtz,
    random_band_limited,
    zero_field,
)
from chdp.verification import _smooth_initial


def random_state(grid, rng, model, max_mode=8, scale=0.2):
    u = random_band_limited(grid, rng, max_mode, scale)
    if model.two_component:
        return VelocityPair(u, random_band_limited(grid, rng, max_mode, scale))
    return VelocityPair.single(u)


def spectra(state):
    """The (2, n//2 + 1) Fourier coefficients (rfft / n) of (u, rho) that `step_rk4` steps."""
    return np.stack((state.u.hat, state.rho.hat)) / state.grid.n


def values(y):
    """Grid values of the rows of the Fourier coefficients y."""
    return np.fft.irfft(y, 2 * (y.shape[-1] - 1), norm="forward")


class TestRhs:
    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_constants_are_steady(self, model, grid64):
        s = VelocityPair(zero_field(grid64) + 0.7, zero_field(grid64) - 0.4)
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


def max_gap(a, b):
    return float(np.max(np.abs(a - b)))


def advective_stage(model, grid, y):
    """A stage of the kernel on the coefficients y, with u_t and rho_t in advective form.

    One rfft per term: u u_x, the lifted quadratic terms, then u rho_x +
    rho u_x (2CH) or u rho_x + 2 rho u_x (2DP); on four rows also
    xi_t = -u - u xi_x and g_t = rho - u g_x, untruncated.
    """
    u, rho, *_ = np.fft.irfft(y, grid.n, norm="forward")
    ux, rhox, *labels_x = np.fft.irfft(y * grid.ik, grid.n, norm="forward")

    def coefficients(f):
        return np.fft.rfft(f, norm="forward")

    keep, h = grid.dealias_mask, grid.helmholtz_symbol
    if model in (Model.CH, Model.CH2):
        u_t = coefficients(u * ux) + grid.ik / h * coefficients(u * u + 0.5 * (ux * ux)
                                                                 + 0.5 * (rho * rho))
        rho_t = coefficients(u * rhox + rho * ux)
    else:
        u_t = (coefficients(u * ux) + grid.ik / h * coefficients(1.5 * (u * u) - rho * rho)
               + coefficients(rho * ux) / h)
        rho_t = coefficients(u * rhox + 2.0 * (rho * ux))
    out = [np.where(keep, -u_t, 0.0), np.where(keep, -rho_t, 0.0)]
    if labels_x:
        out += [-y[0] - coefficients(u * labels_x[0]), y[1] - coefficients(u * labels_x[1])]
    return np.stack(out)


class TestKernel:
    """The batched kernel against the object-form reference in `object_form`."""

    @given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([16, 64, 256, 1024]),
           model=st.sampled_from(list(Model)))
    @settings(max_examples=60, deadline=None)
    def test_rhs_matches_object_form(self, seed, n, model):
        # 1e-12 relative to the reference's max norm (at least 1).
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        max_mode = int(rng.integers(1, grid.dealias_cutoff + 1))
        s = random_state(grid, rng, model, max_mode=max_mode, scale=rng.uniform(0.01, 1.0))
        out, ref = rhs(model, s), object_form.rhs(model, s)
        for got, want in ((out.u.values, ref.u.values), (out.rho.values, ref.rho.values)):
            assert max_gap(got, want) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        if not model.two_component:
            assert np.array_equal(out.rho.values, np.zeros(n))

    @pytest.mark.parametrize("rows", [2, 4])
    @pytest.mark.parametrize("model", list(Model))
    def test_kernel_matches_advective_form(self, model, rows, rng):
        # The kernel's rho_t is -ik (u rho)^ (2DP: less (rho u_x)^); the
        # advective form sums u rho_x and rho u_x, one product each.
        for n in (16, 64, 256, 1024):
            grid = Grid(n)
            y = np.stack([random_band_limited(grid, rng, top, scale).hat / n
                          for top, scale in ((grid.dealias_cutoff, 0.5), (grid.dealias_cutoff, 0.3),
                                             (n // 2 - 1, 0.02), (n // 2 - 1, 0.1))][:rows])
            if not model.two_component:
                y[1] = 0.0
            got, want = _kernel(model, n, rows)(y), advective_stage(model, grid, y)
            for a, b in zip(got, want):
                assert max_gap(a, b) <= 1e-13 * np.max(np.abs(b)), (n, model, rows)

    @pytest.mark.parametrize("model", list(Model))
    def test_step_rk4_matches_object_form(self, model, grid64):
        rho = cosine_field(grid64, 2, 0.2) if model.two_component else zero_field(grid64)
        ref = VelocityPair(cosine_field(grid64, 1, 0.3) + 0.1, rho)
        y = spectra(ref)
        for _ in range(100):
            y = step_rk4(model, y, 1e-3)
            ref = object_form.step_rk4(model, ref, 1e-3)
        u, rho = values(y)
        assert max_gap(u, ref.u.values) <= 1e-12
        assert max_gap(rho, ref.rho.values) <= 1e-12

    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_step_rk4_fft_budget(self, model, grid256, monkeypatch):
        # Guards the batching: an irfft and an rfft per stage, where
        # per-field FFTs would cost about 60 calls.
        calls = []

        def counting(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        y = spectra(VelocityPair(cosine_field(grid256, 1, 0.3), cosine_field(grid256, 2, 0.2)))
        y = step_rk4(model, y, 1e-4)
        monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft))
        step_rk4(model, y, 1e-4)
        assert len(calls) == 8

    @pytest.mark.parametrize("model", list(Model))
    def test_step_from_monitor_points_is_exact(self, model, grid256, rng):
        # `evolve` hands the monitor's irfft of y to the next step as stage
        # 1's: the same spectra through the same call, so the same bits.
        y = spectra(random_state(grid256, rng, model, max_mode=grid256.dealias_cutoff))
        points = _points(grid256, y)
        assert np.array_equal(step_rk4(model, y, 1e-3, points=points), step_rk4(model, y, 1e-3))


def count_calls(monkeypatch, owner, names):
    """Wrap owner.<name> for each name; returns the list the wrappers append to."""
    calls = []

    def counting(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
    return calls


class TestEvolveCost:
    """`evolve` steps one (2, n) array and builds fields only for recorded steps."""

    @pytest.mark.parametrize("stride", [100, 10])
    def test_fft_budget_of_a_run(self, grid256, monkeypatch, stride):
        # 8 FFT calls per step (the monitor's irfft, which stage 1 of the
        # next step reuses, and 7 for the rest of the RK4 step on spectra)
        # and none per record, whose diagnostics read the kept values and
        # slopes; per-field stepping would cost about 60 per step.
        config = EvolutionConfig(Model.CH2, dt=1e-4, t_end=0.01, diagnostics_stride=stride)
        initial = VelocityPair(cosine_field(grid256, 1, 0.3), cosine_field(grid256, 2, 0.2))
        calls = count_calls(monkeypatch, np.fft, ["rfft", "irfft"])
        assert len(evolve(config, initial).diagnostics) == 100 // stride + 1
        assert 8 * 100 < len(calls) <= 8 * 100 + 10

    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_fft_calls_per_step(self, grid256, monkeypatch, model):
        # The spectral state costs 2 FFT calls per RK4 stage and 1 for the
        # monitor, whose irfft is stage 1's of the next step.  Runs of 2 and
        # 12 steps keep the same two records, so their difference counts
        # steps 3-12 alone.
        initial = VelocityPair(cosine_field(grid256, 1, 0.3), cosine_field(grid256, 2, 0.2))
        counts = []
        for steps in (2, 12):
            config = EvolutionConfig(model, dt=1e-4, t_end=steps * 1e-4, diagnostics_stride=100)
            with monkeypatch.context() as patch:
                calls = count_calls(patch, np.fft, ["rfft", "irfft"])
                assert len(evolve(config, initial).diagnostics) == 2
            counts.append(len(calls))
        assert 0 < counts[1] - counts[0] <= 8 * 10

    def test_flowmap_fft_calls_per_step(self, grid256, monkeypatch):
        # 3 FFT calls per stage (the irfft of (u, rho, u_x, rho_x, psi), the
        # off-grid evaluator's irfft and one rfft shared by the kernel's
        # terms and (u, rho) o phi) and 1 for the monitor, whose irfft is
        # stage 1's of the next step: 12, where stepping grid values took 28.
        initial = VelocityPair(cosine_field(grid256, 1, 0.3), cosine_field(grid256, 2, 0.2))
        counts = []
        for steps in (2, 12):
            config = EvolutionConfig(Model.DP2, dt=1e-4, t_end=steps * 1e-4)
            with monkeypatch.context() as patch:
                calls = count_calls(patch, np.fft, ["rfft", "irfft"])
                assert evolve_flowmap(config, initial).status.completed
            counts.append(len(calls))
        assert 0 < counts[1] - counts[0] <= 12 * 10

    def test_fields_only_for_recorded_steps(self, grid64, monkeypatch):
        initial = VelocityPair(cosine_field(grid64, 1, 0.3), cosine_field(grid64, 2, 0.2))
        built = []
        for steps in (50, 200):
            config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=steps * 1e-3,
                                     diagnostics_stride=steps)
            with monkeypatch.context() as patch:
                calls = count_calls(patch, PeriodicField, ["__init__"])
                result = evolve(config, initial)
            assert len(result.times) == 2
            built.append(len(calls))
        assert built[0] == built[1]


class TestMomentumForm:
    @pytest.mark.parametrize("model", list(Model))
    def test_constants(self, model, grid64):
        rho0 = 0.3 if model.two_component else 0.0
        s = VelocityPair(zero_field(grid64) + 1.1, zero_field(grid64) + rho0)
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

    @pytest.mark.parametrize("shape, dtype", [((2, 129), complex), ((4, 513), complex),
                                              ((4, 3), float)])
    @pytest.mark.parametrize("given_k1", [False, True])
    def test_in_place_sum_is_the_textbook_sum(self, rng, shape, dtype, given_k1):
        # The same operations in the same order: the same bits, with
        # neither y nor a given k1 written.
        y = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            y += 1j * rng.standard_normal(shape)

        def f(v):
            return v * v[::-1] - 0.3 * np.roll(v, 1, axis=-1)

        k1 = f(y) if given_k1 else None
        y_before, k1_before = y.copy(), None if k1 is None else k1.copy()
        out = rk4(f, y, 0.037, k1)
        assert np.array_equal(out, object_form.rk4(f, y, 0.037, k1))
        assert np.array_equal(y, y_before)
        if given_k1:
            assert np.array_equal(k1, k1_before)
        assert not np.shares_memory(out, y)

    @pytest.mark.parametrize("model, rows", [(Model.CH2, 2), (Model.DP, 2), (Model.DP2, 4)])
    def test_kernel_steps_are_the_textbook_sum(self, model, rows, grid256, rng):
        # The kernel reuses its buffers across the four stages of one step.
        kernel = _kernel(model, grid256.n, rows)
        y = np.stack([random_band_limited(grid256, rng, grid256.dealias_cutoff, 0.2).hat
                      for _ in range(rows)])
        assert np.array_equal(rk4(kernel, y, 1e-3), object_form.rk4(kernel, y, 1e-3))


class TestKernelWorkspaces:
    """A stage writes into buffers its kernel owns and returns a new array."""

    @pytest.mark.parametrize("model, rows", [(Model.CH2, 2), (Model.DP, 2), (Model.DP2, 4)])
    def test_outputs_are_new_arrays(self, model, rows, grid256, rng):
        kernel = _kernel(model, grid256.n, rows)
        states = [np.stack([random_band_limited(grid256, rng, 8, 0.3).hat for _ in range(rows)])
                  for _ in range(3)]
        outputs = [kernel(states[0]), kernel(states[1], _points(grid256, states[1]))]
        kept = [out.copy() for out in outputs]
        outputs.append(kernel(states[2]))
        for out in outputs:
            assert not any(np.shares_memory(out, buffer) for buffer in kernel._work)
            assert not any(np.shares_memory(out, y) for y in states)
        assert not np.shares_memory(outputs[0], outputs[1])
        for out, before in zip(outputs, kept):
            assert np.array_equal(out, before)

    def test_flowmap_run_builds_only_its_kernel(self):
        # The monitor reads the grid alone, so a flow map builds its
        # four-row kernel and no two-row one.
        _kernel.cache_clear()
        grid = Grid(64)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=2e-3)
        evolve_flowmap(config, VelocityPair(cosine_field(grid, 1, 0.1), cosine_field(grid, 1, 0.1)))
        assert _kernel.cache_info().currsize == 1
        _kernel.cache_clear()

    @pytest.mark.parametrize("rows", [2, 4])
    def test_points_into_buffers_give_the_same_bits(self, rows, grid256, rng):
        # The step loop's monitor writes every step into the same two arrays.
        y = np.stack([random_band_limited(grid256, rng, 8, 0.3).hat for _ in range(rows)])
        out = np.empty((2 * rows, y.shape[-1]), complex), np.empty((2 * rows, grid256.n))
        z = _points(grid256, y, out)
        assert z is out[1]
        assert np.array_equal(z, _points(grid256, y))

    @pytest.mark.parametrize("n", [64, 96, 256, 1024])
    def test_points_lays_out_each_pair_alone(self, n, rng):
        # The irfft of (u, rho, xi, g) is that of (u, rho) and then that of
        # (xi, g), bit for bit: each pair's values, then its slopes.
        grid = Grid(n)
        y = np.stack([random_band_limited(grid, rng, n // 2 - 1, 0.3).hat / n for _ in range(4)])
        assert np.array_equal(_points(grid, y),
                              np.concatenate((_points(grid, y[:2]), _points(grid, y[2:]))))

    def test_interleaved_runs_give_the_rows_of_each_run_alone(self, grid256):
        # evolve 2CH, evolve DP and flowmap 2DP stepped in turn, each stage
        # of one run followed by a stage of the next run's kernel.
        wave = cosine_field(grid256, 1, 0.3) + 0.1
        runs = [(Model.CH2, 2, VelocityPair(wave, cosine_field(grid256, 2, 0.2))),
                (Model.DP, 2, VelocityPair.single(wave)),
                (Model.DP2, 4, VelocityPair(wave, cosine_field(grid256, 3, 0.1)))]
        configs = [EvolutionConfig(model, dt=1e-3, t_end=0.02, diagnostics_stride=1)
                   for model, _, _ in runs]
        alone = [evolve(configs[0], runs[0][2]), evolve(configs[1], runs[1][2]),
                 evolve_flowmap(configs[2], runs[2][2])]
        kernels = [_kernel(model, grid256.n, rows) for model, rows, _ in runs]
        states = []
        for config, (_, rows, initial) in zip(configs, runs):
            y = np.zeros((rows, grid256.n // 2 + 1), complex)
            y[:2] = evolution._initial_state(config, initial)
            states.append(y)
        rows_seen = [[_points(grid256, y)] for y in states]
        for _ in range(configs[0].n_steps):
            for i, (kernel, z) in enumerate(zip(kernels, (seen[-1] for seen in rows_seen))):
                j = (i + 1) % len(runs)

                def stage(s, kernel=kernel, j=j):
                    kernels[j](states[j])
                    return kernel(s)

                states[i] = evolution.rk4(stage, states[i], 1e-3, kernel(states[i], z))
                rows_seen[i].append(_points(grid256, states[i]))
        for seen, result in zip(rows_seen, alone):
            z = np.stack(seen, axis=1)  # (u, rho, u_x, rho_x) first on two and four rows
            assert np.array_equal(z[:2], np.stack((result.u, result.rho)))
            assert np.array_equal(z[2].min(axis=1), result.diagnostics.min_ux)
            assert np.array_equal(np.abs(z[3]).max(axis=1), result.diagnostics.max_abs_rhox)


class TestStepCount:
    @pytest.mark.parametrize("dt, t_end, steps", [(1e-4, 1.0, 10000), (1e-3, 0.05, 50),
                                                  (5e-4, 2.0, 4000), (0.3, 0.9, 3),
                                                  (0.1, 0.1, 1)])
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
        out = step_rk4(Model.CH2, np.zeros((2, grid64.n // 2 + 1), complex), 1e-2)
        assert np.max(np.abs(out)) == 0.0

    def test_constants_fixed_point(self, grid64):
        s = VelocityPair(zero_field(grid64) + 0.5, zero_field(grid64) + 0.2)
        u, rho = values(step_rk4(Model.CH2, spectra(s), 1e-2))
        assert np.max(np.abs(u - 0.5)) <= 1e-14
        assert np.max(np.abs(rho - 0.2)) <= 1e-14

    def test_non_finite_step_is_returned(self, grid64):
        # step_rk4 does not test the result: the monitor of `evolve` finds
        # a non-finite step.  NaN is quiet, so no warning is raised either
        # (the suite turns warnings into errors).
        bad = VelocityPair(zero_field(grid64) + np.nan, zero_field(grid64))
        out = step_rk4(Model.CH2, spectra(bad), 1e-2)
        assert np.isnan(out).all()

    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_global_order_four(self, model):
        grid = Grid(64)
        y0 = spectra(VelocityPair(cosine_field(grid, 1, 0.3), cosine_field(grid, 2, 0.2)))

        def integrate(dt, t_end=0.5):
            y = y0
            for _ in range(step_count(dt, t_end)):
                y = step_rk4(model, y, dt)
            return values(y)[0]

        ref = integrate(5e-4)
        e1 = np.max(np.abs(integrate(4e-3) - ref))
        e2 = np.max(np.abs(integrate(2e-3) - ref))
        assert 14.0 <= e1 / e2 <= 18.0


@given(row=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       zeros=st.lists(st.sampled_from([0.0, -0.0]), max_size=4))
@settings(max_examples=200, deadline=None)
def test_max_abs_from_extrema_has_the_bits_of_abs_max(row, zeros):
    row = np.array(row + zeros)
    want = np.max(np.abs(row))
    got = evolution._max_abs(row.min().item(), row.max().item())
    assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("low", [0.0, -0.0])
@pytest.mark.parametrize("high", [0.0, -0.0])
def test_max_abs_of_signed_zeros(low, high):
    # Whichever zero a reduction returns for min and max, the result is +0.0.
    assert np.array(evolution._max_abs(low, high)).tobytes() == np.zeros(()).tobytes()


class TestEvolve:
    def test_zero_initial(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-2, t_end=0.1)
        result = evolve(config, VelocityPair(zero_field(grid64), zero_field(grid64)))
        assert result.status.completed
        assert np.max(np.abs(result.u)) == 0.0

    def test_result_views_one_read_only_history(self, grid64):
        # Row 0 is the dealiased start bit for bit; every array views one
        # history of the grid values alone, and no caller can write it or
        # the diagnostics.
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.05, diagnostics_stride=10)
        initial = VelocityPair(cosine_field(grid64, 1, 0.2) + cosine_field(grid64, 30, 0.1),
                               cosine_field(grid64, 2, 0.1))
        result = evolve(config, initial)
        start = (dealias(initial.u).values, dealias(initial.rho).values)
        assert np.array_equal(result.u[0], start[0]) and np.array_equal(result.rho[0], start[1])
        state = result.state(3)
        assert np.array_equal(state.u.values, result.u[3])
        assert np.array_equal(state.rho.values, result.rho[3])
        assert result.u.base.shape == (2, len(result.times), grid64.n)
        assert result.rho.base is result.u.base
        arrays = (result.u, result.rho, *vars(result.diagnostics).values())
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            result.rho[0, 0] = 1.0

    def test_single_component_rejects_rho(self, grid64):
        config = EvolutionConfig(Model.CH, dt=1e-2, t_end=0.1)
        with pytest.raises(ValueError, match="rho"):
            evolve(config, VelocityPair(cosine_field(grid64, 1), cosine_field(grid64, 1)))

    def test_2ch_reduction_matches_ch(self, grid64):
        u0 = cosine_field(grid64, 1, 0.2)
        cfg2 = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.2)
        cfg1 = EvolutionConfig(Model.CH, dt=1e-3, t_end=0.2)
        two = evolve(cfg2, VelocityPair.single(u0))
        one = evolve(cfg1, VelocityPair.single(u0))
        assert np.max(np.abs(two.u[-1] - one.u[-1])) <= 1e-10
        assert np.max(np.abs(two.rho[-1])) == 0.0

    def test_2ch_energy_conservation(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, diagnostics_stride=100)
        initial = VelocityPair(cosine_field(grid64, 1, 0.1), cosine_field(grid64, 1, 0.1))
        result = evolve(config, initial)
        assert result.status.completed
        energy = result.diagnostics.energy
        assert np.max(np.abs(energy - energy[0])) / energy[0] <= 1e-8

    def test_2ch_mean_invariants_conserved(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.5, diagnostics_stride=50)
        initial = VelocityPair(cosine_field(grid64, 1, 0.2) + 0.1,
                               cosine_field(grid64, 2, 0.2) + 0.3)
        result = evolve(config, initial)
        for column in (result.diagnostics.mean_m, result.diagnostics.mean_rho):
            assert np.max(np.abs(column - column[0])) <= 1e-10

    def test_blowup_detector_fires_min_ux(self):
        grid = Grid(256)
        config = EvolutionConfig(Model.CH2, dt=5e-4, t_end=2.0,
                                 blowup_slope_threshold=-50.0,
                                 diagnostics_stride=100)
        result = evolve(config, VelocityPair.single(cosine_field(grid, 1, 2.0)))
        assert result.status.kind == "blowup_detected"
        assert result.status.reason == "min_ux"
        assert result.status.t is not None and result.status.t < 2.0
        assert result.diagnostics.min_ux[-1] < -50.0

    def test_blowup_detector_fires_rhox(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, blowup_rhox_threshold=5.0)
        initial = VelocityPair(zero_field(grid64), cosine_field(grid64, 1, 1.0))
        result = evolve(config, initial)
        assert result.status.kind == "blowup_detected"
        assert result.status.reason == "max_abs_rhox"

    def test_blowup_value_min_ux(self):
        # The value is the monitored min u_x that crossed the threshold, the
        # same number the kept blow-up record reports.
        grid = Grid(256)
        config = EvolutionConfig(Model.CH2, dt=5e-4, t_end=2.0,
                                 blowup_slope_threshold=-50.0, diagnostics_stride=100)
        result = evolve(config, VelocityPair.single(cosine_field(grid, 1, 2.0)))
        assert result.status.reason == "min_ux"
        assert result.status.value == result.diagnostics.min_ux[-1] < -50.0
        assert result.diagnostics.t[-1] == result.status.t

    def test_blowup_value_max_abs_rhox(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, blowup_rhox_threshold=5.0)
        initial = VelocityPair(zero_field(grid64), cosine_field(grid64, 1, 1.0))
        result = evolve(config, initial)
        assert result.status.reason == "max_abs_rhox"
        # rho_x = -2 pi sin(2 pi x) at t=0: max |rho_x| = 2 pi on the grid
        assert result.status.t == 0.0
        assert result.status.value == result.diagnostics.max_abs_rhox[-1]
        assert result.status.value == pytest.approx(2.0 * np.pi, rel=1e-13)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_carries_no_value(self, grid64):
        # Finite data whose first step overflows (non-finite data are an
        # input error, not a blow-up).
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.01, blowup_slope_threshold=-1e300,
                                 blowup_rhox_threshold=1e300)
        result = evolve(config, VelocityPair(cosine_field(grid64, 1, 1e200), zero_field(grid64)))
        assert (result.status.reason, result.status.value) == ("non_finite", None)
        assert result.status.t == config.dt

    def test_detector_quiet_on_smooth_run(self, grid64):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.5)
        result = evolve(config, VelocityPair.single(cosine_field(grid64, 1, 0.1)))
        assert result.status.completed

    @pytest.mark.parametrize("model", [Model.CH2, Model.DP2])
    def test_diagnostics_columns_match_one_state_oracle(self, model, grid64):
        # The columns come from the kept values and slopes in one pass; the
        # one-state forms build fields and transform them.
        config = EvolutionConfig(model, dt=1e-3, t_end=0.2, diagnostics_stride=20)
        initial = VelocityPair(cosine_field(grid64, 1, 0.2) + 0.1,
                               cosine_field(grid64, 2, 0.2) + 0.3)
        result = evolve(config, initial)
        table = result.diagnostics
        assert len(table) == len(result.times) == 11
        for i in range(len(table)):
            state = result.state(i)
            mean_m, mean_rho = object_form.mean_invariants(state)
            assert table.energy[i] == pytest.approx(object_form.conserved_energy(state),
                                                    rel=1e-12)
            assert table.mean_m[i] == pytest.approx(mean_m, rel=1e-12)
            assert table.mean_rho[i] == pytest.approx(mean_rho, rel=1e-12)


def _pole_initial(grid):
    """Analytic data with modes decaying like 2^-k: u = 0.1 / (5/4 - cos 2 pi x), rho = u / 2."""
    u = PeriodicField(grid, 0.1 / (1.25 - np.cos(2.0 * np.pi * grid.points)))
    return VelocityPair(u, 0.5 * u)


@pytest.mark.parametrize("initial", [lambda g: _smooth_initial(Model.CH2, g), _pole_initial],
                         ids=["smooth", "pole"])
def test_spatial_convergence(initial):
    # 2CH to t = 0.1 at n = 32, 64, 128 against n = 256 on the shared grid
    # points: each doubling cuts the max error by at least 10x until it
    # reaches the 1e-12 floor.  Recorded run: smooth (the acceptance
    # suite's data) 2.0e-13, 1.0e-16, 8.3e-17, at the floor from n = 32;
    # pole 2.6e-3, 6.0e-5, 5.5e-8 (ratios 44 and 1092).
    finals = {}
    for n in (32, 64, 128, 256):
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.1, diagnostics_stride=100)
        result = evolve(config, initial(Grid(n)))
        assert result.status.completed
        finals[n] = np.stack((result.u[-1], result.rho[-1]))
    errors = [max_gap(finals[n], finals[256][:, ::256 // n]) for n in (32, 64, 128)]
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse / 10.0, 1e-12), errors


class TestScalars:
    def test_energy_values(self, grid64):
        z = VelocityPair(zero_field(grid64), zero_field(grid64))
        assert object_form.conserved_energy(z) == 0.0
        c = VelocityPair.single(cosine_field(grid64, 1))
        assert object_form.conserved_energy(c) == pytest.approx((1 + 4 * np.pi**2) / 2,
                                                                rel=1e-13)

    def test_mean_invariants_zero(self, grid64):
        z = VelocityPair(zero_field(grid64), zero_field(grid64))
        assert object_form.mean_invariants(z) == (0.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(Model.CH2, dt=0.2, t_end=0.1)
        with pytest.raises(ValueError, match="stride"):
            EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, diagnostics_stride=0)
        for stride in (2.0, 2.5):
            message = f"stride must be >= 1 and an integer, got {stride}"
            with pytest.raises(ValueError, match=message):
                EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, diagnostics_stride=stride)
        config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, diagnostics_stride=np.int64(2))
        assert config.diagnostics_stride == 2
        with pytest.raises(ValueError):
            EvolutionConfig(Model.CH2, dt=1e-3, t_end=1.0, blowup_slope_threshold=1.0)
        with pytest.raises(ValueError, match="whole number of steps"):
            EvolutionConfig(Model.CH2, dt=0.3, t_end=1.0)
