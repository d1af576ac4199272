import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from chdp import flowmap, spectral
from chdp.connection import Model, VelocityPair
from chdp.evolution import EvolutionConfig
from chdp.spectral import (
    Diffeo,
    DegenerateJacobianError,
    Grid,
    InversionError,
    PeriodicField,
    apply_series_matrix,
    compose,
    cosine_field,
    dealias,
    derivative,
    evaluate,
    helmholtz,
    helmholtz_inverse,
    inner_h1,
    inner_l2,
    invert_diffeo,
    random_band_limited,
    series_matrix,
    zero_field,
)

TWO_PI = 2.0 * np.pi


def test_grid_invariants():
    g = Grid(64)
    assert g.n == 64
    assert np.allclose(np.diff(g.points), 1.0 / 64)
    assert g.points[0] == 0.0
    with pytest.raises(ValueError):
        Grid(63)
    with pytest.raises(ValueError):
        Grid(8)
    assert Grid(np.int64(256)).dealias_cutoff == 85


@pytest.mark.parametrize("n", [256.0, "256"])
def test_grid_size_must_be_an_integer(n):
    # A float size would build (cutoff 85.0) and fail later in np.fft.
    with pytest.raises(ValueError, match=f"grid size must be an integer, got {n!r}"):
        Grid(n)


def test_field_roundtrip(grid128, rng):
    f = random_band_limited(grid128, rng, 20)
    back = PeriodicField.from_hat(grid128, f.hat)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values)))


def test_field_values_readonly(grid64):
    f = cosine_field(grid64, 1)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_derivative_cosine(grid64):
    f = cosine_field(grid64, 1)
    expected = -TWO_PI * np.sin(TWO_PI * grid64.points)
    assert np.allclose(derivative(f).values, expected, atol=1e-12)


def test_derivative_constant(grid64):
    assert np.max(np.abs(derivative(zero_field(grid64) + 1.0).values)) == 0.0


def test_derivative_finite_difference_oracle(grid128):
    # sin(4 pi x) against a centered difference at h = 1e-6
    h = 1e-6
    x = grid128.points
    fd = (np.sin(4 * np.pi * (x + h)) - np.sin(4 * np.pi * (x - h))) / (2 * h)
    f = PeriodicField(grid128, np.sin(2 * TWO_PI * grid128.points))
    assert np.max(np.abs(derivative(f).values - fd)) <= 1e-6


def test_derivative_zero_mean(grid64, rng):
    f = random_band_limited(grid64, rng, 10) + 0.7
    assert abs(derivative(f).mean()) <= 1e-14


def test_helmholtz_eigenfunction(grid64):
    f = cosine_field(grid64, 1)
    assert np.allclose(helmholtz(f).values, (1 + 4 * np.pi**2) * f.values, rtol=1e-13)


def test_helmholtz_constant(grid64):
    f = zero_field(grid64) + 2.5
    assert np.allclose(helmholtz(f).values, f.values, rtol=1e-14)


def test_helmholtz_mode_by_mode(grid64):
    # cos(2 pi x) + sin(6 pi x): each mode scales by its own multiplier
    f = cosine_field(grid64, 1) + np.sin(3 * TWO_PI * grid64.points)
    x = grid64.points
    expected = ((1 + (TWO_PI) ** 2) * np.cos(TWO_PI * x)
                + (1 + (6 * np.pi) ** 2) * np.sin(6 * np.pi * x))
    assert np.allclose(helmholtz(f).values, expected, rtol=1e-12)


def test_helmholtz_inverse_cosine(grid64):
    f = cosine_field(grid64, 1)
    assert np.allclose(helmholtz_inverse(f).values, f.values / (1 + 4 * np.pi**2),
                       rtol=1e-13)


def test_helmholtz_inverse_constant(grid64):
    f = zero_field(grid64) + 1.0
    assert np.allclose(helmholtz_inverse(f).values, f.values, rtol=1e-14)


def test_helmholtz_roundtrip(grid128, rng):
    w = random_band_limited(grid128, rng, 40)
    back = helmholtz_inverse(helmholtz(w))
    scale = np.max(np.abs(w.values))
    assert np.max(np.abs(back.values - w.values)) <= 1e-11 * scale


def test_operators_commute(grid128, rng):
    f = random_band_limited(grid128, rng, 10)
    pairs = [
        (lambda g: derivative(helmholtz(g)), lambda g: helmholtz(derivative(g))),
        (lambda g: derivative(helmholtz_inverse(g)), lambda g: helmholtz_inverse(derivative(g))),
        (lambda g: helmholtz(helmholtz_inverse(g)), lambda g: helmholtz_inverse(helmholtz(g))),
    ]
    for left, right in pairs:
        assert np.max(np.abs(left(f).values - right(f).values)) <= 1e-10


def test_inner_l2_orthogonality(grid64):
    c1 = cosine_field(grid64, 1)
    c2 = cosine_field(grid64, 2)
    one = zero_field(grid64) + 1.0
    assert inner_l2(c1, c1) == pytest.approx(0.5, abs=1e-14)
    assert inner_l2(c1, c2) == pytest.approx(0.0, abs=1e-14)
    assert inner_l2(one, one) == pytest.approx(1.0, abs=1e-14)


def test_inner_l2_grid_mismatch(grid64, grid128):
    with pytest.raises(ValueError, match="grid mismatch"):
        inner_l2(cosine_field(grid64, 1), cosine_field(grid128, 1))


def test_inner_h1_values(grid64):
    c1 = cosine_field(grid64, 1)
    one = zero_field(grid64) + 1.0
    s1 = PeriodicField(grid64, np.sin(TWO_PI * grid64.points))
    assert inner_h1(c1, c1) == pytest.approx((1 + 4 * np.pi**2) / 2, rel=1e-13)
    assert inner_h1(one, one) == pytest.approx(1.0, abs=1e-14)
    assert inner_h1(c1, s1) == pytest.approx(0.0, abs=1e-13)


def test_inner_h1_is_l2_against_helmholtz(grid128, rng):
    f = random_band_limited(grid128, rng, 40)
    g = random_band_limited(grid128, rng, 40)
    assert abs(inner_h1(f, g) - inner_l2(helmholtz(f), g)) <= 1e-10


def test_compose_identity(grid64, rng):
    f = random_band_limited(grid64, rng, 15)
    out = compose(f, Diffeo(zero_field(grid64)))
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_compose_shift(grid64):
    f = cosine_field(grid64, 1)
    shifted = compose(f, Diffeo(zero_field(grid64) + 0.25))
    expected = -np.sin(TWO_PI * grid64.points)
    assert np.max(np.abs(shifted.values - expected)) <= 1e-12


def test_compose_against_oversampled_spline(grid64, rng):
    # Band-limited f evaluated off-grid must match a cubic spline built on a
    # 64x oversampled version of the same series.
    f = random_band_limited(grid64, rng, 6)
    psi = random_band_limited(grid64, rng, 3, scale=0.02)
    phi = Diffeo(psi)

    fine = Grid(64 * grid64.n)
    hat_fine = np.zeros(fine.n // 2 + 1, dtype=complex)
    hat_fine[: grid64.n // 2 + 1] = f.hat * (fine.n / grid64.n)
    fine_vals = np.fft.irfft(hat_fine, n=fine.n)
    xs = np.concatenate([fine.points, [1.0]])
    ys = np.concatenate([fine_vals, [fine_vals[0]]])
    spline = CubicSpline(xs, ys, bc_type="periodic")

    out = compose(f, phi)
    oracle = spline(np.mod(phi.warped_points, 1.0))
    assert np.max(np.abs(out.values - oracle)) <= 1e-10


def test_diffeo_rejects_degenerate():
    grid = Grid(64)
    steep = PeriodicField(grid, 0.3 * np.sin(TWO_PI * grid.points))
    with pytest.raises(DegenerateJacobianError):
        Diffeo(steep * 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diffeo_rejects_non_finite(bad):
    # NaN would pass the Jacobian check (min() <= 0 is False for NaN) and
    # leave invert_diffeo to fail on convergence; inf would warn first.
    values = np.zeros(16)
    values[3] = bad
    with pytest.raises(ValueError, match="displacement must be finite"):
        Diffeo(PeriodicField(Grid(16), values))


def test_invert_identity_and_shift(grid64):
    ident = invert_diffeo(Diffeo(zero_field(grid64)))
    assert np.max(np.abs(ident.displacement.values)) <= 1e-12
    inv = invert_diffeo(Diffeo(zero_field(grid64) + 0.25))
    assert np.allclose(inv.displacement.values, -0.25, atol=1e-12)


def test_invert_roundtrip(grid128, rng):
    psi = random_band_limited(grid128, rng, 5, scale=0.03)
    phi = Diffeo(psi)
    inv = invert_diffeo(phi)
    # phi(inv(x)) = x
    forward = inv.warped_points + evaluate(phi.displacement, inv.warped_points)
    assert np.max(np.abs(forward - grid128.points)) <= 1e-9


def test_invert_reports_a_stalled_newton(grid128, rng, monkeypatch):
    # One step only tests the interpolated guess, which a warped map misses.
    monkeypatch.setattr(spectral, "_INVERSION_MAX_ITER", 1)
    phi = Diffeo(random_band_limited(grid128, rng, 5, scale=0.03))
    with pytest.raises(InversionError, match=r"did not reach 1e-12 in 1 Newton steps"):
        invert_diffeo(phi)


def test_compose_roundtrip(grid128, rng):
    # moderate band, moderate warp
    f = random_band_limited(grid128, rng, grid128.dealias_cutoff // 2)
    psi = random_band_limited(grid128, rng, 4, scale=0.02)
    phi = Diffeo(psi)
    back = compose(compose(f, phi), invert_diffeo(phi))
    assert np.max(np.abs(back.values - f.values)) <= 1e-8


def test_compose_roundtrip_full_band(grid128, rng):
    # content up to the n/3 cutoff survives a mild warp: the phase
    # modulation depth 2 pi K |psi| must stay small or the composed field
    # spreads past Nyquist
    f = random_band_limited(grid128, rng, grid128.dealias_cutoff)
    psi = random_band_limited(grid128, rng, 2, scale=3e-3)
    phi = Diffeo(psi)
    back = compose(compose(f, phi), invert_diffeo(phi))
    assert np.max(np.abs(back.values - f.values)) <= 1e-8


def upper_half_amplitude(f):
    """Sum of the mode amplitudes of f from n/4 up.

    Evaluating a sampled function off the grid errs by at most twice the
    sum of its amplitudes above n/2; on a geometrically decaying spectrum
    the modes from n/4 up bound that sum.
    """
    n = f.grid.n
    return float(np.sum(np.abs(f.hat[n // 4:])) * 2.0 / n)


@st.composite
def circle_maps(draw):
    """A Diffeo with modes 1..M, M <= 6, scaled to min phi_x in [0.2, 0.95].

    The grid holds at least 16 points per period of mode M (n >= 16 M, even,
    at most 512): on coarser grids the inverse of a map with min phi_x near
    0.2 is not resolved (n = 16 with M = 6 gives an inverse whose spectral
    Jacobian is negative).
    """
    max_mode = draw(st.integers(1, 6))
    grid = Grid(2 * draw(st.integers(8 * max_mode, 256)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = random_band_limited(grid, rng, max_mode)
    min_jacobian = draw(st.floats(0.2, 0.95))
    return Diffeo(psi * ((1.0 - min_jacobian) / -np.min(derivative(psi).values)))


@given(phi=circle_maps(), seed=st.integers(0, 2**32 - 1), f_modes=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_roundtrips_through_inverse(phi, seed, f_modes):
    # Bound: twice the upper-half amplitude of the field evaluated off the
    # grid (the inverse's displacement for inv o phi, f o phi for the
    # composition), plus 1e-11 and 1e-10 max|f| for Newton's 1e-12
    # residual and round-off.
    grid = phi.grid
    assert np.min(phi.jacobian.values) >= 0.2 - 1e-12
    inv = invert_diffeo(phi)
    y = phi.warped_points
    identity = y + evaluate(inv.displacement, y)
    assert np.max(np.abs(identity - grid.points)) <= (
        1e-11 + 2.0 * upper_half_amplitude(inv.displacement))

    f = random_band_limited(grid, np.random.default_rng(seed), f_modes)
    f_phi = compose(f, phi)
    scale = np.max(np.abs(f.values))
    back = compose(f_phi, inv)
    assert np.max(np.abs(back.values - f.values)) <= (
        1e-10 * scale + 2.0 * upper_half_amplitude(f_phi))


def test_dealias_cutoff(grid128):
    assert 3 * grid128.dealias_cutoff < grid128.n
    high = cosine_field(grid128, grid128.dealias_cutoff + 1)
    assert np.max(np.abs(dealias(high).values)) <= 1e-13
    low = cosine_field(grid128, grid128.dealias_cutoff)
    assert np.max(np.abs(dealias(low).values - low.values)) <= 1e-13


def test_zero_field(grid64):
    assert np.all(zero_field(grid64).values == 0.0)


@pytest.mark.parametrize("kmax", [0, 1, 2, 3, 4, 5, 7, 8, 9, 341, 2048])
def test_series_matrix_by_doubling(rng, kmax):
    # Every boundary of the doubling loop (kmax + 1 a power of 2, and one
    # row above and below it) and the flow-map sizes.  The points are dyadic,
    # j / 2**20 in [-3, 4), so k y is exact and exp(2 pi i frac(k y)) is the
    # exact entry to one rounding; the plan's round-off grows like k.  A 2-D
    # y is flattened.
    y = rng.integers(-3 * 2**20, 4 * 2**20, size=(4, 25)) / 2**20
    plan = series_matrix(Grid(64), y, kmax=kmax)
    assert plan.shape == (y.size, kmax + 1)
    k = np.arange(kmax + 1)
    ky = np.outer(y.ravel(), k)
    want = np.exp(2j * np.pi * (ky - np.floor(ky)))
    assert np.all(np.abs(plan - want) <= 5e-15 * np.maximum(k, 1))


def dense_series(hats, y, kmax):
    """The off-grid oracle: one dense `series_matrix` plan applied to the stacked spectra."""
    grid = Grid(2 * (hats.shape[-1] - 1))
    return apply_series_matrix(series_matrix(grid, y, kmax=kmax), hats)


@given(seed=st.integers(0, 2**31 - 1), half_n=st.integers(8, 256),
       full_band=st.booleans(), fields=st.integers(1, 3), points=st.integers(1, 600))
@settings(max_examples=60, deadline=None)
def test_offgrid_matches_dense_plan(seed, half_n, full_band, fields, points):
    # White-noise fields (every mode to n/2) at points spread over several
    # periods; 1e-12 relative to max|f| on the grid.
    grid = Grid(2 * half_n)
    kmax = grid.n // 2 if full_band else grid.dealias_cutoff
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((fields, grid.n))
    y = rng.uniform(-3.0, 4.0, points)
    # Both evaluators take the same (F, n//2 + 1) spectra and give (F, M).
    hats = np.fft.rfft(values)
    got = spectral._offgrid(hats, y, kmax)
    want = apply_series_matrix(series_matrix(grid, y, kmax), hats)
    assert got.shape == want.shape == (fields, points)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(values))


@pytest.mark.parametrize("periods", [-7, -1, 1, 5])
def test_offgrid_points_in_any_period(grid128, rng, periods):
    # Points below 0, above 1 and several periods out, including the
    # period's end points, where the fine-grid window wraps.
    f = random_band_limited(grid128, rng, 40)
    base = np.concatenate([rng.uniform(0.0, 1.0, 50), [0.0, 1.0 - 1e-17, 0.5 / grid128.n]])
    y = base + periods
    got = evaluate(f, y)
    assert np.max(np.abs(got - evaluate(f, base))) <= 1e-12
    assert np.max(np.abs(got - dense_series(f.hat[None], y, grid128.n // 2)[0])) <= 1e-12


@pytest.mark.parametrize("fields, points", [(1, 1025), (3, 2500), (2, 4096), (1, 3073)])
def test_offgrid_blocks_give_one_pass_bits(monkeypatch, rng, fields, points):
    # Past `_OFFGRID_BLOCK` points the evaluation goes block by block, with
    # the bits of one pass over every point, and matches the dense plan.
    grid = Grid(256)
    values = rng.standard_normal((fields, grid.n))
    y = np.concatenate([[np.nan], rng.uniform(-2.0, 3.0, points - 1)])
    hats = np.fft.rfft(values)
    got = spectral._offgrid(hats, y, grid.n // 2)
    monkeypatch.setattr(spectral, "_OFFGRID_BLOCK", points)
    assert np.array_equal(got, spectral._offgrid(hats, y, grid.n // 2), equal_nan=True)
    want = dense_series(hats, y[1:], grid.n // 2)
    assert np.isnan(got[:, 0]).all()
    assert np.max(np.abs(got[:, 1:] - want)) <= 1e-12 * np.max(np.abs(values))


def test_fitted_weights_match_kernel(rng):
    # Every slot's polynomial against the kernel it was fitted to, on a
    # uniform sweep of offsets (t = -1 and t = 1 included) and random ones.
    t = np.concatenate([np.linspace(-1.0, 1.0, 10001), rng.uniform(-1.0, 1.0, 10000)])
    got = spectral._es_weights(t)
    want = spectral._es_kernel(spectral._slot_arguments(t)).T
    assert got.shape == (t.size, spectral._ES_WIDTH)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("n, full_band", [(16, True), (64, False), (128, True), (1024, False)])
def test_offgrid_on_fine_grid_nodes(rng, n, full_band):
    # Points exactly on the fine grid's nodes j / nfine, where t = -1 and
    # the window starts one node later than for the point just below; and
    # y = -1e-17 or -1e-300, which reduce to 1 - 1e-17 and 1 - 1e-300, both
    # rounding to 1, so x = nfine and the point lands in window row nfine.
    kmax = n // 2 if full_band else Grid(n).dealias_cutoff
    nfine = spectral._offgrid_plan(n, kmax)[0]
    values = rng.standard_normal((2, n))
    period_end = np.array([-1e-17, -1e-300])
    assert np.all((period_end - np.floor(period_end)) * nfine == nfine)
    y = np.concatenate([np.arange(nfine) / nfine, [1.0, -1.0, 2.0 - 1.0 / nfine], period_end])
    hats = np.fft.rfft(values)
    got = spectral._offgrid(hats, y, kmax)
    assert np.max(np.abs(got - dense_series(hats, y, kmax))) <= 1e-12 * np.max(np.abs(values))


def test_offgrid_non_finite_points(grid64, rng):
    f = random_band_limited(grid64, rng, 10)
    y = np.array([np.nan, np.inf, -np.inf, 0.3, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = spectral._offgrid(np.stack([f.hat, f.hat]), y, grid64.n // 2)
    assert not np.any(np.isfinite(out[:, :3]))
    assert np.all(np.isfinite(out[:, 3:]))
    assert out[0, 3] == pytest.approx(dense_series(f.hat[None], [0.3], 32)[0, 0], abs=1e-12)


def test_off_grid_callers_build_no_dense_plan(monkeypatch, grid128, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("dense series plan built")

    monkeypatch.setattr(spectral, "series_matrix", refuse)
    monkeypatch.setattr(flowmap, "series_matrix", refuse)
    f = random_band_limited(grid128, rng, 20)
    phi = Diffeo(random_band_limited(grid128, rng, 3, scale=0.02))
    evaluate(f, rng.uniform(0.0, 1.0, 7))
    back = compose(compose(f, phi), invert_diffeo(phi))
    assert np.max(np.abs(back.values - f.values)) <= 1e-8
    config = EvolutionConfig(Model.CH2, dt=1e-3, t_end=0.01)
    res = flowmap.evolve_flowmap(config, VelocityPair(cosine_field(grid128, 1, 0.2),
                                                      cosine_field(grid128, 2, 0.1)))
    assert res.status.completed


def test_invert_large_grid(rng):
    grid = Grid(4096)
    phi = Diffeo(random_band_limited(grid, rng, 6, scale=0.01))
    inv = invert_diffeo(phi)
    forward = inv.warped_points + evaluate(phi.displacement, inv.warped_points)
    assert np.max(np.abs(forward - grid.points)) <= 1e-12


# In a fresh process: 20 calls after a first one, minor faults per call.
_INVERT_FAULTS = """
import resource
import numpy as np
from chdp.spectral import Diffeo, Grid, PeriodicField, invert_diffeo
grid = Grid(4096)
phi = Diffeo(PeriodicField(grid, 0.05 * np.sin(2 * np.pi * grid.points)))
invert_diffeo(phi)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    invert_diffeo(phi)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts from getrusage are read on Linux")
def test_invert_large_grid_does_not_refault(child_env):
    # `_offgrid` gathers at most `_OFFGRID_BLOCK` points at a time, so the
    # heap reuses its temporaries (about 400-520 faults per call in one pass).
    run = subprocess.run([sys.executable, "-c", _INVERT_FAULTS], env=child_env, check=True,
                         capture_output=True, text=True)
    assert float(run.stdout) <= 10
