import functools
import itertools
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import object_form
from object_form import cosine_pair, kernel_gram_determinant
from chdp import curvature, verification
from chdp.connection import VelocityPair, christoffel_ch
from chdp.curvature import (
    CosineDirectionPair,
    DegeneratePlaneError,
    ch_cosine_curvature,
    closed_form_curvature,
    closed_form_integrals,
    negative_search,
    positivity_scan,
    scan_grid,
    sectional_curvature,
    unnormalized_curvature,
)
from chdp.spectral import (
    Grid,
    PeriodicField,
    cosine_field,
    derivative,
    helmholtz_inverse,
    inner_l2,
    random_band_limited,
    zero_field,
)

TWO_PI = 2.0 * np.pi


def quadrature_integrals(grid, direction):
    """Defining integrals of the four corrections, evaluated by spectral
    quadrature on sampled fields (independent of the delta algebra)."""
    u, v = cosine_pair(grid, direction)
    u1, u2, v1, v2 = u.u, u.rho, v.u, v.rho
    i1 = 0.25 * inner_l2(derivative(u2 * v2), helmholtz_inverse(derivative(u2 * v2)))
    i2 = -0.25 * inner_l2(derivative(u2 * u2), helmholtz_inverse(derivative(v2 * v2)))
    i3 = 0.5 * (inner_l2(christoffel_ch(u1, u1), derivative(v2 * v2))
                + inner_l2(christoffel_ch(v1, v1), derivative(u2 * u2))
                - 2.0 * inner_l2(christoffel_ch(u1, v1), derivative(u2 * v2)))
    u1x, v1x = derivative(u1), derivative(v1)
    i4 = (0.25 * (inner_l2(u1x * u1x, v2 * v2) + inner_l2(v1x * v1x, u2 * u2))
          - 0.5 * inner_l2(u1x * u2, v1x * v2))
    return i1, i2, i3, i4


class TestUnnormalized:
    def test_self_curvature_vanishes(self, grid128, rng):
        a = VelocityPair(random_band_limited(grid128, rng, 5),
                         random_band_limited(grid128, rng, 5))
        assert unnormalized_curvature(a, a) == 0.0

    def test_symmetry(self, grid128, rng):
        a = VelocityPair(random_band_limited(grid128, rng, 5),
                         random_band_limited(grid128, rng, 5))
        b = VelocityPair(random_band_limited(grid128, rng, 5),
                         random_band_limited(grid128, rng, 5))
        s_ab = unnormalized_curvature(a, b)
        assert s_ab == pytest.approx(unnormalized_curvature(b, a), abs=1e-12)

    def test_biquadratic_scaling(self, grid128, rng):
        a = VelocityPair(random_band_limited(grid128, rng, 4),
                         random_band_limited(grid128, rng, 4))
        b = VelocityPair(random_band_limited(grid128, rng, 4),
                         random_band_limited(grid128, rng, 4))
        alpha, beta = 1.7, -0.6
        lhs = unnormalized_curvature(alpha * a, beta * b)
        rhs = alpha**2 * beta**2 * unnormalized_curvature(a, b)
        assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)

    def test_reduces_to_ch_closed_form(self, grid128):
        for mk, ml in [(1, 2), (2, 3), (1, 4), (3, 4)]:
            u = VelocityPair.single(cosine_field(grid128, mk))
            v = VelocityPair.single(cosine_field(grid128, ml))
            assert unnormalized_curvature(u, v) == pytest.approx(
                ch_cosine_curvature(mk, ml), rel=1e-9)

    def test_pure_density_directions_give_i1(self, grid128):
        # distinct density modes: S = I1 (I2 delta is zero)
        for mk2, ml2 in [(1, 2), (2, 3), (1, 4)]:
            u = VelocityPair(zero_field(grid128), cosine_field(grid128, mk2))
            v = VelocityPair(zero_field(grid128), cosine_field(grid128, ml2))
            c = TWO_PI * mk2
            e = TWO_PI * ml2
            i1 = ((c - e) ** 2 / (1 + (c - e) ** 2)
                  + (c + e) ** 2 / (1 + (c + e) ** 2)) / 32.0
            assert unnormalized_curvature(u, v) == pytest.approx(i1, rel=1e-10)


class TestSectional:
    def test_degenerate_plane_rejected(self, grid128):
        u = VelocityPair.single(cosine_field(grid128, 1))
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(u, u)

    @pytest.mark.parametrize("amplitude", [1.0, 1e-3])
    def test_small_amplitude_plane_is_not_degenerate(self, amplitude):
        # Sec is scale-invariant: the density plane keeps its value when
        # Gram (amplitude^4 / 4) falls below any absolute floor.
        grid = Grid(64)
        u = VelocityPair(zero_field(grid), amplitude * cosine_field(grid, 1))
        v = VelocityPair(zero_field(grid), amplitude * cosine_field(grid, 2))
        assert kernel_gram_determinant(u, v) == pytest.approx(0.25 * amplitude**4, rel=1e-12)
        assert sectional_curvature(u, v) == pytest.approx(0.24656, abs=5e-6)
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(u, u)

    def test_density_family_gram_and_bound(self, grid128):
        u = VelocityPair(zero_field(grid128), cosine_field(grid128, 1))
        v = VelocityPair(zero_field(grid128), cosine_field(grid128, 2))
        assert kernel_gram_determinant(u, v) == pytest.approx(0.25, abs=1e-12)
        assert sectional_curvature(u, v) >= 0.125 - 1e-12


class TestClosedForms:
    def test_ch_closed_form_values(self):
        k, l = TWO_PI, 2 * TWO_PI
        expected = ((1 + 0.5 * k * l) ** 2 / (1 + (k - l) ** 2) * (k - l) ** 2
                    + (1 - 0.5 * k * l) ** 2 / (1 + (k + l) ** 2) * (k + l) ** 2) / 8
        assert ch_cosine_curvature(1, 2) == pytest.approx(expected, rel=1e-14)
        assert expected > 0.0
        assert ch_cosine_curvature(1, 3) > 0.0

    def test_ch_closed_form_symmetric(self):
        assert ch_cosine_curvature(2, 1) == ch_cosine_curvature(1, 2)

    def test_ch_closed_form_rejects_equal_modes(self):
        with pytest.raises(ValueError):
            ch_cosine_curvature(2, 2)

    def test_i2_vanishes_for_distinct_density_modes(self):
        assert closed_form_integrals(1, 1, 2, 2)[1] == 0.0

    def test_i2_equal_density_modes(self):
        # k1 = l1 = 2pi, k2 = l2 = 4pi: I2 = -(1/8)(4pi)^2 / (1 + (8pi)^2)
        # (degenerate as a direction pair, but I2 itself is still defined)
        i2 = closed_form_integrals(1, 2, 1, 2)[1]
        expected = -(4 * np.pi) ** 2 / (1 + (8 * np.pi) ** 2) / 8
        assert i2 == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("modes", [
        (1, 1, 2, 2), (1, 2, 2, 1), (2, 3, 1, 4), (1, 2, 1, 3),
        (3, 1, 3, 2), (2, 2, 4, 4), (1, 4, 2, 3), (4, 2, 1, 3),
    ])
    def test_integrals_match_quadrature(self, modes):
        grid = scan_grid(4)
        closed = closed_form_integrals(*modes)
        quad = quadrature_integrals(grid, CosineDirectionPair(*modes))
        for name, c, q in zip("1234", closed, quad):
            assert c == pytest.approx(q, abs=1e-10), f"I{name} mismatch at {modes}"

    def test_closed_matches_numeric_over_mode_range(self):
        grid = scan_grid(4)
        for ku in itertools.product(range(1, 5), repeat=2):
            for kv in itertools.product(range(1, 5), repeat=2):
                if ku == kv:
                    continue
                u, v = cosine_pair(grid, CosineDirectionPair(*ku, *kv))
                s_num = unnormalized_curvature(u, v)
                s_closed = closed_form_curvature(*ku, *kv)
                assert abs(s_num - s_closed) <= 1e-8 * (1 + abs(s_closed)), (ku, kv)

    def test_zero_first_family_is_i1_plus_i2(self):
        i1, i2, i3, i4 = closed_form_integrals(0, 1, 0, 3)
        assert i3 == 0.0 and i4 == 0.0
        assert closed_form_curvature(0, 1, 0, 3) == pytest.approx(i1 + i2, rel=1e-14)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            closed_form_curvature(1, 2, 1, 2)

    @pytest.mark.parametrize("modes", [(1, 1, 1, 2), (3, 2, 3, 1), (2, 4, 2, 1)])
    def test_equal_velocity_modes_are_the_integrals(self, modes):
        # S(u1, u1) = 0, so only I1..I4 remain; the numeric S agrees
        s_closed = closed_form_curvature(*modes)
        assert s_closed == 0.0 + sum(closed_form_integrals(*modes))
        u, v = cosine_pair(scan_grid(4), CosineDirectionPair(*modes))
        assert abs(unnormalized_curvature(u, v) - s_closed) <= 1e-8 * (1 + abs(s_closed))

    def test_mode_arrays_match_scalar_reference(self):
        # Every ordered pair of distinct slot tuples with modes <= 8, equal
        # velocity modes and zero velocity slots included: bit-identical.
        slots = list(itertools.product(range(1, 9), repeat=2)) + [(0, m) for m in range(1, 9)]
        rows = [(*u, *v) for u, v in itertools.permutations(slots, 2)
                if (u[0] == 0) == (v[0] == 0)]
        got = closed_form_curvature(*np.array(rows).T)
        assert got.shape == (len(rows),) == (64 * 63 + 8 * 7,)
        assert got.tolist() == [object_form.closed_form_curvature(*r) for r in rows]

    def test_scalars_broadcast_against_arrays(self):
        m_l2 = np.arange(2, 7)
        assert closed_form_curvature(0, 1, 0, m_l2).tolist() == [
            closed_form_curvature(0, 1, 0, int(m)) for m in m_l2]
        assert ch_cosine_curvature(1, m_l2).tolist() == [
            ch_cosine_curvature(1, int(m)) for m in m_l2]
        with pytest.raises(ValueError):
            ch_cosine_curvature(3, m_l2)
        with pytest.raises(ValueError, match="degenerate"):
            closed_form_curvature(0, 2, 0, m_l2)


class TestDirectionPair:
    """Velocity modes m_k1 = m_l1 = 0 are the zero velocity slots."""

    def test_zero_velocity_slots(self):
        d = CosineDirectionPair(0, 2, 0, 5)
        assert d.max_mode == 5
        u, v = cosine_pair(scan_grid(5), d)
        assert not u.u.values.any() and not v.u.values.any()
        assert np.array_equal(v.rho.values, cosine_field(scan_grid(5), 5).values)
        assert CosineDirectionPair(1, 3, 2, 3).max_mode == 3

    @pytest.mark.parametrize("modes", [(0, 1, 1, 2), (1, 1, 0, 2), (0, 0, 0, 1),
                                       (1, 1, 1, 0), (-1, 1, 2, 2), (1.5, 1, 1, 2),
                                       (1, 2.0, 1, 3), (1, 1, 2, "2")])
    def test_invalid_modes_rejected(self, modes):
        with pytest.raises(ValueError, match="modes must be positive integers"):
            CosineDirectionPair(*modes)

    @pytest.mark.parametrize("modes", [(1, 2, 1, 2), (0, 3, 0, 3)])
    def test_equal_directions_rejected(self, modes):
        with pytest.raises(ValueError, match=r"degenerate \(u = v\)"):
            CosineDirectionPair(*modes)

    def test_numpy_integer_modes_accepted(self):
        assert CosineDirectionPair(*np.array([1, 2, 3, 4])).max_mode == 4


class TestScan:
    def test_counts_and_positivity(self):
        table = positivity_scan(3)
        full = table.m_k1 > 0
        density = table.m_k1 == 0
        assert np.count_nonzero(full) == 36  # unordered pairs of 9 mode tuples
        assert np.count_nonzero(density) == 3
        assert np.all(table.s_numeric[full] > 0)
        assert np.all(table.sec[density] >= 0.125 - 1e-12)
        assert np.all(np.abs(table.gram[density] - 0.25) <= 1e-12)

    def test_scan_rejects_tiny_max_mode(self):
        with pytest.raises(ValueError):
            positivity_scan(1)

    def test_bound_violations_named(self, monkeypatch):
        real = curvature._cosine_table

        def broken(grid, tuples, planes):
            table = real(grid, tuples, planes)
            table.s_numeric[0] = -1.0  # the first full plane, (1, 1)+(1, 2)
            table.gram[-1] = 0.3  # the last density plane, (0, 2)+(0, 3)
            return table

        monkeypatch.setattr(curvature, "_cosine_table", broken)
        with pytest.raises(RuntimeError) as info:
            positivity_scan(3)
        message = str(info.value)
        assert "S <= 0 at modes (1, 1)+(1, 2): numeric -1.000000e+00" in message
        assert "Gram != 1/4 at density modes (2, 3): 0.300000000000000" in message
        table = positivity_scan(3, enforce=False)
        assert len(table) == 36 + 3
        assert table.s_numeric[0] == -1.0 and table.gram[-1] == 0.3

    def test_closed_form_disagreement_named(self, monkeypatch):
        # S off by 1e-6 relative keeps every sign bound, so only the
        # per-row agreement check can name the plane.
        real = curvature._cosine_table

        def perturbed(grid, tuples, planes):
            table = real(grid, tuples, planes)
            table.s_numeric[5] *= 1.0 + 1e-6  # the sixth full plane, (1, 1)+(3, 1)
            return table

        monkeypatch.setattr(curvature, "_cosine_table", perturbed)
        with pytest.raises(RuntimeError) as info:
            positivity_scan(3)
        lines = str(info.value).splitlines()[1:]
        assert len(lines) == 1
        assert lines[0].startswith("S off the closed form at modes (1, 1)+(3, 1): ")
        assert "> 1e-8" in lines[0]
        table = positivity_scan(3, enforce=False)
        assert 1e-8 < table.closed_form_error()[5] < 2e-6

    def test_closed_forms_in_chunks(self, monkeypatch):
        # A chunk of 7 planes splits the mode-4 scan's 126 rows at uneven
        # edges, one closed-form call each; the table is the one-pass
        # table, bit for bit.
        whole = positivity_scan(4)
        assert len(whole) == 126 <= curvature._PLANE_CHUNK
        calls = []
        real = curvature.closed_form_curvature

        def counted(*modes):
            calls.append(len(modes[0]))
            return real(*modes)

        monkeypatch.setattr(curvature, "closed_form_curvature", counted)
        monkeypatch.setattr(curvature, "_PLANE_CHUNK", 7)
        chunked = positivity_scan(4)
        assert calls == [7] * 18
        for f in fields(whole):
            assert getattr(chunked, f.name).tobytes() == getattr(whole, f.name).tobytes(), f.name

    def test_scan_deterministic(self):
        a = positivity_scan(2)
        b = positivity_scan(2)
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


class TestResolution:
    """Gamma pairs products reaching mode 2M: the dealias cutoff must keep them."""

    def test_cosine_pair_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="n >= 56"):
            cosine_pair(Grid(16), CosineDirectionPair(9, 1, 1, 2))

    def test_scan_grid_is_smallest_smooth_resolving_size(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for max_mode in range(2, 49):
            floor = max(16, 6 * max_mode + 2)
            n = next(n for n in range(floor, 4 * floor) if n % 2 == 0 and smooth(n))
            assert scan_grid(max_mode).n == n, max_mode
            assert scan_grid(max_mode).dealias_cutoff >= 2 * max_mode, max_mode
        assert [scan_grid(m).n for m in (8, 24, 32, 48)] == [50, 150, 200, 300]

    @pytest.mark.parametrize("max_mode", [2, 4, 8])
    def test_scan_matches_the_former_default_grid(self, max_mode):
        # The scan's planes on the former default grid, max(128, 16 M)
        # points, against the scan on scan_grid.
        got = positivity_scan(max_mode)
        tuples = np.column_stack((got.m_k1, got.m_k2, got.m_l1, got.m_l2)).reshape(-1, 2)
        planes = np.arange(len(tuples)).reshape(-1, 2)
        want = curvature._cosine_table(Grid(max(128, 16 * max_mode)), tuples, planes)
        for name in ("m_k1", "m_k2", "m_l1", "m_l2", "s_closed"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in ("s_numeric", "gram", "sec"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b)), name

    def test_smallest_grid_is_exact(self):
        # n = 20 keeps modes <= 6: C1 holds on every row of the mode-3 scan
        assert scan_grid(3).n == 20
        table = positivity_scan(3)
        assert np.all(np.abs(table.s_numeric - table.s_closed)
                      <= 1e-8 * (1 + np.abs(table.s_closed)))


class TestCosinePath:
    """Cosine planes from the Gram of basis Christoffel symbols, against the field path."""

    @staticmethod
    def scan_planes(max_mode):
        """The slot tuples and planes of positivity_scan(max_mode), one tuple pair per plane."""
        table = positivity_scan(max_mode)
        tuples = np.column_stack((table.m_k1, table.m_k2, table.m_l1, table.m_l2)).reshape(-1, 2)
        return tuples, np.arange(len(tuples)).reshape(-1, 2)

    @pytest.mark.parametrize("max_mode", [4, 8])
    def test_matches_the_field_path(self, max_mode):
        grid = scan_grid(max_mode)
        tuples, planes = self.scan_planes(max_mode)
        # Row m is cos(2 pi m x), row 0 the zero slot.
        cosines = np.cos(TWO_PI * np.arange(max_mode + 1)[:, None] * grid.points)
        cosines[0] = 0.0
        # Each plane is its own two-row basis of its summed fields.
        s, gram, _ = curvature._two_row_planes(grid, cosines[tuples][planes])
        table = curvature._cosine_table(grid, tuples, planes)
        for name, want in (("s_numeric", s), ("gram", gram), ("sec", s / gram)):
            got = getattr(table, name)
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), name

    def test_one_row_tables_are_the_scan_rows(self):
        # The basis is the grid's, so a one-row table reads the scan's G
        # entries and gives its row bit for bit.
        grid = scan_grid(3)
        tuples, planes = self.scan_planes(3)
        whole = curvature._cosine_table(grid, tuples, planes)
        for r, plane in enumerate(planes):
            row = curvature._cosine_table(grid, tuples[plane], np.array([[0, 1]]))
            for f in fields(whole):
                assert getattr(row, f.name)[0] == getattr(whole, f.name)[r], (r, f.name)

    def test_mode_above_the_grid_rejected(self):
        grid = scan_grid(4)
        assert (grid.n, curvature._top_mode(grid)) == (30, 4)
        with pytest.raises(ValueError, match="mode 5 is above 4, the largest n=30 resolves"):
            curvature._cosine_table(grid, np.array([[1, 5], [1, 1]]), np.array([[0, 1]]))

    def test_scan_bytes(self):
        # 2044 planes of 80 bytes, and G over the 153 pairs of the 17 basis
        # rows of n = 50 (zero row, 8 velocity and 8 density cosines).
        assert curvature._top_mode(scan_grid(8)) == 8
        assert curvature._scan_bytes(8) == 80 * 2044 + 8 * (17 * 18 // 2) ** 2
        # One plane: 1.5 KiB a point of the 50 points mode 8 needs, and of
        # 6 * 10^10 + 2 at mode 10^10 with no grid-size search.
        assert curvature._plane_bytes(8) == 1536 * 50
        assert curvature._plane_bytes(10**10) == 1536 * (6 * 10**10 + 2)


@given(seed=st.integers(0, 2**31 - 1), max_mode=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_density_planes_are_nonnegative(seed, max_mode):
    """S >= 0 on planes with zero velocity slots, a = (0, rho) and b = (0, tau).

    There S = 1/4 sum_m [(rho^2)^_m conj((tau^2)^_m) - |(rho tau)^_m|^2] / (1 + (2 pi m)^2)
    over all integers m, with f^_m the integral of f e^{-2 pi i m x} over
    [0, 1].  That is S = 1/8 of the double integral of
    G(x - y) (rho(x) tau(y) - rho(y) tau(x))^2 over [0, 1]^2, where G > 0 is
    the Green's function of 1 - d^2/dx^2, so S >= 0.  rho and tau hold
    modes 0..M, the mean included, on a grid resolving their products.
    """
    grid = scan_grid(max_mode)
    rng = np.random.default_rng(seed)
    phase = TWO_PI * np.arange(max_mode + 1)[:, None] * grid.points
    y = np.zeros((2, 2, grid.n))
    for slot in y:
        slot[1] = rng.standard_normal(max_mode + 1) @ np.cos(phase)
        slot[1] += rng.standard_normal(max_mode + 1) @ np.sin(phase)
    s = curvature._two_row_planes(grid, y)[0]

    rho, tau = y[:, 1]
    # Modes m >= 0 from the rfft; -m adds the conjugate of the m term.
    weight = 2.0 / (1.0 + (TWO_PI * np.arange(grid.n // 2 + 1)) ** 2)
    weight[0] = 1.0
    hat = np.fft.rfft([rho * rho, tau * tau, rho * tau]) / grid.n
    first = 0.25 * np.sum(weight * (hat[0] * np.conj(hat[1])).real)
    second = 0.25 * np.sum(weight * np.abs(hat[2]) ** 2)
    assert abs(s - (first - second)) <= 1e-12 * (first + second)
    assert s >= 0.0


def _object_plane(a, b):
    """(S, Gram, scale of the two terms of S) from the object form."""
    first, second = object_form.curvature_terms(a, b)
    return first - second, object_form.gram_determinant(a, b), abs(first) + abs(second)


class TestKernel:
    """The batched curvature evaluator, `_pair_grams`, against the object form in `object_form`."""

    @given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([64, 128, 256]))
    @settings(max_examples=40, deadline=None)
    def test_plane_matches_object_form(self, seed, n):
        # S to 1e-12 of its two terms, Gram of <a, a><b, b>, Sec of both.
        # Modes up to the cutoff: products reach past it, into the 2/3-rule
        # mask of Gamma's multipliers.
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        max_mode = int(rng.integers(1, grid.dealias_cutoff + 1))
        scale = rng.uniform(0.01, 2.0)
        a, b = (VelocityPair(random_band_limited(grid, rng, max_mode, scale),
                             random_band_limited(grid, rng, max_mode, scale))
                for _ in range(2))
        s, gram, size = _object_plane(a, b)
        assert abs(unnormalized_curvature(a, b) - s) <= 1e-12 * size
        norms = object_form.metric(a, a) * object_form.metric(b, b)
        assert abs(kernel_gram_determinant(a, b) - gram) <= 1e-12 * norms
        if gram > 1e-6 * norms:
            sec = s / gram
            assert abs(sectional_curvature(a, b) - sec) <= 1e-12 * max(abs(sec), size / gram)

    def test_scan_rows_match_object_form(self):
        grid = scan_grid(4)
        table = positivity_scan(4)
        assert len(table) == 120 + 6
        for r in zip(*(getattr(table, f.name).tolist() for f in fields(table))):
            modes, (s_numeric, s_closed, _, gram_numeric) = r[:4], r[4:]
            s, gram, _ = _object_plane(*cosine_pair(grid, CosineDirectionPair(*modes)))
            assert abs(s_numeric - s) <= 1e-12 * abs(s), r
            assert abs(gram_numeric - gram) <= 1e-12 * abs(gram), r
            assert s_closed == object_form.closed_form_curvature(*modes), r

    def test_negative_search_matches_object_form(self):
        grid = scan_grid(8)
        got = negative_search(np.random.default_rng(11), 64, 8)
        want = object_form.negative_search(grid, np.random.default_rng(11), 64, 8)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, sec), (_, ref) in zip(got, want):
            assert abs(sec - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_fft_budget(self, monkeypatch):
        # Guards the batching: the object form costs about 146k calls.
        calls = []

        def counting(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counting(np.fft.irfft))
        rows = positivity_scan(8)
        found = negative_search(np.random.default_rng(0), 64, 8)
        assert len(rows) == 2044 and len(found) == 64
        assert 0 < len(calls) <= 200


def test_negative_search_chunks_keep_the_stream(monkeypatch):
    # Trials are drawn and evaluated _CHUNK at a time: chunks of 7 (the
    # last one ragged) give the same trials, values and order as one pass.
    whole = negative_search(np.random.default_rng(5), 40, 4)
    monkeypatch.setattr(curvature, "_CHUNK", 7)
    assert negative_search(np.random.default_rng(5), 40, 4) == whole
    assert sorted(t for t, _ in whole) == list(range(40))


def test_negative_search_trials_are_one_plane_values():
    # Each trial's Sec is sectional_curvature of that trial's fields bit for
    # bit: a plane's value does not depend on what else is in its batch.
    max_mode, trials = 8, 64
    grid = scan_grid(max_mode)
    found = dict(negative_search(np.random.default_rng(7), trials, max_mode))
    modes = np.arange(1, max_mode + 1)
    phase = TWO_PI * modes[:, None] * grid.points
    cos, sin = np.cos(phase), np.sin(phase)
    coef = (np.random.default_rng(7).standard_normal((trials, 4, max_mode, 2))
            * (1.0 / modes)[:, None])
    y = np.zeros((trials, 4, grid.n))
    for m in range(max_mode):
        y += coef[..., m, 0, None] * cos[m] + coef[..., m, 1, None] * sin[m]
    assert sorted(found) == list(range(trials))
    for trial, sec in found.items():
        u, rho, v, tau = (PeriodicField(grid, f) for f in y[trial])
        assert sectional_curvature(VelocityPair(u, rho), VelocityPair(v, tau)) == sec, trial


def test_negative_search_memory_does_not_grow_with_trials():
    # 2000 trials at max mode 8 held every direction at once: 18 MB.
    negative_search(np.random.default_rng(0), 1, 8)  # plans and grids, cached
    tracemalloc.start()
    try:
        found = negative_search(np.random.default_rng(0), 2000, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 2000
    assert peak <= 3 * 2**20


def test_negative_search_reports():
    rng = np.random.default_rng(7)
    results = negative_search(rng, trials=20, max_mode=4)
    assert len(results) >= 18
    assert results == sorted(results, key=lambda r: r[1])
    # reported, not asserted: negative planes may or may not appear


def _one_row(grid, ku, kv):
    """The one-row cosine table of the plane of slot tuples ku, kv on grid."""
    return curvature._cosine_table(grid, np.array([ku, kv]), np.array([[0, 1]]))


def test_batched_oracles_report_the_one_plane_values():
    # C1 reads the full-family rows of one scan table and C3 one batched
    # table of its density planes; both report what one-row tables give
    # over the same tuples on the same grid.
    grid = scan_grid(4)
    worst, count = 0.0, 0
    for ku, kv in itertools.combinations(itertools.product(range(1, 5), repeat=2), 2):
        s = float(_one_row(grid, ku, kv).s_numeric[0])
        s_closed = float(closed_form_curvature(*ku, *kv))
        worst = max(worst, abs(s - s_closed) / (1.0 + abs(s_closed)))
        count += 1
    assert verification.check_curvature_oracle(0) == (
        True, f"max rel err {worst:.2e} over {count} tuples (tol 1e-8)")

    grid = scan_grid(6)
    worst_gram, min_sec = 0.0, np.inf
    for mk2, ml2 in itertools.combinations(range(1, 7), 2):
        row = _one_row(grid, (0, mk2), (0, ml2))
        worst_gram = max(worst_gram, abs(float(row.gram[0]) - 0.25))
        min_sec = min(min_sec, float(row.sec[0]))
    assert verification.check_density_family_bounds(0) == (
        True, f"|gram - 1/4| <= {worst_gram:.2e} (tol 1e-12), min Sec {min_sec:.6f} >= 1/8 - 1e-12")


def test_ch_reduction_reads_the_one_plane_api():
    # C4 takes its 15 zero-density planes through `unnormalized_curvature`;
    # the cosine table of the same velocity-only tuples gives the same S.
    grid = scan_grid(6)
    modes = np.arange(1, 7)
    directions = [VelocityPair.single(cosine_field(grid, m)) for m in modes]
    planes = np.column_stack(np.triu_indices(6, 1))
    s = np.array([unnormalized_curvature(directions[i], directions[j]) for i, j in planes])
    table = curvature._cosine_table(grid, np.column_stack((modes, 0 * modes)), planes)
    assert np.all(np.abs(s - table.s_numeric) <= 1e-12 * np.abs(table.s_numeric))
    worst = np.max(np.abs(s - ch_cosine_curvature(*modes[planes].T)))
    assert verification.check_ch_reduction(0) == (True, f"max abs err {worst:.2e} (tol 1e-9)")
