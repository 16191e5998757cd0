"""Radial wavefunctions: closed forms, norms, nodes, integrals, interpolation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import genlaguerre

import rydtrap.radial
from rydtrap.beam import decompose
from rydtrap.radial import (_N_MAX, GridMismatchError, RadialGrid,
                            hydrogen_radial, interpolated_reduced_element,
                            numerov_radial, radial_integral)


def expectation_radius(n, l):
    """Analytic hydrogen <r> = (3 n^2 - l(l+1))/2 in Bohr radii."""
    return (3.0 * n * n - l * (l + 1)) / 2.0


def reference_log_radial(n, l, grid):
    """log|R_nl| and sign at every grid point from the plain recurrence:
    a new array per step and a rescaling check at every step."""
    rho = 2.0 * grid.points / n
    k, alpha = n - l - 1, 2 * l + 1
    prev = np.ones_like(rho)
    offset = np.zeros_like(rho)
    cur = 1.0 + alpha - rho if k else prev
    for m in range(1, k):
        nxt = ((2 * m + 1 + alpha - rho) * cur - (m + alpha) * prev) / (m + 1)
        big = np.abs(nxt) > 1e150
        if np.any(big):
            cur = np.where(big, cur / 1e150, cur)
            nxt = np.where(big, nxt / 1e150, nxt)
            offset = np.where(big, offset + np.log(1e150), offset)
        prev, cur = cur, nxt
    lognorm = 0.5 * (3 * np.log(2.0 / n) + math.lgamma(n - l)
                     - np.log(2.0 * n) - math.lgamma(n + l + 1))
    with np.errstate(divide="ignore"):
        log_r = lognorm + l * np.log(rho) - rho / 2.0 \
            + np.log(np.abs(cur)) + offset
    return log_r, np.sign(cur)


@pytest.fixture(scope="module")
def grid120():
    return RadialGrid.default(120)


class TestRadialGrid:
    def test_default_bounds_and_scheme(self):
        grid = RadialGrid.default(60, npoints=500)
        assert len(grid) == 500
        assert grid.r_max == pytest.approx(2.5 * 60**2)
        assert grid.covers(60) and not grid.covers(61)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid([1.0, 2.0, 3.0])               # too few points
        with pytest.raises(ValueError):
            RadialGrid(np.linspace(5, 1, 20))          # decreasing
        with pytest.raises(ValueError):
            RadialGrid(np.linspace(-1, 5, 20))         # negative radius

    @pytest.mark.parametrize("index, value", [(7, np.nan), (-1, np.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_point_refused(self, index, value):
        points = np.linspace(1.0, 5.0, 20)
        points[index] = value
        with pytest.raises(ValueError, match="must be finite"):
            RadialGrid(points)

    def test_integrate_polynomial(self):
        grid = RadialGrid.default(10, npoints=2000)
        r = grid.points
        # Int r^2 dr over [r0, rmax]
        want = (grid.r_max**3 - r[0] ** 3) / 3.0
        assert grid.integrate(r**2) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("npoints", [8, 9, 10, 11, 501, 4000])
    @pytest.mark.parametrize("spacing", ["uniform", "sqrt", "random"])
    def test_weights_match_scipy_simpson(self, npoints, spacing):
        if spacing == "uniform":
            r = np.linspace(1e-3, 50.0, npoints)
        elif spacing == "sqrt":
            r = RadialGrid.default(60, npoints=npoints).points
        else:
            rng = np.random.default_rng(npoints)
            r = np.cumsum(rng.uniform(0.01, 1.0, npoints))
        grid = RadialGrid(r)
        scale = r[-1]
        for values in (np.exp(-r / scale), (r / scale) ** 2 + 0.1,
                       np.sin(7.0 * r / scale) + 1.5):
            assert grid.integrate(values) == pytest.approx(
                simpson(values, x=r), rel=1e-14, abs=0.0)

    def test_norm_through_weights(self, grid120):
        # the grid's weights give scipy's norm, still 1 to the sweep's bound
        for n, l in ((1, 0), (40, 2), (120, 0)):
            wf = hydrogen_radial(n, l, grid120)
            assert wf.norm() == pytest.approx(
                simpson(wf.density(), x=grid120.points), rel=1e-14)
            assert wf.norm() == pytest.approx(1.0, abs=5e-8)


class TestHydrogenRadial:
    def test_ground_state_closed_form(self, grid120):
        wf = hydrogen_radial(1, 0, grid120)
        r = grid120.points[:200]
        assert wf.samples[:200] == pytest.approx(2.0 * np.exp(-r), rel=1e-10)

    def test_2p_closed_form(self, grid120):
        wf = hydrogen_radial(2, 1, grid120)
        r = grid120.points[:400]
        want = r * np.exp(-r / 2.0) / (2.0 * np.sqrt(6.0))
        assert wf.samples[:400] == pytest.approx(want, rel=1e-10)

    def test_norms_and_nodes_sweep(self, grid120):
        for n in (1, 2, 5, 10, 20, 40, 60, 80, 100, 120):
            for l in sorted({0, 1, n // 2, n - 1}):
                if l >= n:
                    continue
                wf = hydrogen_radial(n, l, grid120)
                assert wf.norm() == pytest.approx(1.0, abs=5e-8), (n, l)
                assert wf.node_count() == n - l - 1, (n, l)

    def test_mean_radius_matches_analytic(self, grid120):
        for n, l in ((10, 0), (40, 2), (80, 1), (120, 0)):
            wf = hydrogen_radial(n, l, grid120)
            mean_r = grid120.integrate(wf.density() * grid120.points)
            assert mean_r == pytest.approx(expectation_radius(n, l), rel=1e-7)

    def test_argument_validation(self, grid120):
        with pytest.raises(ValueError):
            hydrogen_radial(0, 0, grid120)
        with pytest.raises(ValueError):
            hydrogen_radial(5, 5, grid120)
        with pytest.raises(ValueError):
            hydrogen_radial(151, 0, grid120)


class TestLaguerreKernel:
    """The in-place, every-8-steps-checked recurrence over the whole grid."""

    # a grid as wide as the CLI's at n = 300: far past the outer turning
    # point of every n <= 150, so most rows end in samples that underflow
    # to 0.0
    @pytest.fixture(scope="class")
    def wide(self):
        return RadialGrid.default(303, npoints=12120)

    STATES = [(n, l) for n in (1, 2, 5, 10, 20, 40, 60, 80, 100, 120, 140,
                               _N_MAX) for l in range(4) if l < n]

    def test_matches_plain_recurrence(self, wide):
        cli_grid = RadialGrid.default(_N_MAX, npoints=40 * _N_MAX)
        for grid in (wide, cli_grid):
            for n, l in self.STATES:
                log_r, sign = reference_log_radial(n, l, grid)
                want = np.nan_to_num(sign * np.exp(log_r))
                got = hydrogen_radial(n, l, grid).samples
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want)), (n, l, len(grid))

    # blocks of rows of one l: one row, 16 rows, degrees that end early
    # (k = 0 and 1 among long rows) and rows up to the cap
    BLOCKS = {"one": [60], "sixteen": list(range(40, 56)),
              "early": [1, 2, 3, 4, 5, 10, 80, 120],
              "cap": list(range(_N_MAX - 15, _N_MAX + 1))}

    @pytest.mark.parametrize("l", range(4))
    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_block_matches_plain_recurrence(self, wide, block, l):
        ns = [n for n in self.BLOCKS[block] if n > l]
        cli_grid = RadialGrid.default(_N_MAX, npoints=40 * _N_MAX)
        for grid in (wide, cli_grid):
            rows = rydtrap.radial._radial_rows(ns, l, grid)
            assert rows.shape == (len(ns), len(grid))
            for n, got in zip(ns, rows):
                log_r, sign = reference_log_radial(n, l, grid)
                want = np.nan_to_num(sign * np.exp(log_r))
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want)), (n, l, len(grid))
                # point by point too, so that a row's rescaling offsets,
                # which reach only samples far below its peak, are checked
                normal = np.abs(want) > 1e-290
                assert np.all(np.abs(got - want)[normal]
                              <= 1e-12 * np.abs(want[normal])), (n, l)

    # the rows of the largest rho = 2 r_max/n, n = 1-16, and of the
    # largest degrees, up to the cap on the wide grid and up to n = 300 on
    # the grid that covers it; _radial_rows checks no cap
    @pytest.mark.parametrize("l", range(4))
    def test_rows_never_overflow(self, wide, l):
        grid303 = RadialGrid.default(303, npoints=3030)
        for first, grid in ((1, wide), (135, wide), (285, grid303)):
            ns = [n for n in range(first, first + 16) if n > l]
            # a step that overflowed or met inf - inf would raise here,
            # before the isfinite guard of _radial_rows could zero it
            with np.errstate(over="raise", invalid="raise"):
                rows = rydtrap.radial._radial_rows(ns, l, grid)
            assert rows.shape == (len(ns), len(grid))
            assert np.all(np.isfinite(rows)), (first, l)


class TestNumerov:
    def test_integer_n_overlap_with_laguerre(self, grid120):
        for n, l in ((20, 0), (55, 0), (80, 1), (100, 2)):
            exact = hydrogen_radial(n, l, grid120)
            num = numerov_radial(float(n), l, grid120)
            overlap = grid120.integrate(
                grid120.points**2 * exact.samples * num.samples)
            assert abs(overlap) > 1.0 - 1e-8, (n, l)

    def test_fractional_norm_and_tail(self, grid120):
        wf = numerov_radial(70.56, 1, grid120)
        assert wf.norm() == pytest.approx(1.0, rel=1e-10)
        # bound state must decay in the classically forbidden region
        assert abs(wf.samples[-1]) < 1e-12 * np.max(np.abs(wf.samples))

    def test_node_count_near_principal(self, grid120):
        # the inner cut can contribute one extra sign change
        wf = numerov_radial(60.0, 0, grid120)
        assert wf.node_count() in (59, 60)

    def test_requires_sqrt_grid(self):
        linear = RadialGrid(np.linspace(1e-3, 1000.0, 2000))
        with pytest.raises(GridMismatchError):
            numerov_radial(10.0, 0, linear)

    def test_requires_nstar_above_l(self, grid120):
        with pytest.raises(ValueError):
            numerov_radial(2.0, 2, grid120)

    # n* of 3S1 n = 60, 95 and 1D2 n = 45, 100 on oracle_compare's grids
    @pytest.mark.parametrize("n, n_star, l", [
        (60, 55.561, 0), (95, 90.561, 0), (45, 42.287, 2), (100, 97.287, 2)])
    def test_rescale_is_exact(self, monkeypatch, n, n_star, l):
        # here peak |v| is 2^9 to 2^28, far below _HUGE = 2^498,
        # so only a lowered threshold reaches the rescale. Each rescale
        # divides by a power of two and no value goes subnormal, so the
        # samples must come back bit for bit.
        dividends = []

        class Threshold(float):
            """2^4, recording every value divided by it."""

            def __rtruediv__(self, value):
                dividends.append(value)
                return value / float(self)

        grid = RadialGrid.default(n + 3, npoints=max(4000, 40 * (n + 3)))
        want = numerov_radial(n_star, l, grid).samples
        monkeypatch.setattr("rydtrap.radial._HUGE", Threshold(2.0 ** 4))
        got = numerov_radial(n_star, l, grid).samples
        # each rescale divides the one sample past the threshold
        assert sum(abs(value) > 2.0 ** 4 for value in dividends) >= 2
        assert min(abs(value) for value in dividends if value) / 2.0 ** 4 \
            >= np.finfo(float).tiny
        assert got.tobytes() == want.tobytes()


class TestRadialIntegral:
    def test_uniform_profile_is_norm(self, grid120):
        wf = hydrogen_radial(40, 0, grid120)
        ones = np.ones(len(grid120))
        assert radial_integral(wf, ones) == pytest.approx(1.0, abs=5e-8)

    def test_gaussian_profile_against_quad(self):
        grid = RadialGrid.default(8, npoints=6000)
        wf = hydrogen_radial(5, 1, grid)
        width = 30.0
        profile = np.exp(-(grid.points / width) ** 2)

        lag = genlaguerre(5 - 1 - 1, 2 * 1 + 1)
        norm = np.sqrt((2.0 / 5) ** 3 * math.factorial(3)
                       / (2 * 5 * math.factorial(6)))

        def integrand(r):
            rho = 2.0 * r / 5
            radial = norm * rho * np.exp(-rho / 2.0) * lag(rho)
            return r * r * radial * radial * np.exp(-(r / width) ** 2)

        want, err = quad(integrand, 0.0, grid.r_max, limit=200)
        assert radial_integral(wf, profile) == pytest.approx(want, rel=1e-6)

    def test_mismatched_profile_raises(self, grid120):
        wf = hydrogen_radial(10, 0, grid120)
        with pytest.raises(GridMismatchError):
            radial_integral(wf, np.ones(17))


class TestInterpolatedElement:
    def test_integer_nstar_is_exact(self, field9):
        wf = hydrogen_radial(71, 0, field9.grid)
        direct = radial_integral(wf, field9.profiles[0]) / wf.norm()
        assert interpolated_reduced_element(71.0, 0, field9)[0] == \
            pytest.approx(direct, rel=1e-14)

    def test_fractional_matches_numerov_oracle(self, field9):
        for l, k in ((0, 0), (1, 2)):
            n_star = 70.56
            interp = interpolated_reduced_element(n_star, l, field9)[k // 2]
            wf = numerov_radial(n_star, l, field9.grid)
            direct = radial_integral(wf, field9.profiles[k // 2])
            assert interp == pytest.approx(direct, rel=1e-3), (l, k)

    def test_bracket_and_coverage_errors(self, field9):
        with pytest.raises(ValueError):
            interpolated_reduced_element(1.5, 0, field9)   # bracket below 1
        with pytest.raises(ValueError):
            interpolated_reduced_element(95.5, 0, field9)  # beyond grid

    def test_bracket_past_the_cap_is_refused(self, beam9):
        grid = RadialGrid.default(_N_MAX + 5, npoints=400)
        field = decompose(beam9, grid, k_max=0)
        assert np.isfinite(interpolated_reduced_element(148.5, 0, field)[0])
        with pytest.raises(ValueError,
                           match=r"n\* = 149\.500 at l=2 needs integer n up "
                                 r"to 151, past the hydrogenic cap n <= 150"):
            interpolated_reduced_element(149.5, 2, field)

    def test_element_cache_reused(self, field9):
        interpolated_reduced_element(55.3, 0, field9)
        keys = set(field9.element_cache)
        assert {(n, 0) for n in range(54, 58)} <= keys
        # a second n* in the same bracket reuses the four (n, l) rows and
        # adds no entry
        interpolated_reduced_element(55.4, 0, field9)
        assert set(field9.element_cache) == keys

    def test_matches_exact_cubic(self, field9):
        # the cubic through the four integer-n values around n*, evaluated
        # in exact rational arithmetic at the same float n*
        integer_n = {}
        for l, k in ((0, 0), (1, 2), (2, 4)):
            for n_star in np.linspace(30.0, 81.9, 47):
                n_lo = math.floor(n_star)
                nodes = range(n_lo - 1, n_lo + 3)
                for n in nodes:
                    if (n, l, k) not in integer_n:
                        wf = hydrogen_radial(n, l, field9.grid)
                        integer_n[n, l, k] = radial_integral(
                            wf, field9.profiles[k // 2]) / wf.norm()
                values = [integer_n[n, l, k] for n in nodes]
                x = Fraction(float(n_star))
                want = Fraction(0)
                for i, (n_i, v_i) in enumerate(zip(nodes, values)):
                    term = Fraction(v_i)
                    for n_j in nodes:
                        if n_j != n_i:
                            term *= (x - n_j) / (n_i - n_j)
                    want += term
                got = interpolated_reduced_element(n_star, l, field9)[k // 2]
                assert abs(got - float(want)) <= 4e-15 * abs(float(want)), \
                    (l, k, n_star)
