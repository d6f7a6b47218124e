import math
import time

import numpy as np
import pytest

from thermo_ops import (DomainError, NotAchievable, beta_bar_from_physical,
                        find_s_for_target, j_lower_bound,
                        j_lower_bound_with_argmax, j_probabilities,
                        j_upper_bound, jc_params, plt_max, region_sweep)
from thermo_ops.jaynes_cummings import MAX_SOLVE_TERMS, SOLVE_TOL

LOG4_3 = math.log(4.0) / 3.0


class TestProbabilities:
    def test_zero_time(self):
        up, down = j_probabilities(jc_params(1.0, 0.0))
        assert up == 0.0 and down == 0.0

    def test_cold_half_period(self):
        up, down = j_probabilities(jc_params(20.0, math.pi / 2))
        assert down == pytest.approx(1.0, abs=1e-6)
        assert up == pytest.approx(0.0, abs=1e-6)

    def test_balance_ratio(self):
        for bb in (0.3, 1.0, 2.5):
            for s in (0.7, 3.1, 40.0):
                params = jc_params(bb, s, tol=1e-10)
                up, down = j_probabilities(params)
                assert abs(up / down - math.exp(-bb)) <= 2 * params.tail_bound

    def test_probabilities_in_unit_interval(self):
        for bb in np.linspace(0.05, 6, 25):
            for s in np.linspace(0.0, 150, 40):
                _, down = j_probabilities(jc_params(float(bb), float(s)))
                assert -1e-15 <= down <= 1.0 + 1e-12

    def test_divergent_temperature_rejected(self):
        with pytest.raises(DomainError):
            jc_params(0.0, 1.0)

    def test_truncation_cap_surfaced(self):
        params = jc_params(1e-7, 1.0, tol=1e-10)
        assert params.capped and params.m == 10**6
        assert params.tail_bound > 1e-10


class TestUpperBound:
    def test_branch_continuity(self):
        low = j_upper_bound(LOG4_3 - 1e-15)
        high = j_upper_bound(LOG4_3 + 1e-15)
        assert abs(low - high) < 1e-12
        assert j_upper_bound(LOG4_3) == pytest.approx(0.9074901312, abs=1e-9)

    def test_infinite_temperature(self):
        assert j_upper_bound(0.0) == 1.0

    def test_zero_temperature_limit(self):
        assert j_upper_bound(50.0) == pytest.approx(1.0, abs=1e-12)


class TestLowerBound:
    def test_below_upper_on_grid(self):
        for bb in np.arange(0.1, 6.0, 0.2):
            assert j_lower_bound(float(bb)) <= j_upper_bound(float(bb)) + 1e-12

    def test_first_arch_floor(self):
        for bb in (0.2, 0.8, 2.0, 5.0):
            assert j_lower_bound(bb) >= (1 - math.exp(-bb)) - 1e-12

    def test_room_temperature_claim(self):
        value, s = j_lower_bound_with_argmax(1.6)
        assert value >= 0.98
        # the certified value is itself achievable at the reported time
        params = jc_params(1.6, s, tol=1e-12)
        _, down = j_probabilities(params)
        assert down >= value - params.tail_bound

    def test_millikelvin_reading(self):
        bb = beta_bar_from_physical(1e-3, 1e8)
        assert j_lower_bound(bb) > 0.98

    def test_sandwich_on_grid(self):
        # the certified floor is achieved by the true series at its own
        # control time, and the closed-form cap holds there
        for bb in np.linspace(0.05, 8.0, 200):
            value, s = j_lower_bound_with_argmax(float(bb))
            params = jc_params(float(bb), s, tol=1e-12)
            _, down = j_probabilities(params)
            assert down >= value - params.tail_bound - 1e-12
            assert down <= j_upper_bound(float(bb)) + 1e-12


class TestPltComparison:
    def test_values(self):
        assert plt_max(0.0) == 0.5
        assert plt_max(math.log(2)) == pytest.approx(2 / 3, abs=1e-15)
        assert plt_max(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_region_rows(self):
        rows = region_sweep([0.01, 1.0, 10.0])
        assert not rows[0].jc_beats_plt  # high temperature collapse
        assert rows[1].jc_beats_plt and rows[2].jc_beats_plt
        # the certified floor never undercuts the first-arch value
        assert rows[0].lower >= 1 - math.exp(-0.01)
        assert rows[2].lower > 0.999

    @pytest.mark.parametrize("grid", [
        np.array([1.6]),
        np.arange(0.05, 8.0 + 0.025, 0.25),
        np.arange(0.05, 8.0 + 0.025, 0.245),
        np.arange(0.05, 8.0 + 0.01, 0.02),
        np.geomspace(1e-6, 700.0, 300)],
        ids=["1", "32", "33", "398", "geom300"])
    def test_batched_search_matches_scalar_reference(self, grid):
        reference = [_scalar_lower_bound(float(bb)) for bb in grid]
        assert [row.lower for row in region_sweep(grid)] == [
            val for val, _ in reference]
        for bb, expected in list(zip(grid, reference))[::17]:
            assert j_lower_bound_with_argmax(float(bb)) == expected

    def test_empty_grid(self):
        assert region_sweep([]) == []
        assert region_sweep(np.array([])) == []

    @pytest.mark.parametrize("grid", [[0.0], [1.0, -0.5], [1.0, 0.0, 2.0]])
    def test_nonpositive_gap_rejected(self, grid):
        with pytest.raises(DomainError):
            region_sweep(grid)


class TestSolve:
    def test_zero_target(self):
        assert find_s_for_target(0.0, 1.0) == 0.0

    def test_reachable_target(self):
        s = find_s_for_target(0.3, 1.0, tol=1e-9)
        assert not isinstance(s, NotAchievable)
        params = jc_params(1.0, s, tol=1e-12)
        _, down = j_probabilities(params)
        assert abs(down - 0.3) <= 1e-9 + params.tail_bound

    def test_unreachable_target(self):
        result = find_s_for_target(0.999, 0.2)
        assert isinstance(result, NotAchievable)
        assert result.best < 0.999
        assert j_upper_bound(0.2) < 0.999

    def test_target_range_checked(self):
        with pytest.raises(DomainError):
            find_s_for_target(1.5, 1.0)

    def test_default_tol_is_solve_tol(self):
        assert find_s_for_target(0.3, 1.0, tol=None) == find_s_for_target(
            0.3, 1.0, tol=SOLVE_TOL)

    @pytest.mark.parametrize("target,beta_bar", [
        (0.3, 1.0), (0.6, 0.5), (0.95, 3.0), (0.5, 0.05), (0.2, 0.01),
        (0.999, 0.2), (0.9, 0.05)])
    def test_first_bracket_matches_full_scan(self, target, beta_bar):
        assert find_s_for_target(target, beta_bar) == _full_scan_solve(
            target, beta_bar)

    def test_reachable_solve_near_term_cap(self):
        """At beta_bar 2.31e-4 the series holds 99 680 terms; scanning the
        whole grid took about 10 s, stopping at the first bracket takes
        about 0.5 s."""
        beta_bar = 2.31e-4
        m = jc_params(beta_bar, 0.0, tol=min(SOLVE_TOL / 4, 1e-10)).m
        assert 0.99 * MAX_SOLVE_TERMS < m <= MAX_SOLVE_TERMS
        start = time.perf_counter()
        s = find_s_for_target(0.3, beta_bar)
        assert time.perf_counter() - start < 5
        _, down = j_probabilities(jc_params(beta_bar, s, tol=1e-12))
        assert abs(down - 0.3) <= SOLVE_TOL


def _full_scan_solve(target, beta_bar, tol=SOLVE_TOL):
    """The solve as it was before the early stop: every grid point is
    evaluated, and the first bracket is bisected."""
    m = jc_params(beta_bar, 0.0, tol=min(tol / 4, 1e-10)).m
    n = np.arange(1, m + 1, dtype=np.float64)
    w = np.exp(-beta_bar * (n - 1)) * (1.0 - math.exp(-beta_bar))
    roots = np.sqrt(n)

    def f(s):
        return float(np.dot(np.sin(s * roots) ** 2, w))

    best = s_best = prev_s = 0.0
    bracket = None
    for s in np.arange(0.0, 200.0 + 0.05, 0.05)[1:]:
        v = f(float(s))
        if v > best:
            best, s_best = v, float(s)
        if bracket is None and v >= target:
            bracket = (prev_s, float(s))
        prev_s = float(s)
    if bracket is None:
        return NotAchievable(best, s_best)
    a, b = bracket
    for _ in range(200):
        mid = (a + b) / 2
        if f(mid) >= target:
            b = mid
        else:
            a = mid
        if abs(f(b) - target) <= tol / 2:
            break
    return b


def _scalar_lower_bound(beta_bar):
    """The certified floor and its control time, searched one gap at a time
    as before the batched search: grid argmax, two candidate times, then 80
    golden-section steps."""
    n = np.arange(1, 13, dtype=np.float64)
    w = np.exp(-beta_bar * (n - 1))

    def f(s):
        return (1.0 - math.exp(-beta_bar)) * float(
            np.dot(np.sin(s * np.sqrt(n)) ** 2, w))

    grid = np.arange(0.0, 200.0 + 0.005, 0.01)
    best_s = float(grid[int(np.argmax(np.sin(np.outer(grid, np.sqrt(n))) ** 2
                                      @ w))])
    for cand in (98.92, math.pi / 2):
        if f(cand) > f(best_s):
            best_s = cand
    a, b = max(0.0, best_s - 0.01), min(200.0, best_s + 0.01)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, dd = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(dd)
    for _ in range(80):
        if fc > fd:
            b, dd, fd = dd, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, dd, fd
            dd = a + phi * (b - a)
            fd = f(dd)
    s_star = (a + b) / 2
    if f(s_star) < f(best_s):
        return f(best_s), best_s
    return f(s_star), s_star


class TestNonFiniteGaps:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        j_lower_bound_with_argmax, j_lower_bound, j_upper_bound, plt_max,
        lambda bb: region_sweep([1.0, bb]),
        lambda bb: beta_bar_from_physical(bb, 1e9),
        lambda bb: beta_bar_from_physical(300.0, bb)],
        ids=["lower_argmax", "lower", "upper", "plt_max", "region_sweep",
             "physical_temperature", "physical_frequency"])
    def test_rejected(self, call, bad):
        with pytest.raises(DomainError):
            call(bad)


class TestPhysicalUnits:
    def test_room_temperature_infrared(self):
        bb = beta_bar_from_physical(300.0, 1e13)
        assert bb == pytest.approx(1.5999, abs=1e-3)

    def test_angular_reading(self):
        bb = beta_bar_from_physical(300.0, 1e13, angular=True)
        assert bb == pytest.approx(0.2546, abs=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta_bar_from_physical(-1.0, 1e10)

    @pytest.mark.parametrize("temperature, frequency",
                             [(1e-300, 1e300), (1e300, 1e-300)],
                             ids=["overflow", "underflow"])
    def test_rejects_gap_out_of_float_range(self, temperature, frequency):
        with pytest.raises(DomainError):
            beta_bar_from_physical(temperature, frequency)
