import math

import numpy as np
import pytest

from levyinvest.boundary import _gap, _rule, cobb_douglas_boundary, log_boundary
from levyinvest.errors import BracketFailure
from levyinvest.levy import LevyModel
from levyinvest.profit import cobb_douglas, log_profit
from levyinvest.roots import bisect, expand_bracket_geometric
from levyinvest.wiener_hopf import exact_factors, sample_triplet


def counting(f):
    def wrapped(x):
        wrapped.calls += 1
        return f(x)
    wrapped.calls = 0
    return wrapped


def bisect_calls(f, lo, hi):
    f = counting(f)
    bisect(f, lo, hi)
    return f.calls


def halvings(lo, hi, tol):
    """Passes bisection takes to shrink [lo, hi] to width tol."""
    return math.ceil(math.log2(abs(hi - lo) / tol))


# passes to 1e-10 in log capacity, bracket walk included: 8-11 measured on
# the exact 41-point grids below, 9 on the Monte Carlo merton point
MAX_GAP_PASSES = 12


class TestBisect:
    def test_simple_root(self):
        root = bisect(lambda t: 2.0 - t * t, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_decreasing_function(self):
        root = bisect(lambda t: 1.0 - t, 0.0, 5.0)
        assert root == pytest.approx(1.0, rel=1e-14)

    def test_tolerance_respected(self):
        root = bisect(lambda t: math.pi - t, 0.0, 10.0, rel_tol=1e-3)
        assert root == pytest.approx(math.pi, rel=2e-3)

    def test_scalar_in_float_out(self):
        root = bisect(lambda t: 3.0 - t, 0.0, 4.0)
        assert type(root) is float and root == pytest.approx(3.0, rel=1e-15)

    def test_mixed_brackets_in_one_call(self):
        # rising and falling functions, lo above hi where f rises, brackets
        # of different widths: one f call per pass covers every problem
        targets = np.array([-3.0, 0.5, 7.0, 1e6])
        sign = np.array([1.0, -1.0, 1.0, -1.0])  # +1: f falls in t
        lo = np.where(sign > 0, targets - 1.0, targets + 0.25)
        hi = np.where(sign > 0, targets + 4.0, targets - 2.0)
        f = counting(lambda t: sign * (targets - t))
        roots = bisect(f, lo, hi)
        assert roots.shape == (4,)
        np.testing.assert_allclose(roots, targets, rtol=1e-15, atol=1e-15)
        # each problem freezes once its bracket stops shrinking, so the pass
        # count is that of the slowest problem, not the sum over problems
        slowest = max(bisect_calls(lambda t, a=a, s=s: s * (a - t), l, h)
                      for a, s, l, h in zip(targets, sign, lo, hi))
        assert f.calls == slowest

    def test_exact_zero_at_midpoint_is_returned(self):
        f = counting(lambda t: 1.0 - t)
        assert bisect(f, 0.0, 2.0) == 1.0 and f.calls == 1
        # the zero freezes its own problem, the other one keeps bisecting
        roots = bisect(lambda t: np.array([1.0, 0.3]) - t, np.zeros(2), np.full(2, 2.0))
        assert roots[0] == 1.0 and roots[1] == pytest.approx(0.3, rel=1e-15)

    def test_stops_when_midpoint_stops_moving(self):
        # a tolerance of 0 still ends: the bracket shrinks to adjacent floats
        lo, hi = 1.0, np.nextafter(1.0, 2.0)
        f = counting(lambda t: 1.5 - t)
        assert bisect(f, lo, hi, rel_tol=0.0) in (lo, hi) and f.calls == 0
        # and a tolerance of 0 on a wide bracket ends at adjacent floats too
        f = counting(lambda t: np.cbrt(0.1 - t))
        root = bisect(f, -1.0, 2.0, np.cbrt(1.1), np.cbrt(-1.9), rel_tol=0.0)
        assert abs(root - 0.1) <= 2.0 * np.spacing(0.1)
        assert f.calls <= 1.5 * halvings(-1.0, 2.0, np.spacing(0.1))

    def test_given_end_values_are_not_evaluated(self):
        seen = []
        f = counting(lambda t: seen.append(float(t)) or 2.0 - t * t)
        root = bisect(f, 0.0, 2.0, 2.0, -2.0)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert 0.0 not in seen and 2.0 not in seen and f.calls == len(seen)
        # a known zero at hi is the root, found with no call of f
        f = counting(lambda t: 1.0 - t)
        assert bisect(f, 0.0, 1.0, 1.0, 0.0) == 1.0 and f.calls == 0

    @pytest.mark.parametrize("case", ["brownian_cobb_douglas", "brownian_log", "kou_log",
                                      "merton_mc_point"])
    def test_pass_count_on_the_marginal_gap(self, case):
        # the boundary's own equation, solved as boundary._solve solves it
        brownian, kou = LevyModel.brownian(0.0, math.sqrt(2.0)), LevyModel.kou(
            0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
        merton = LevyModel.merton(0.0, 0.3, 2.0, -0.05, 0.2)
        p, factors, us = {
            "brownian_cobb_douglas": (cobb_douglas(0.5, 0.5), exact_factors(brownian, 2.0),
                                      np.linspace(-2.0, 2.0, 41)),
            "brownian_log": (log_profit(), exact_factors(brownian, 1.0),
                             np.linspace(-2.0, 2.0, 41)),
            "kou_log": (log_profit(), exact_factors(kou, 0.5), np.linspace(-2.0, 2.0, 41)),
            "merton_mc_point": (cobb_douglas(0.5, 0.5), sample_triplet(
                merton, 1.0, 20000, np.random.default_rng(3)), np.zeros(1)),
        }[case]
        nodes, w = _rule(factors)
        lz = np.add.outer(us, nodes)
        f = counting(lambda x: _gap(p, factors.r, lz, w, x)[0])
        x = bisect(f, *expand_bracket_geometric(f, np.zeros(len(us))), rel_tol=0.0,
                   abs_tol=1e-10)
        assert f.calls <= MAX_GAP_PASSES
        if factors.is_exact:
            ref = (cobb_douglas_boundary if p.kind == "cobb_douglas" else log_boundary)(
                p, factors, us)
            np.testing.assert_allclose(x, np.log(ref), rtol=0.0, atol=1e-10)
        assert np.abs(_gap(p, factors.r, lz, w, x)[0]).max() < 1e-10

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-5.0, 2.0), (0.3, 10.0), (10.0, -3.0)])
    def test_plateau_beside_a_cliff(self, lo, hi):
        # a slope of 1e-3 meets a slope of 1e3 at the root, with a jump there:
        # interpolated steps barely move the bracket, and the midpoint steps
        # between them keep the pass count within 1.5 times bisection's
        root, tol = 0.3141592653589793, 1e-10
        sign = 1.0 if lo < hi else -1.0
        g = lambda t: sign * np.where(t < root, 1.0 + 1e-3 * (root - t),  # noqa: E731
                                      -1e3 * (t - root))
        f = counting(g)
        x = bisect(f, lo, hi, g(lo), g(hi), rel_tol=0.0, abs_tol=tol)
        assert abs(x - root) <= tol
        assert f.calls <= 1.5 * halvings(lo, hi, tol)


class TestBracketExpansion:
    def test_finds_root_far_above_start(self):
        a, b, _, _ = expand_bracket_geometric(lambda x: math.log(3e4) - x)
        assert a < math.log(3e4) < b and b == a + math.log(10.0)

    def test_finds_root_far_below_start(self):
        # a downward walk ends on the points it evaluated, a decade apart
        # up to rounding
        a, b, _, _ = expand_bracket_geometric(lambda x: math.log(3e-7) - x)
        assert a < math.log(3e-7) < b and b - a == pytest.approx(math.log(10.0), abs=1e-13)

    def test_exact_probe_hit_returns_closed_bracket(self):
        # the second probe, 2 log 10, is the root: it closes the bracket
        root = 2.0 * math.log(10.0)
        a, b, _, f_b = expand_bracket_geometric(lambda x: root - x)
        assert a < root == b and f_b == 0.0

    def test_walks_each_problem_its_own_way(self):
        roots = np.array([-40.0, -0.5, 0.5, 12.0])
        f = counting(lambda x: roots - x)
        lo, hi, f_lo, f_hi = expand_bracket_geometric(f, np.zeros(4))
        assert np.all(lo < roots) and np.all(roots < hi)
        np.testing.assert_allclose(hi - lo, math.log(10.0), rtol=0.0, atol=1e-13)
        # the values are those of the last two steps, not evaluated again
        np.testing.assert_array_equal(f_lo, roots - lo)
        np.testing.assert_array_equal(f_hi, roots - hi)
        # one call at the start and one per step of the longest walk
        assert f.calls == 1 + math.ceil(40.0 / math.log(10.0))
        # the walk starts from `start`, here e^5 in y
        lo, hi, _, _ = expand_bracket_geometric(lambda x: 6.0 - x, 5.0)
        assert lo == 5.0 and hi == 5.0 + math.log(10.0)

    def test_bracket_is_oriented_for_bisect(self):
        f = lambda x: 1e-3 * (17.0 - x)  # noqa: E731
        lo, hi, f_lo, f_hi = expand_bracket_geometric(f)
        assert f(lo) == f_lo > 0.0 >= f(hi) == f_hi
        assert bisect(f, lo, hi, f_lo, f_hi) == pytest.approx(17.0, rel=1e-15)

    def test_failure_when_no_root(self):
        with pytest.raises(BracketFailure):
            expand_bracket_geometric(lambda x: np.ones_like(x))

    def test_failure_after_60_steps(self):
        f = counting(lambda x: np.where(x < 0.0, 1.0, -1.0))
        with pytest.raises(BracketFailure, match="1 of 2 problems"):
            expand_bracket_geometric(f, np.array([0.0, -61 * math.log(10.0)]))
        assert f.calls == 61
        # a root 60 steps down is still found
        lo, hi, _, _ = expand_bracket_geometric(lambda x: -59.5 * math.log(10.0) - x)
        assert lo < -59.5 * math.log(10.0) < hi
