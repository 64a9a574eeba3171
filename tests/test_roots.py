import math

import numpy as np
import pytest

from levyinvest.errors import BracketFailure
from levyinvest.roots import bisect, expand_bracket_geometric


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


class TestBracketExpansion:
    def test_finds_root_far_above_start(self):
        a, b = expand_bracket_geometric(lambda x: math.log(3e4) - x)
        assert a < math.log(3e4) < b and b == a + math.log(10.0)

    def test_finds_root_far_below_start(self):
        a, b = expand_bracket_geometric(lambda x: math.log(3e-7) - x)
        assert a < math.log(3e-7) < b and b == a + math.log(10.0)

    def test_exact_probe_hit_returns_closed_bracket(self):
        # the second probe, 2 log 10, is the root: it closes the bracket
        root = 2.0 * math.log(10.0)
        a, b = expand_bracket_geometric(lambda x: root - x)
        assert a < root == b

    def test_walks_each_problem_its_own_way(self):
        roots = np.array([-40.0, -0.5, 0.5, 12.0])
        f = counting(lambda x: roots - x)
        lo, hi = expand_bracket_geometric(f, np.zeros(4))
        assert np.all(lo < roots) and np.all(roots < hi)
        np.testing.assert_array_equal(hi, lo + math.log(10.0))
        # one call at the start and one per step of the longest walk
        assert f.calls == 1 + math.ceil(40.0 / math.log(10.0))
        # the walk starts from `start`, here e^5 in y
        lo, hi = expand_bracket_geometric(lambda x: 6.0 - x, 5.0)
        assert lo == 5.0 and hi == 5.0 + math.log(10.0)

    def test_bracket_is_oriented_for_bisect(self):
        f = lambda x: 1e-3 * (17.0 - x)  # noqa: E731
        lo, hi = expand_bracket_geometric(f)
        assert f(lo) > 0.0 >= f(hi)
        assert bisect(f, lo, hi) == pytest.approx(17.0, rel=1e-15)

    def test_failure_when_no_root(self):
        with pytest.raises(BracketFailure):
            expand_bracket_geometric(lambda x: np.ones_like(x))

    def test_failure_after_60_steps(self):
        f = counting(lambda x: np.where(x < 0.0, 1.0, -1.0))
        with pytest.raises(BracketFailure, match="1 of 2 problems"):
            expand_bracket_geometric(f, np.array([0.0, -61 * math.log(10.0)]))
        assert f.calls == 61
        # a root 60 steps down is still found
        lo, hi = expand_bracket_geometric(lambda x: -59.5 * math.log(10.0) - x)
        assert lo < -59.5 * math.log(10.0) < hi
