import math

import pytest

from levyinvest.errors import BracketFailure
from levyinvest.roots import bisect, expand_bracket_geometric


class TestBisect:
    def test_simple_root(self):
        root = bisect(lambda t: t * t - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_decreasing_function(self):
        root = bisect(lambda t: 1.0 - t, 0.0, 5.0)
        assert root == pytest.approx(1.0, rel=1e-14)

    def test_endpoint_root_returned(self):
        assert bisect(lambda t: t - 1.0, 1.0, 3.0) == 1.0
        assert bisect(lambda t: t - 3.0, 1.0, 3.0) == 3.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketFailure):
            bisect(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_tolerance_respected(self):
        root = bisect(lambda t: t - math.pi, 0.0, 10.0, rel_tol=1e-3)
        assert root == pytest.approx(math.pi, rel=2e-3)


class TestBracketExpansion:
    def test_finds_root_far_above_start(self):
        a, b = expand_bracket_geometric(lambda t: t - 3e4)
        assert a < 3e4 < b

    def test_finds_root_far_below_start(self):
        a, b = expand_bracket_geometric(lambda t: t - 3e-7)
        assert a < 3e-7 < b

    def test_exact_probe_hit_returns_closed_bracket(self):
        a, b = expand_bracket_geometric(lambda t: t - 100.0)
        assert a <= 100.0 <= b

    def test_alternation_probes_both_directions(self):
        seen = []

        def f(t):
            seen.append(t)
            return t - 1e-3

        expand_bracket_geometric(f)
        assert any(t > 1.0 for t in seen) and any(t < 1.0 for t in seen)

    def test_failure_when_no_root(self):
        with pytest.raises(BracketFailure):
            expand_bracket_geometric(lambda t: 1.0, max_steps=8)
