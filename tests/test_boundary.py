import warnings

import numpy as np
import pytest

from levyinvest.boundary import (BoundaryTable, ExtrapolationWarning, _rule,
                                 _warn_extrapolated,
                                 ces_boundary_constant, ces_polynomial_constant,
                                 closed_form_boundary_table, cobb_douglas_boundary,
                                 integral_equation_residual, log_boundary,
                                 marginal_gap, solve_boundary_grid,
                                 solve_boundary_point)
from levyinvest.errors import BracketFailure, DomainError, MonotonicityViolation
from levyinvest.levy import LevyModel
from levyinvest.profit import ces, cobb_douglas, log_profit
from levyinvest.wiener_hopf import exact_factors, inf_moment, sample_triplet

BD = LevyModel.brownian(0.0, np.sqrt(2.0))
R = 2.0
WH = exact_factors(BD, R)
CD = cobb_douglas(0.5, 0.5)
KOU = LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
WH_KOU = exact_factors(KOU, 0.5)


class TestBoundaryTable:
    def test_interpolation_hits_nodes(self):
        tab = BoundaryTable(grid=np.array([0.0, 1.0, 2.0]),
                            values=np.array([1.0, 2.0, 4.0]),
                            provenance="test")
        for u, v in zip(tab.grid, tab.values):
            assert tab(u) == pytest.approx(v)

    def test_log_linear_between_nodes(self):
        tab = BoundaryTable(grid=np.array([0.0, 1.0]),
                            values=np.array([1.0, np.e]),
                            provenance="test")
        assert tab(0.5) == pytest.approx(np.exp(0.5))

    def test_extrapolation_warns(self):
        tab = BoundaryTable(grid=np.array([0.0, 1.0]),
                            values=np.array([1.0, np.e]),
                            provenance="test")
        with pytest.warns(ExtrapolationWarning):
            high = tab(3.0)
        assert high == pytest.approx(np.exp(3.0))

    def test_extrapolation_warning_shows_plain_floats(self):
        tab = BoundaryTable(grid=np.array([-2.0, 2.0]), values=np.array([1.0, 2.0]),
                            provenance="test")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tab(3.0)
            _warn_extrapolated(tab, np.float64(0.0), np.float64(3.0))
        texts = [str(w.message) for w in caught]
        assert len(texts) == 2
        for text in texts:
            assert "[-2.0, 2.0]" in text and "np.float64" not in text

    def test_extrapolation_warning_names_the_caller(self):
        tab = BoundaryTable(grid=np.array([-0.1, 0.1]), values=np.array([1.0, 1.1]),
                            provenance="test")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tab(3.0)
            integral_equation_residual(tab, CD, BD, R, 0.0, 2000,
                                       np.random.default_rng(0))
        assert len(caught) == 2
        assert all(w.filename == __file__ for w in caught)

    def test_vector_and_scalar_calls(self):
        tab = BoundaryTable(grid=np.array([0.0, 1.0]),
                            values=np.array([1.0, 2.0]),
                            provenance="test")
        assert np.isscalar(float(tab(0.5)))
        out = tab(np.array([0.0, 1.0]))
        assert out.shape == (2,)

    def test_log_lookup(self):
        tab = BoundaryTable(grid=np.array([-1.0, 0.0, 1.0]),
                            values=np.array([0.5, 1.0, 3.0]), provenance="test")
        u = np.linspace(-1.0, 1.0, 9)
        np.testing.assert_allclose(tab.log(u), np.log(tab(u)), rtol=0.0, atol=1e-15)
        assert tab.log(0.3) == pytest.approx(np.log(tab(0.3)), abs=1e-15)
        assert isinstance(tab.log(0.3), float)
        # far beyond the grid b overflows, its logarithm does not; the lookup
        # itself is quiet, since the estimators report their own ranges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = tab.log(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(far))
        assert far[1] == pytest.approx(np.log(3.0) + np.log(3.0) * (1e4 - 1.0))

    def test_first_reach_inverts_log(self):
        tab = BoundaryTable(grid=np.array([-1.0, 0.0, 1.0, 2.0]),
                            values=np.array([0.5, 1.0, 3.0, 3.5]), provenance="test")
        lv = np.log(tab.values)
        inside = np.concatenate([lv, np.linspace(lv[0], lv[-1], 23)])
        for ly in np.concatenate([inside, lv[0] - [0.1, 2.0, 50.0], lv[-1] + [0.1, 2.0, 50.0]]):
            u = tab.first_reach(ly)
            assert abs(tab.log(u) - ly) <= 1e-12, (ly, u)
            # and it is the first such u: b stays below the level just before it
            assert tab.log(u - 1e-9) < ly
        assert tab.first_reach(lv[0]) == -1.0 and tab.first_reach(lv[2]) == 1.0

    def test_first_reach_flat_edges(self):
        flat = BoundaryTable(grid=np.array([-1.0, 0.0, 1.0]),
                             values=np.array([1.0, 1.0, 1.0]), provenance="test")
        assert flat.first_reach(0.0) == -np.inf and flat.first_reach(-5.0) == -np.inf
        assert flat.first_reach(1e-15) == np.inf
        # a constant table pinned far below y never reaches it
        never = BoundaryTable(grid=[-1.0, 1.0], values=[1e-12, 1e-12], provenance="never")
        assert never.first_reach(0.0) == np.inf
        # flat outside, rising inside: both edges bound the crossing
        ramp = BoundaryTable(grid=np.array([-2.0, -1.0, 1.0, 2.0]),
                             values=np.array([1.0, 1.0, np.e, np.e]), provenance="test")
        assert ramp.first_reach(-1.0) == -np.inf and ramp.first_reach(1.5) == np.inf
        assert ramp.first_reach(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_first_reach_takes_the_first_crossing_through_a_dip(self):
        # values may dip by 1e-9 relative; the level is crossed at u = 1 first,
        # left below inside the dip, and crossed again after it
        top = 2.0 * (1.0 - 0.5e-9)
        tab = BoundaryTable(grid=np.array([0.0, 1.0, 2.0, 3.0]),
                            values=np.array([1.0, 2.0, 2.0 * (1.0 - 1e-9), 4.0]),
                            provenance="test")
        assert tab.first_reach(np.log(2.0)) == 1.0
        u = tab.first_reach(np.log(top))
        assert 0.0 < u < 1.0 and abs(tab.log(u) - np.log(top)) <= 1e-12
        assert tab.log(2.0) < np.log(top)
        # a falling edge line counts as flat: a level above the left edge is
        # first reached inside the grid, one above the right edge never
        dip = 2.0 * (1.0 - 1e-9)
        left = BoundaryTable(grid=np.array([0.0, 1.0, 2.0]), values=np.array([2.0, dip, 3.0]),
                             provenance="test")
        assert left.first_reach(np.log(2.0)) == -np.inf
        assert 1.0 < left.first_reach(np.log(2.0) + 1e-12) < 2.0
        right = BoundaryTable(grid=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 2.0, dip]),
                              provenance="test")
        assert right.first_reach(np.log(2.0)) == 1.0
        assert right.first_reach(np.log(2.0) + 1e-12) == np.inf

    def test_empty_lookup(self):
        tab = BoundaryTable(grid=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]),
                            provenance="test")
        for out in (tab(np.array([])), tab.log(np.array([]))):
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_decreasing_values_rejected(self):
        with pytest.raises(MonotonicityViolation):
            BoundaryTable(grid=np.array([0.0, 1.0]),
                          values=np.array([2.0, 1.0]), provenance="test")

    def test_unsorted_grid_rejected(self):
        with pytest.raises(MonotonicityViolation):
            BoundaryTable(grid=np.array([1.0, 0.0]),
                          values=np.array([1.0, 2.0]), provenance="test")

    def test_nonpositive_values_rejected(self):
        with pytest.raises(MonotonicityViolation):
            BoundaryTable(grid=np.array([0.0, 1.0]),
                          values=np.array([0.0, 1.0]), provenance="test")


class TestMarginalGap:
    def test_sign_structure(self):
        # large capacity -> expected marginal profit below r; tiny -> above
        lo, _ = marginal_gap(CD, WH, 0.0, 1e3)
        hi, _ = marginal_gap(CD, WH, 0.0, 1e-6)
        assert lo < 0 < hi

    def test_zero_at_closed_form_root(self):
        b = cobb_douglas_boundary(CD, WH, 0.7)
        gap, _ = marginal_gap(CD, WH, 0.7, b)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_capacity_must_be_positive(self):
        with pytest.raises(DomainError):
            marginal_gap(CD, WH, 0.0, 0.0)


class TestSolvers:
    def test_point_matches_closed_form(self):
        for u in (-1.0, 0.0, 1.3):
            got = solve_boundary_point(CD, WH, u)
            assert got == pytest.approx(cobb_douglas_boundary(CD, WH, u), rel=1e-8)

    def test_grid_matches_closed_form(self):
        tab = solve_boundary_grid(CD, WH, -1.0, 1.0, 9)
        ref = closed_form_boundary_table(CD, WH, -1.0, 1.0, 9)
        assert np.allclose(tab.values, ref.values, rtol=1e-8)
        assert tab.provenance == "generic_solver"
        assert tab.ses is None
        assert 30 < tab.solver["iterations"] < 60
        assert 0.0 <= tab.solver["max_abs_gap"] < 1e-8

    def test_mc_mode_keeps_ses(self):
        pool = sample_triplet(BD, R, 20000, np.random.default_rng(0))
        tab = solve_boundary_grid(CD, pool, -0.5, 0.5, 5)
        assert tab.ses is not None and (np.asarray(tab.ses) > 0).all()

    def test_rate_below_kappa_cannot_bracket(self):
        p = ces(0.5, 0.5)  # kappa = 0.25
        wh_low = exact_factors(BD, 0.2)
        with pytest.raises(BracketFailure):
            solve_boundary_point(p, wh_low, 0.0)

    def test_grid_needs_two_points(self):
        with pytest.raises(DomainError):
            solve_boundary_grid(CD, WH, -1.0, 1.0, 1)


class TestRule:
    @pytest.mark.parametrize("wh", [WH, WH_KOU], ids=["brownian", "kou"])
    def test_exponential_moments_match_exact(self, wh):
        nodes, weights = _rule(wh)
        for lam in (0.25, 0.5, 1.0, 2.0):
            got = float(np.sum(weights * np.exp(lam * nodes)))
            assert got == pytest.approx(inf_moment(wh, lam), abs=1e-13)

    @pytest.mark.parametrize("prof", [CD, ces(0.5, 0.5), log_profit()],
                             ids=["cobb_douglas", "ces", "log"])
    def test_kou_grid_matches_closed_form(self, prof):
        tab = solve_boundary_grid(prof, WH_KOU, -1.5, 1.5, 31)
        ref = closed_form_boundary_table(prof, WH_KOU, -1.5, 1.5, 31)
        assert np.allclose(tab.values, ref.values, rtol=1e-8, atol=0.0)

    def test_kou_ces_constant_matches_polynomial(self):
        k = ces_boundary_constant(ces(0.5, 0.5), WH_KOU)
        k_poly = ces_polynomial_constant(0.5, 2, [inf_moment(WH_KOU, 0.5)], 0.5)
        assert k == pytest.approx(k_poly, rel=1e-8)

    def test_mc_grid_equals_point_solves(self):
        pool = sample_triplet(BD, R, 5000, np.random.default_rng(4))
        tab = solve_boundary_grid(CD, pool, -0.5, 0.5, 5)
        points = [solve_boundary_point(CD, pool, u) for u in tab.grid]
        assert np.allclose(tab.values, points, rtol=1e-12, atol=0.0)


class TestClosedForms:
    def test_cobb_douglas_formula(self):
        # b(u) = (theta e^u)^(alpha / (1 - beta)), theta = (beta E e^{alpha I} / r)^(1/alpha)
        e_ai = inf_moment(WH, 0.5)
        theta = (0.5 * e_ai / R) ** 2.0
        assert cobb_douglas_boundary(CD, WH, 0.0) == pytest.approx(theta, rel=1e-12)
        assert cobb_douglas_boundary(CD, WH, 1.0) == pytest.approx(theta * np.e,
                                                                   rel=1e-12)

    def test_log_boundary_formula(self):
        p = log_profit()
        assert log_boundary(p, WH, 0.3) == pytest.approx(
            inf_moment(WH, 1.0) * np.exp(0.3) / R, rel=1e-12)

    def test_ces_constant_solves_its_equation(self):
        p = ces(0.5, 0.5)
        k = ces_boundary_constant(p, WH)
        gap, _ = marginal_gap(p, WH, 0.0, k)
        assert gap == pytest.approx(0.0, abs=1e-8)

    def test_ces_polynomial_matches_quadrature(self):
        p = ces(0.5, 0.5)
        k_quad = ces_boundary_constant(p, WH)
        moments = [inf_moment(WH, 0.5)]
        k_poly = ces_polynomial_constant(0.5, 2, moments, R)
        assert k_poly == pytest.approx(k_quad, rel=1e-8)

    @pytest.mark.parametrize("alpha, moment, r", [
        (0.5, 0.6, 0.5), (0.2, 0.05, 0.7), (0.9, 0.99, 0.02), (0.5, 1.0, 40.0)])
    def test_ces_polynomial_closed_form_n2(self, alpha, moment, r):
        # with n = 2 the equation is linear in w = K ** (-1/2)
        rhs = r / (1.0 - alpha) ** 2 - 1.0
        expected = (moment * alpha / (1.0 - alpha) / rhs) ** 2
        k = ces_polynomial_constant(alpha, 2, [moment], r)
        assert k == pytest.approx(expected, rel=1e-14)

    def test_ces_needs_rate_above_kappa(self):
        p = ces(0.5, 0.5)
        with pytest.raises(DomainError):
            ces_boundary_constant(p, exact_factors(BD, 0.2))

    def test_closed_form_table_provenances(self):
        assert closed_form_boundary_table(CD, WH, -1, 1, 5).provenance \
            == "cobb_douglas_closed_form"
        assert closed_form_boundary_table(ces(0.5, 0.5), WH, -1, 1, 5).provenance \
            == "ces_closed_form"
        assert closed_form_boundary_table(log_profit(), WH, -1, 1, 5).provenance \
            == "log_closed_form"


class TestIntegralEquation:
    def test_true_boundary_residual_small(self):
        tab = closed_form_boundary_table(CD, WH, -2.0, 2.0, 41)
        res, se = integral_equation_residual(tab, CD, BD, R, 0.5, 30000,
                                             np.random.default_rng(1))
        assert se > 0 and abs(res) < 3.5 * se

    def test_scaled_boundary_rejected(self):
        tab = closed_form_boundary_table(CD, WH, -2.0, 2.0, 41)
        doubled = BoundaryTable(grid=tab.grid, values=2.0 * np.asarray(tab.values),
                                provenance="scaled")
        res, se = integral_equation_residual(doubled, CD, BD, R, 0.5, 30000,
                                             np.random.default_rng(2))
        assert res < -3.0 * se
