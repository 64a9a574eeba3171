import os
import warnings

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

import levyinvest.boundary
from levyinvest.boundary import (BoundaryTable, _rule, ces_boundary_constant,
                                 ces_polynomial_constant, closed_form_boundary_table,
                                 integral_equation_residual, marginal_gap,
                                 solve_boundary_grid, solve_boundary_point)
from levyinvest.config import load_config
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
EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
FAR = (-8.0, 6.0, 12.0)  # log shocks far off every grid used here


def closed_form_at(p, factors, u):
    """The closed-form boundary at u: the first grid point of a table from u."""
    return closed_form_boundary_table(p, factors, u, u + 1.0, 2).values[0]


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
        # far beyond the grid b overflows, its logarithm does not, and the
        # lookup is silent
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
        b = closed_form_at(CD, WH, 0.7)
        gap, _ = marginal_gap(CD, WH, 0.7, b)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_capacity_must_be_positive(self):
        with pytest.raises(DomainError):
            marginal_gap(CD, WH, 0.0, 0.0)


class TestSolvers:
    def test_point_matches_closed_form(self):
        for u in (-1.0, 0.0, 1.3):
            got = solve_boundary_point(CD, WH, u)
            assert got == pytest.approx(closed_form_at(CD, WH, u), rel=1e-8)

    def test_grid_matches_closed_form(self):
        tab = solve_boundary_grid(CD, WH, -1.0, 1.0, 9)
        ref = closed_form_boundary_table(CD, WH, -1.0, 1.0, 9)
        assert np.allclose(tab.values, ref.values, rtol=1e-8)
        assert tab.provenance == "generic_solver"
        assert tab.ses is None
        assert tab.solver["iterations"] <= 12
        assert 0.0 <= tab.solver["max_abs_gap"] < 1e-8

    @pytest.mark.parametrize("name", ["merton_cobb_douglas", "stable_ces"])
    def test_mc_table_is_affine_in_log_b(self, name):
        # one pool makes the gap a function of alpha u + (beta - 1) log y
        # (cobb_douglas) or of u - log y (ces), so log b(u) - u is the same
        # root at every grid point (slope alpha / (1 - beta) = 1 and 1): the
        # solver's precision shows where no closed form checks the table
        cfg = load_config(os.path.join(EXAMPLES, f"{name}.json"))
        pool = sample_triplet(cfg.model, cfg.r, cfg.n_paths, np.random.default_rng(cfg.seed))
        tab = solve_boundary_grid(cfg.profit, pool, cfg.u_min, cfg.u_max, cfg.grid_n)
        offset = np.log(tab.values) - tab.grid
        assert offset.max() - offset.min() <= 2e-10
        # so edge-slope extrapolation is exact far off the grid
        for u in FAR:
            direct = np.log(solve_boundary_point(cfg.profit, pool, u))
            assert abs(tab.log(u) - direct) <= 2e-10, u

    @pytest.mark.parametrize("name", ["merton_cobb_douglas", "stable_ces"])
    def test_mc_se_slope_is_the_final_bracket_secant(self, name, monkeypatch):
        # a Monte Carlo root's SE divides the gap's SE by the gap's slope in
        # y; the secant through the final bracket's ends must agree with the
        # +-1% central difference on the same pool, and the one with_se call
        # comes last, after the lockstep block's passes
        cfg = load_config(os.path.join(EXAMPLES, f"{name}.json"))
        pool = sample_triplet(cfg.model, cfg.r, cfg.n_paths, np.random.default_rng(cfg.seed))
        gap, calls = levyinvest.boundary._gap, []

        def counting_gap(p, r, us, nodes, w, lc, with_se=False):
            calls.append(with_se)
            return gap(p, r, us, nodes, w, lc, with_se=with_se)

        monkeypatch.setattr(levyinvest.boundary, "_gap", counting_gap)
        tab = solve_boundary_grid(cfg.profit, pool, cfg.u_min, cfg.u_max, cfg.grid_n)
        monkeypatch.undo()
        assert calls == [False] * tab.solver["iterations"] + [True]
        nodes, w = _rule(pool)
        for u, root, se in zip(tab.grid, tab.values, tab.ses):
            us = np.array([u])
            dy = 0.01 * root
            at = lambda y, **kw: gap(cfg.profit, pool.r, us, nodes, w, np.log([y]), **kw)  # noqa: E731
            slope = (at(root + dy)[0] - at(root - dy)[0])[0] / (2.0 * dy)
            gap_se = at(root, with_se=True)[1][0]
            assert se == pytest.approx(abs(gap_se / slope), rel=1e-3)

    @pytest.mark.parametrize("name", ["merton_cobb_douglas", "brownian_cobb_douglas"])
    def test_grid_is_one_lockstep_solve(self, name, monkeypatch):
        # one bracket walk and one bisect serve every grid point in both modes,
        # and a Monte Carlo kernel call never sees more than one pool row
        cfg = load_config(os.path.join(EXAMPLES, f"{name}.json"))
        factors = (exact_factors(cfg.model, cfg.r) if name.startswith("brownian")
                   else sample_triplet(cfg.model, cfg.r, cfg.n_paths,
                                       np.random.default_rng(cfg.seed)))
        calls, shapes = [], []

        def counted(f):
            def wrapped(*args, **kwargs):
                calls.append(f.__name__)
                return f(*args, **kwargs)
            return wrapped

        def recording(p, lz, lc, out=None):
            shapes.append(np.broadcast(lz, lc).shape)
            return kernel(p, lz, lc, out=out)

        kernel = levyinvest.boundary.marginal_profit
        for f in (levyinvest.boundary.bisect, levyinvest.boundary.expand_bracket_geometric):
            monkeypatch.setattr(levyinvest.boundary, f.__name__, counted(f))
        monkeypatch.setattr(levyinvest.boundary, "marginal_profit", recording)
        tab = solve_boundary_grid(cfg.profit, factors, cfg.u_min, cfg.u_max, cfg.grid_n)
        assert calls == ["expand_bracket_geometric", "bisect"]
        if factors.is_exact:
            assert set(shapes) == {(cfg.grid_n, len(_rule(factors)[0]))}
        else:
            assert set(shapes) == {(cfg.n_paths,)}
            assert len(shapes) == cfg.grid_n * (tab.solver["iterations"] + 1)

    def test_mc_mode_keeps_ses(self):
        pool = sample_triplet(BD, R, 20000, np.random.default_rng(0))
        tab = solve_boundary_grid(CD, pool, -0.5, 0.5, 5)
        assert tab.ses is not None and (np.asarray(tab.ses) > 0).all()

    def test_rate_below_kappa_cannot_bracket(self):
        p = ces(0.5, 0.5)  # kappa = 0.25
        wh_low = exact_factors(BD, 0.2)
        with pytest.raises(BracketFailure):
            solve_boundary_point(p, wh_low, 0.0)

    @pytest.mark.parametrize("u_min, u_max, n", [
        (-1.0, 1.0, 1), (1.0, 1.0, 5), (1.0, -1.0, 5), (-1.0, float("inf"), 5),
        (float("nan"), 1.0, 5)], ids=["one_point", "equal_ends", "reversed", "inf_end",
                                      "nan_end"])
    @pytest.mark.parametrize("build", [solve_boundary_grid, closed_form_boundary_table],
                             ids=["solved", "closed_form"])
    def test_bad_grid_rejected_before_any_work(self, build, u_min, u_max, n, monkeypatch):
        def work(*args, **kwargs):
            pytest.fail("a moment or a root was computed")
        for name in ("_solve", "inf_moment"):
            monkeypatch.setattr(levyinvest.boundary, name, work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                build(CD, WH, u_min, u_max, n)


@pytest.mark.parametrize("u", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_log_shock_rejected_before_any_evaluation(u, monkeypatch):
    def evaluated(*args, **kwargs):
        pytest.fail("the gap was evaluated or a pool was drawn")
    monkeypatch.setattr(levyinvest.boundary, "marginal_profit", evaluated)
    monkeypatch.setattr(levyinvest.boundary, "sample_extrema", evaluated)
    table = BoundaryTable(grid=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]),
                          provenance="test")
    calls = [lambda: marginal_gap(CD, WH, u, 1.0),
             lambda: solve_boundary_point(CD, WH, u),
             lambda: solve_boundary_grid(CD, WH, -1.0, u, 5),
             lambda: solve_boundary_grid(CD, WH, u, 1.0, 5),
             lambda: integral_equation_residual(table, CD, BD, R, u, 1000,
                                                np.random.default_rng(0))]
    for call in calls:
        with pytest.raises(DomainError, match="log shock must be finite"):
            call()


@pytest.mark.parametrize("n", [1, 999])
def test_residual_needs_enough_draws_before_any_draw(n, monkeypatch):
    monkeypatch.setattr(levyinvest.boundary, "sample_extrema",
                        lambda *args, **kwargs: pytest.fail("a pool was drawn"))
    table = closed_form_boundary_table(CD, WH, -1.0, 1.0, 5)
    with pytest.raises(DomainError, match="replicates"):
        integral_equation_residual(table, CD, BD, R, 0.0, n, np.random.default_rng(0))


class TestScalingLaw:
    # the law that makes edge-slope extrapolation exact on every table the
    # package builds: log b(u) - s u is one constant, on the grid and far off it
    @pytest.mark.parametrize("prof", [cobb_douglas(0.3, 0.6), ces(0.5, 0.5), log_profit()],
                             ids=["cobb_douglas", "ces", "log"])
    @pytest.mark.parametrize("wh", [WH, WH_KOU], ids=["brownian", "kou"])
    def test_exact_tables_follow_the_law(self, prof, wh):
        # each kind is homothetic: the gap at (u, log y) depends on
        # alpha u + (beta - 1) log y (cobb_douglas) or on u - log y (ces, log)
        s = prof.alpha / (1.0 - prof.beta) if prof.kind == "cobb_douglas" else 1.0
        solved = solve_boundary_grid(prof, wh, -2.0, 2.0, 21)
        closed = closed_form_boundary_table(prof, wh, -2.0, 2.0, 21)
        for tab in (solved, closed):
            offset = np.log(tab.values) - s * tab.grid
            assert offset.max() - offset.min() <= 1e-12, tab.provenance
            for u in FAR:
                direct = np.log(solve_boundary_point(prof, wh, u))
                assert abs(tab.log(u) - direct) <= 1e-12, (tab.provenance, u)


class TestRule:
    @pytest.mark.parametrize("wh", [WH, WH_KOU], ids=["brownian", "kou"])
    def test_table_is_laggauss_bit_for_bit(self, wh):
        # the fixed table reproduces the rule computed by numpy.polynomial
        t, a = laggauss(32)
        rates, mix = np.array(wh.min_rates)[:, None], np.array(wh.min_weights)[:, None]
        nodes, weights = _rule(wh)
        assert nodes.tobytes() == (-t / rates).ravel().tobytes()
        assert weights.tobytes() == (mix * a).ravel().tobytes()

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
        np.testing.assert_array_equal(tab.values, points)


class TestClosedForms:
    def test_cobb_douglas_formula(self):
        # b(u) = (theta e^u)^(alpha / (1 - beta)), theta = (beta E e^{alpha I} / r)^(1/alpha)
        e_ai = inf_moment(WH, 0.5)
        theta = (0.5 * e_ai / R) ** 2.0
        b0, b1 = closed_form_boundary_table(CD, WH, 0.0, 1.0, 2).values
        assert b0 == pytest.approx(theta, rel=1e-12)
        assert b1 == pytest.approx(theta * np.e, rel=1e-12)

    def test_log_boundary_formula(self):
        p = log_profit()
        assert closed_form_at(p, WH, 0.3) == pytest.approx(
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
        assert closed_form_boundary_table(ces(0.5, 0.3), WH, -1, 1, 5).provenance \
            == "ces_closed_form"
        assert closed_form_boundary_table(ces(0.5, 0.5), WH, -1, 1, 5).provenance \
            == "ces_polynomial_closed_form"
        assert closed_form_boundary_table(log_profit(), WH, -1, 1, 5).provenance \
            == "log_closed_form"
        # Monte Carlo moments keep the generic constant
        pool = sample_triplet(BD, R, 2000, np.random.default_rng(0))
        assert closed_form_boundary_table(ces(0.5, 0.5), pool, -1, 1, 5).provenance \
            == "ces_closed_form"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("model, r",
                             [(KOU, 0.5), (BD, R), (LevyModel.brownian(-0.1, 1.0), 1.0)],
                             ids=["kou_ces", "criterion_4", "brownian_log"])
    def test_ces_polynomial_table_matches_generic_solver(self, model, r, alpha, n):
        # for 1/gamma = n the exact-mode table's constant comes from the
        # binomial reduction on exact moments, a route that shares no rule
        # with the generic solver
        wh, p = exact_factors(model, r), ces(alpha, 1.0 / n)
        tab = closed_form_boundary_table(p, wh, -1.0, 1.0, 5)
        assert tab.provenance == "ces_polynomial_closed_form"
        k = ces_boundary_constant(p, wh)
        np.testing.assert_allclose(tab.values / np.exp(tab.grid), k, rtol=1e-12, atol=0.0)


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
