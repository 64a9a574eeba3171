import os
import sys
import warnings

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

from levyinvest.boundary import (BoundaryTable, ExtrapolationWarning,
                                 closed_form_boundary_table, solve_boundary_grid)
from levyinvest.config import load_config
from levyinvest.errors import ConditionViolation, DomainError
from levyinvest.levy import LevyModel, default_t_max, laplace_exponent
from levyinvest.policy import (StoppingRule, compare_policies, evaluate_profit,
                               exponential_time_values, foc_residuals, stopping_value)
from levyinvest.profit import cobb_douglas, evaluate
from levyinvest.wiener_hopf import exact_factors

BD = LevyModel.brownian(0.0, np.sqrt(2.0))
R = 2.0
CD = cobb_douglas(0.5, 0.5)
TABLE = closed_form_boundary_table(CD, exact_factors(BD, R), -2.0, 2.0, 41)
# a boundary pinned far below every capacity used here: the policy never invests
NEVER = BoundaryTable(grid=[-1.0, 1.0], values=[1e-12, 1e-12], provenance="never")
STABLE = LevyModel.stable(0.0, 1.5, 0.5)
KOU = LevyModel.kou(0.0, 0.2, 1.0, 0.4, 8.0, 6.0)
N = 4096
H = 0.02
TM = 2.0


class TestStoppingRule:
    def test_kinds_validated(self):
        with pytest.raises(DomainError):
            StoppingRule("whenever", 1.0)
        with pytest.raises(DomainError):
            StoppingRule.fixed(-1.0)

    @pytest.mark.parametrize("rule", [StoppingRule.fixed, StoppingRule.hit_above,
                                      StoppingRule.hit_below])
    @pytest.mark.parametrize("at", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_level_rejected(self, rule, at):
        with pytest.raises(DomainError):
            rule(at)

    def test_labels(self):
        assert StoppingRule.fixed(0.5).label() == "t=0.5"
        assert ">=" in StoppingRule.hit_above(0.3).label()
        assert "<=" in StoppingRule.hit_below(-0.3).label()


class TestEvaluateProfit:
    def test_zero_policy_matches_closed_form(self):
        # boundary pinned far below y: capacity never moves, so the value is
        # the discounted flow of pi(z, y) with its geometric-Brownian moment
        ev = evaluate_profit(CD, BD, R, NEVER, 0.0, 1.0, 20000, np.random.default_rng(1),
                             step=H, t_max=TM)
        psi = laplace_exponent(BD, CD.alpha)
        exact = (1 - np.exp(-(R - psi) * ev.t_max)) / (R - psi)
        assert ev.pv_investment == 0.0
        assert abs(ev.j_value - exact) < 4 * ev.j_se

    def test_tail_bound_formula(self):
        ev = evaluate_profit(CD, BD, R, TABLE, 0.0, 1.0, N,
                             np.random.default_rng(2), step=H, t_max=TM)
        assert ev.tail_bound == pytest.approx(np.exp(-(R - 1.0) * ev.t_max))

    def test_worker_invariance(self):
        a = evaluate_profit(CD, BD, R, TABLE, 0.0, 0.05, 40000,
                            np.random.default_rng(3), step=H, t_max=TM, workers=1)
        b = evaluate_profit(CD, BD, R, TABLE, 0.0, 0.05, 40000,
                            np.random.default_rng(3), step=H, t_max=TM, workers=4)
        assert a == b

    def test_stable_has_no_certificate(self):
        with pytest.raises(ConditionViolation):
            evaluate_profit(CD, STABLE, 1.0, TABLE, 0.0, 1.0, N,
                            np.random.default_rng(4), step=H, t_max=TM)

    def test_subcritical_rate_rejected(self):
        with pytest.raises(ConditionViolation):
            evaluate_profit(CD, BD, 0.9, TABLE, 0.0, 1.0, N,
                            np.random.default_rng(6), step=H, t_max=TM)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            evaluate_profit(CD, BD, R, TABLE, 0.0, -1.0, N,
                            np.random.default_rng(7), step=H, t_max=TM)
        with pytest.raises(DomainError):
            evaluate_profit(CD, BD, R, TABLE, 0.0, 1.0, 10,
                            np.random.default_rng(8), step=H, t_max=TM)

    def test_default_horizon(self):
        assert default_t_max(R) == pytest.approx(10.0)


class TestComparePolicies:
    def test_base_scale_added_and_paired_zero(self):
        res = compare_policies(CD, BD, R, TABLE, 0.0, 0.05, [0.5, 2.0], N,
                               np.random.default_rng(9), step=H, t_max=TM)
        scales = [row.scale for row in res.rows]
        assert 1.0 in scales
        base = res.rows[scales.index(1.0)]
        assert base.base_minus_this == 0.0 and base.base_minus_this_se == 0.0

    def test_investment_grows_with_scale(self):
        res = compare_policies(CD, BD, R, TABLE, 0.0, 0.01, [0.5, 1.0, 2.0], N,
                               np.random.default_rng(10), step=H, t_max=TM)
        pv = [row.pv_investment for row in sorted(res.rows, key=lambda r: r.scale)]
        assert pv[0] < pv[1] < pv[2]

    def test_scales_validated(self):
        with pytest.raises(DomainError):
            compare_policies(CD, BD, R, TABLE, 0.0, 1.0, [0.5, -1.0], N,
                             np.random.default_rng(11), step=H, t_max=TM)


class TestFOC:
    def test_never_hit_rule_contributes_zero(self):
        rules = (StoppingRule.hit_above(1e9),)
        rep = foc_residuals(CD, BD, R, TABLE, 0.0, 1.0, rules, N,
                            np.random.default_rng(12), step=H, t_max=TM)
        assert rep.entries[0].hit_fraction == 0.0
        assert rep.entries[0].supergradient == 0.0
        assert rep.entries[0].se == 0.0

    def test_fixed_rule_beyond_horizon_rejected(self):
        with pytest.raises(DomainError):
            foc_residuals(CD, BD, R, TABLE, 0.0, 1.0, (StoppingRule.fixed(TM + 1),),
                          N, np.random.default_rng(13), step=H, t_max=TM)

    def test_needs_rules(self):
        with pytest.raises(DomainError):
            foc_residuals(CD, BD, R, TABLE, 0.0, 1.0, (), N,
                          np.random.default_rng(14), step=H, t_max=TM)

    def test_deep_interior_stop_is_strictly_suboptimal(self):
        # stopping late at a fixed time wastes the option value: strongly negative
        bx = float(TABLE(0.0))
        rep = foc_residuals(CD, BD, R, TABLE, 0.0, bx, (StoppingRule.fixed(1.0),),
                            20000, np.random.default_rng(15), step=H, t_max=TM)
        e = rep.entries[0]
        assert e.hit_fraction == 1.0
        assert e.supergradient < -3 * e.se


class TestStoppingValue:
    def test_exactly_one_inside_investment_region(self):
        bx = float(TABLE(0.0))
        v, se = stopping_value(CD, BD, R, TABLE, 0.0, 0.5 * bx, N,
                               np.random.default_rng(16), step=H, t_max=TM)
        assert v == 1.0 and se == 0.0

    def test_below_one_outside(self):
        bx = float(TABLE(0.0))
        v, se = stopping_value(CD, BD, R, TABLE, 0.0, 4.0 * bx, 20000,
                               np.random.default_rng(17), step=H, t_max=TM)
        assert v < 1.0 - 3.0 * se

    def test_worker_invariance(self):
        bx = float(TABLE(0.0))
        args = (CD, BD, R, TABLE, 0.0, 2.0 * bx, 40000)
        a = stopping_value(*args, np.random.default_rng(18), step=H, t_max=TM,
                           workers=1)
        b = stopping_value(*args, np.random.default_rng(18), step=H, t_max=TM,
                           workers=3)
        assert a == b


@pytest.mark.parametrize("model", [BD, KOU], ids=["brownian", "kou"])
def test_stopping_value_is_one_plus_supergradient_at_zero(model):
    # a boundary that never binds keeps C = y and never stops the stopping
    # rule, so both estimators integrate the same flow on the same paths:
    # v = A_N and the supergradient at tau = 0 is A_N - 1
    kwargs = dict(step=H, t_max=TM)
    v, _ = stopping_value(CD, model, R, NEVER, 0.0, 1.0, N, np.random.default_rng(24),
                          **kwargs)
    rep = foc_residuals(CD, model, R, NEVER, 0.0, 1.0, (StoppingRule.fixed(0.0),), N,
                        np.random.default_rng(24), **kwargs)
    assert abs(v - (1.0 + rep.entries[0].supergradient)) <= 1e-12


class TestExponentialTimeValues:
    def test_matches_quadrature_on_kou_ces(self):
        # second route: X_T = M + I' with M and -I' independent exponential
        # mixtures (exact_factors), integrated by a 2-D Gauss-Laguerre rule
        # with 64 nodes per mixture component; both routes read one table
        cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "configs", "kou_ces.json"))
        factors = exact_factors(cfg.model, cfg.r)
        table = solve_boundary_grid(cfg.profit, factors, cfg.u_min, cfg.u_max, cfg.grid_n)
        t, a = laggauss(64)

        def rule(rates, weights):
            return ((t / np.asarray(rates)[:, None]).ravel(),
                    (np.asarray(weights)[:, None] * a).ravel())

        m, w_m = rule(factors.max_rates, factors.max_weights)
        neg_i, w_i = rule(factors.min_rates, factors.min_weights)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            b_m = table(cfg.x + m)[:, None]
            res = exponential_time_values(cfg.profit, cfg.model, cfg.r, table, cfg.x,
                                          cfg.y, cfg.scales, cfg.n_paths,
                                          np.random.default_rng(cfg.seed))
        lz = cfg.x + m[:, None] - neg_i[None, :]
        assert [row.scale for row in res.rows] == list(cfg.scales)
        for row in res.rows:
            c = np.maximum(cfg.y, row.scale * b_m)
            exact = w_m @ (evaluate(cfg.profit, lz, np.log(c)) / cfg.r - (c - cfg.y)) @ w_i
            assert abs(row.j_value - exact) < 4 * row.j_se, (row.scale, exact)
        assert (res.engine, res.tail_bound) == ("exponential_time", 0.0)

    def test_base_row_paired_zero_and_grid_fields(self):
        res = exponential_time_values(CD, KOU, R, TABLE, 0.0, 0.05, [0.5, 2.0], N,
                                      np.random.default_rng(25), step=H, t_max=TM)
        assert [row.scale for row in res.rows] == [1.0, 0.5, 2.0]
        base = res.rows[0]
        assert base.base_minus_this == 0.0 and base.base_minus_this_se == 0.0
        # the stepped route's resolved grid, reported but not used
        stepped = compare_policies(CD, KOU, R, TABLE, 0.0, 0.05, [1.0], 1000,
                                   np.random.default_rng(25), step=H, t_max=TM)
        assert (res.step, res.t_max) == (stepped.step, stepped.t_max)
        assert stepped.engine == "stepped"


class TestExtrapolationReport:
    # 40000 paths run as three chunks; the warning's range is reduced from
    # per-chunk results after the join, so threads cannot lose an update.
    # A short switch interval makes the threads interleave as often as they can.
    # Every engine attributes its warning to the line that called it.
    @pytest.mark.parametrize("engine", ["evaluate_profit", "compare_policies",
                                        "exponential_time_values", "foc_residuals",
                                        "stopping_value"])
    def test_warning_text_worker_invariant(self, engine):
        bx = float(TABLE(0.0))
        texts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 4):
                kwargs = dict(step=H, t_max=TM, workers=workers)
                rng = np.random.default_rng(19)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    if engine == "evaluate_profit":
                        evaluate_profit(CD, BD, R, TABLE, 0.0, 0.05, 40000, rng, **kwargs)
                    elif engine == "compare_policies":
                        compare_policies(CD, BD, R, TABLE, 0.0, 0.05, [0.5, 2.0], 40000,
                                         rng, **kwargs)
                    elif engine == "exponential_time_values":
                        # r = 5 > psi(2) = 4 certifies the pool's variance
                        exponential_time_values(CD, BD, 5.0, TABLE, 0.0, 0.05, [0.5, 2.0],
                                                40000, rng, **kwargs)
                    elif engine == "foc_residuals":
                        foc_residuals(CD, BD, R, TABLE, 0.0, bx,
                                      (StoppingRule.fixed(0.5),), 40000, rng, **kwargs)
                    else:
                        stopping_value(CD, BD, R, TABLE, 0.0, 2.0 * bx, 40000, rng,
                                       **kwargs)
                ours = [w for w in caught if issubclass(w.category, ExtrapolationWarning)]
                assert [w.filename for w in ours] == [__file__]
                texts.append([str(w.message) for w in ours])
        finally:
            sys.setswitchinterval(interval)
        assert texts[0] == texts[1]
