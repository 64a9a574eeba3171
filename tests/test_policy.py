import os
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

import levyinvest.levy
import levyinvest.policy
from levyinvest.boundary import BoundaryTable, closed_form_boundary_table, solve_boundary_grid
from levyinvest.config import load_config
from levyinvest.errors import ConditionViolation, DomainError
from levyinvest.levy import LevyModel, laplace_exponent
from levyinvest.policy import (StoppingRule, compare_policies, evaluate_profit,
                               exponential_time_values, foc_residuals, stopping_value)
from levyinvest.profit import cobb_douglas, evaluate
from levyinvest.wiener_hopf import exact_factors, sample_triplet

BD = LevyModel.brownian(0.0, np.sqrt(2.0))
R = 2.0
CD = cobb_douglas(0.5, 0.5)
TABLE = closed_form_boundary_table(CD, exact_factors(BD, R), -2.0, 2.0, 41)
# a boundary pinned far below every capacity used here: the policy never invests
NEVER = BoundaryTable(grid=[-1.0, 1.0], values=[1e-12, 1e-12], provenance="never")
STABLE = LevyModel.stable(0.0, 1.5, 0.5)
KOU = LevyModel.kou(0.0, 0.2, 1.0, 0.4, 8.0, 6.0)
MERTON = LevyModel.merton(0.0, 0.3, 2.0, 0.0, 0.2)
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


def base_value(model, r, b, y, n, rng, **kwargs):
    """compare_policies at the base scale alone, the value of the policy from b."""
    return compare_policies(CD, model, r, b, 0.0, y, [1.0], n, rng, **kwargs)


class TestBaseValue:
    def test_zero_policy_matches_closed_form(self):
        # boundary pinned far below y: capacity never moves, so the value is
        # the discounted flow of pi(z, y) with its geometric-Brownian moment
        res = base_value(BD, R, NEVER, 1.0, 20000, np.random.default_rng(1), step=H, t_max=TM)
        row, = res.rows
        psi = laplace_exponent(BD, CD.alpha)
        exact = (1 - np.exp(-(R - psi) * res.t_max)) / (R - psi)
        assert row.pv_investment == 0.0
        assert abs(row.j_value - exact) < 4 * row.j_se

    def test_tail_bound_formula(self):
        res = base_value(BD, R, TABLE, 1.0, N, np.random.default_rng(2), step=H, t_max=TM)
        assert res.tail_bound == pytest.approx(np.exp(-(R - 1.0) * res.t_max))

    def test_worker_invariance(self):
        a = base_value(BD, R, TABLE, 0.05, 40000, np.random.default_rng(3), step=H, t_max=TM,
                       workers=1)
        b = base_value(BD, R, TABLE, 0.05, 40000, np.random.default_rng(3), step=H, t_max=TM,
                       workers=4)
        assert a == b

    def test_stable_has_no_certificate(self):
        with pytest.raises(ConditionViolation):
            base_value(STABLE, 1.0, TABLE, 1.0, N, np.random.default_rng(4), step=H, t_max=TM)

    def test_subcritical_rate_rejected(self):
        with pytest.raises(ConditionViolation):
            base_value(BD, 0.9, TABLE, 1.0, N, np.random.default_rng(6), step=H, t_max=TM)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            base_value(BD, R, TABLE, -1.0, N, np.random.default_rng(7), step=H, t_max=TM)
        with pytest.raises(DomainError):
            base_value(BD, R, TABLE, 1.0, 10, np.random.default_rng(8), step=H, t_max=TM)

    @pytest.mark.parametrize("step, t_max", [(0.0, TM), (-H, TM), (H, H), (H, 0.5 * H)])
    def test_grid_validation(self, step, t_max):
        with pytest.raises(DomainError):
            base_value(BD, R, TABLE, 1.0, N, np.random.default_rng(7), step=step, t_max=t_max)

    def test_default_horizon(self):
        # None: step 1e-3 / r and t_max 20 / r, reported by the exponential-time
        # engine without a time grid (r = 5 > psi(2) = 4 certifies its variance)
        res = exponential_time_values(CD, BD, 5.0, TABLE, 0.0, 0.05, [1.0], 1000,
                                      np.random.default_rng(0))
        assert (res.step, res.t_max) == pytest.approx((2e-4, 4.0))


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

    @pytest.mark.parametrize("scales", [[0.5, float("nan")], [float("inf")]],
                             ids=["scale_nan", "scale_inf"])
    def test_non_finite_scales_rejected_before_any_draw(self, scales, monkeypatch):
        monkeypatch.setattr(levyinvest.policy, "_increment",
                            lambda *args, **kwargs: pytest.fail("a path was stepped"))
        with pytest.raises(DomainError):
            compare_policies(CD, BD, R, TABLE, 0.0, 1.0, scales, N,
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

    def test_to_dict_mirrors_the_report(self):
        # the shape of the benchmark's foc.json
        rules = (StoppingRule.fixed(0.5), StoppingRule.hit_above(0.3),
                 StoppingRule.hit_below(-0.4))
        rep = foc_residuals(CD, BD, R, TABLE, 0.0, 1.0, rules, 1000,
                            np.random.default_rng(16), step=H, t_max=TM)
        doc = rep.to_dict()
        assert doc == {"entries": doc["entries"], "slackness": rep.slackness,
                       "slackness_se": rep.slackness_se, "n_paths": 1000, "step": rep.step,
                       "t_max": rep.t_max}
        assert [e["rule"] for e in doc["entries"]] == ["t=0.5", "X >= 0.3", "X <= -0.4"]
        for e, entry in zip(doc["entries"], rep.entries, strict=True):
            assert e == {"rule": entry.rule.label(), "supergradient": entry.supergradient,
                         "se": entry.se, "hit_fraction": entry.hit_fraction}

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

    @pytest.mark.parametrize("mult", [0.5, 1.0])
    def test_no_pass_where_y_is_at_most_b(self, mult, monkeypatch):
        monkeypatch.setattr(levyinvest.policy, "_forward",
                            lambda *args: pytest.fail("a forward pass ran"))
        v = stopping_value(CD, BD, R, TABLE, 0.0, mult * float(TABLE(0.0)), N,
                           np.random.default_rng(16), step=H, t_max=TM)
        assert v == (1.0, 0.0)

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

    def test_stable_has_no_certificate(self, monkeypatch):
        # the estimate would be finite noise around an infinite mean; the
        # certificate fails before any path is stepped
        monkeypatch.setattr(levyinvest.policy, "_increment",
                            lambda *args, **kwargs: pytest.fail("a path was stepped"))
        with pytest.raises(ConditionViolation):
            stopping_value(CD, STABLE, 1.0, TABLE, 0.0, 5.0, N,
                           np.random.default_rng(1), step=H, t_max=TM)


class TestThreshold:
    # stopping_value reads the table once, as the first passage of X above
    # a = inf{u : b(u) >= y} - x; at y = b(x) it must stop at once, however
    # the threshold rounds
    MC_TABLE = solve_boundary_grid(CD, sample_triplet(BD, R, 4000, np.random.default_rng(26)),
                                   -2.0, 2.0, 21)

    @pytest.mark.parametrize("table", [TABLE, MC_TABLE], ids=["closed_form", "monte_carlo"])
    def test_exactly_one_at_the_boundary(self, table):
        g = table.grid
        xs = np.concatenate([g, 0.5 * (g[1:] + g[:-1]), g[0] - np.linspace(0.05, 1.0, 20),
                             g[-1] + np.linspace(0.05, 1.0, 20)])
        for x in xs:
            x = float(x)
            v = stopping_value(CD, BD, R, table, x, float(table(x)), 1000,
                               np.random.default_rng(0), step=0.5, t_max=1.0)
            assert v == (1.0, 0.0), x

    def test_no_overflow_where_b_exceeds_every_float(self):
        # log b(800) is about 800, so b(x) overflows; the comparison must not
        v = stopping_value(CD, BD, R, TABLE, 800.0, 1.0, 1000, np.random.default_rng(0),
                           step=0.5, t_max=1.0)
        assert v == (1.0, 0.0)

    def test_reads_the_table_once(self, monkeypatch):
        bx = float(TABLE(0.0))
        calls = []
        log = BoundaryTable.log
        monkeypatch.setattr(BoundaryTable, "log",
                            lambda self, u: calls.append(u) or log(self, u))
        v, se = stopping_value(CD, BD, R, TABLE, 0.0, 2.0 * bx, 20000,
                               np.random.default_rng(27), step=H, t_max=TM)
        assert v < 1.0 - 3.0 * se
        assert len(calls) <= 1


ENGINES = {
    "evaluate_profit": lambda x, rng: evaluate_profit(CD, BD, R, TABLE, x, 0.05, 1000, rng,
                                                      step=H, t_max=TM),
    "compare_policies": lambda x, rng: compare_policies(CD, BD, R, TABLE, x, 0.05, [0.5],
                                                        1000, rng, step=H, t_max=TM),
    # r = 5 > psi(2) = 4 certifies the pool's variance
    "exponential_time_values": lambda x, rng: exponential_time_values(
        CD, BD, 5.0, TABLE, x, 0.05, [0.5], 1000, rng, step=H, t_max=TM),
    "foc_residuals": lambda x, rng: foc_residuals(
        CD, BD, R, TABLE, x, 0.2, (StoppingRule.fixed(0.5), StoppingRule.hit_above(0.3)),
        1000, rng, step=H, t_max=TM),
    "stopping_value": lambda x, rng: stopping_value(CD, BD, R, TABLE, x, 0.2, 1000, rng,
                                                    step=H, t_max=TM),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestInitialShock:
    def test_integer_shock_is_a_float(self, engine):
        run = ENGINES[engine]
        assert run(0, np.random.default_rng(28)) == run(0.0, np.random.default_rng(28))

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_shock_rejected_before_any_draw(self, engine, x, monkeypatch):
        def drawn(*args, **kwargs):
            pytest.fail("a draw was made")
        monkeypatch.setattr(levyinvest.policy, "_increment", drawn)
        monkeypatch.setattr(levyinvest.policy, "sample_extrema", drawn)
        with pytest.raises(DomainError):
            ENGINES[engine](x, np.random.default_rng(29))


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


# The stepped engine, bit for bit: float.hex of `foc_residuals` (per rule of
# RULES: supergradient, SE, hit fraction; then slackness and its SE), of
# `compare_policies` (per scale 0.5, 1, 2: J, SE, investment PV, SE,
# J(1) - J(s), SE) and of `stopping_value` at y = 2 b(0) (value, SE), at
# 2000 paths in chunks of 700, step 0.01, t_max 2.  The brownian and kou
# foc and compare pins were recorded from the engine that looked b up on
# every path at every step; the merton and stopping pins from the engine
# whose steps allocated every path-sized array afresh.
RULES = (StoppingRule.fixed(0.0), StoppingRule.fixed(0.5), StoppingRule.fixed(2.0),
         StoppingRule.hit_above(0.3), StoppingRule.hit_below(-0.4))
PINS = {
    "brownian": {
        "foc": [
            "-0x1.da4113670f8acp-7", "0x1.802fab0fcceedp-9", "0x1.0000000000000p+0",
            "-0x1.1e12fc97b5280p-4", "0x1.c820212ad1885p-10", "0x1.0000000000000p+0",
            "-0x1.2c155b8213cf2p-6", "0x1.6e72f1bd14a14p-63", "0x1.0000000000000p+0",
            "-0x1.0203c3dc68d86p-6", "0x1.0ce89d02ffeeep-9", "0x1.b9db22d0e5604p-1",
            "-0x1.47f707019b9d7p-4", "0x1.49bc2c7ddd751p-9", "0x1.a10624dd2f1aap-1",
            "-0x1.7dd9d30b6c512p-8", "0x1.7f7762de10d7ep-12"],
        "compare": [
            "0x1.faf22c442dfc1p-4", "0x1.4b7265cc0423cp-9", "0x1.c641df04f93e1p-6",
            "0x1.0798d1b37c8f3p-9", "0x1.4689a0950a608p-9", "0x1.a94bc1478651fp-12",
            "0x1.02933ca46b278p-3", "0x1.451607634f5aap-9", "0x1.373bc7b59a15cp-4",
            "0x1.0b314da8e17e1p-8", "0x0.0p+0", "0x0.0p+0",
            "0x1.97bf7732a9efap-4", "0x1.df0d0a840d874p-10", "0x1.7d193354f6e7cp-3",
            "0x1.0b314da8e17e3p-7", "0x1.b59c0858b17d6p-6", "0x1.9b6f86b0990ecp-10"],
        "stopping": ["0x1.c760916a6de4fp-1", "0x1.c729db5fb91aap-9"],
    },
    "kou": {
        "foc": [
            "0x1.008834ddc7f68p-2", "0x1.2b47d886d4cdcp-10", "0x1.0000000000000p+0",
            "0x1.f08f4d8a6a462p-5", "0x1.72899e09454cfp-11", "0x1.0000000000000p+0",
            "-0x1.2c155b8213cf2p-6", "0x1.6e72f1bd14a14p-63", "0x1.0000000000000p+0",
            "0x1.917864fdf3e1dp-7", "0x1.ad58c2591f627p-11", "0x1.4395810624dd3p-2",
            "-0x1.1f5580b33766dp-8", "0x1.954da1e149a74p-12", "0x1.3851eb851eb85p-2",
            "0x1.fc59b06a24406p-11", "0x1.781f3d813f39fp-16"],
        "compare": [
            "0x1.7177b22976f64p-4", "0x1.379418244c38ap-13", "0x1.44b15a13a7225p-15",
            "0x1.0976a6ab2951bp-17", "0x1.46b81a0f369fep-10", "0x1.242b86a3b5a9cp-15",
            "0x1.76929291b3d0cp-4", "0x1.78897ffc04ad6p-13", "0x1.1fc5d0a0baf1fp-8",
            "0x1.7de1c5cfc9440p-14", "0x0.0p+0", "0x0.0p+0",
            "0x1.79e4a0c58809cp-4", "0x1.b128b36c52a61p-13", "0x1.5f6722a5a204ap-5",
            "0x1.7de1c5cfc9441p-13", "-0x1.a90719ea1c754p-11", "0x1.1cead09d52135p-15"],
        "stopping": ["0x1.dd1e90a6cdb68p-1", "0x1.6e8218c248c73p-10"],
    },
    "merton": {
        "foc": [
            "0x1.c082bd757f5b7p-3", "0x1.66ee5b8ae9d74p-10", "0x1.0000000000000p+0",
            "0x1.709775e6d554ep-5", "0x1.b990685184730p-11", "0x1.0000000000000p+0",
            "-0x1.2c155b8213cf2p-6", "0x1.6e72f1bd14a14p-63", "0x1.0000000000000p+0",
            "0x1.1ce3ca13b0185p-5", "0x1.56bef6612474ap-10", "0x1.1a1cac083126fp-1",
            "-0x1.10246383e1b74p-8", "0x1.1d5aa9ac58e9dp-11", "0x1.c624dd2f1a9fcp-2",
            "0x1.8b3be1bea42e9p-10", "0x1.3a758f989f01cp-15"],
        "compare": [
            "0x1.79b8b5acd97c1p-4", "0x1.f3191e7c12943p-13", "0x1.7f3c44f85152fp-12",
            "0x1.0c97dd99ae026p-15", "0x1.356509b363b27p-9", "0x1.01643a2647848p-14",
            "0x1.8363ddfa7499ap-4", "0x1.36a7ab225e706p-12", "0x1.12dfd6c6a630ep-7",
            "0x1.6916cb6012e2ap-13", "0x0.0p+0", "0x0.0p+0",
            "0x1.826dafee7dc6dp-4", "0x1.53a96863bcfbfp-12", "0x1.a0e599e0c660ap-5",
            "0x1.6916cb6012e2ap-12", "0x1.ec5c17eda5c13p-13", "0x1.4c5cd24aa90e0p-15"],
        "stopping": ["0x1.e2f3b3b4da31cp-1", "0x1.e27d426c951ffp-10"],
    },
}


def _pinned_foc(model, workers=1):
    return foc_residuals(CD, model, R, TABLE, 0.0, float(TABLE(0.0)), RULES, 2000,
                         np.random.default_rng(41), step=0.01, t_max=2.0, workers=workers)


def _pinned_compare(model, workers=1):
    return compare_policies(CD, model, R, TABLE, 0.0, float(TABLE(0.0)), (0.5, 1.0, 2.0),
                            2000, np.random.default_rng(42), step=0.01, t_max=2.0,
                            workers=workers)


def _pinned_stopping(model, workers=1):
    return stopping_value(CD, model, R, TABLE, 0.0, 2.0 * float(TABLE(0.0)), 2000,
                          np.random.default_rng(43), step=0.01, t_max=2.0, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINS))
def test_stepped_engine_pinned_bit_for_bit(name, workers, monkeypatch):
    monkeypatch.setattr(levyinvest.levy, "_CHUNK", 700)
    model = {"brownian": BD, "kou": KOU, "merton": MERTON}[name]
    rep, res = _pinned_foc(model, workers), _pinned_compare(model, workers)
    foc = [v for e in rep.entries for v in (e.supergradient, e.se, e.hit_fraction)]
    foc += [rep.slackness, rep.slackness_se]
    assert [v.hex() for v in foc] == PINS[name]["foc"]
    assert [row.scale for row in res.rows] == [0.5, 1.0, 2.0]
    rows = [v for row in res.rows for v in (row.j_value, row.j_se, row.pv_investment,
                                            row.pv_investment_se, row.base_minus_this,
                                            row.base_minus_this_se)]
    assert [v.hex() for v in rows] == PINS[name]["compare"]
    # stopping_value runs the first-hit accumulator without reflection
    assert [v.hex() for v in _pinned_stopping(model, workers)] == PINS[name]["stopping"]


def test_lookups_only_where_the_maximum_moved(monkeypatch):
    # C changes only when the running maximum makes a new high, so b is read
    # only on those paths: about 9% of path steps here, fewer on longer grids
    points = []
    log = BoundaryTable.log
    monkeypatch.setattr(BoundaryTable, "log",
                        lambda self, u: points.append(np.size(u)) or log(self, u))
    for run in (_pinned_foc, _pinned_compare):
        points.clear()
        call = run(BD)
        assert 0 < sum(points) <= 0.1 * call.n_paths * round(call.t_max / call.step)


def _chunk_peak(run) -> float:
    """The traced peak of run(_CHUNK) after a warm-up run(1000), in float
    arrays of one full chunk's length."""
    m = levyinvest.levy._CHUNK
    run(1000)
    tracemalloc.start()
    try:
        run(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * m)


def test_first_hit_pass_holds_hit_indices():
    # criterion 9's five stops keep an A_tau row and an int32 hit index each
    # (7.5 arrays), beside the pass's buffers, the accumulator's five and
    # the temporaries of step 1, where every path moves: 26.6 arrays.  With a
    # float e^{-r tau} row and a bool hit row per stop the pass took 29.7.
    y = float(TABLE(0.0))
    peak = _chunk_peak(lambda n: foc_residuals(CD, BD, R, TABLE, 0.0, y, RULES, n,
                                               np.random.default_rng(5), step=0.05,
                                               t_max=2.5))
    assert peak <= 28.0


def test_stopping_pass_holds_hit_indices():
    # one stop and no capacity to move: the four path buffers of the
    # increment, the accumulator's four, one A_tau row and one hit index,
    # 9.9 arrays; e^{-r tau} is gathered into a spent buffer, and no
    # slackness sum is allocated.  The float e^{-r tau} and bool hit rows, the
    # unused running maximum and the slackness sum took 12.5.
    y = 2.0 * float(TABLE(0.0))
    peak = _chunk_peak(lambda n: stopping_value(CD, BD, R, TABLE, 0.0, y, n,
                                                np.random.default_rng(6), step=0.05,
                                                t_max=2.5))
    assert peak <= 10.5
