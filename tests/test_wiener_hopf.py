import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from levyinvest.errors import BracketFailure, DomainError, UnsupportedModel
from levyinvest.levy import LevyModel, laplace_exponent
from levyinvest.wiener_hopf import (WienerHopfFactors, cramer_roots, exact_factors,
                                    inf_moment, inf_moment_with_se, sample_triplet,
                                    sup_moment_diagnostics, wh_identity_residual)

BD = LevyModel.brownian(0.0, np.sqrt(2.0))
KOU = LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
MERTON = LevyModel.merton(0.0, 0.3, 2.0, -0.05, 0.2)
R_BD, R_KOU = 2.0, 0.5


def sup_moment(factors, lam):
    return sup_moment_diagnostics(factors, lam)["estimate"]


class TestCramerRoots:
    def test_brownian_roots_closed_form(self):
        roots = cramer_roots(BD, R_BD)
        # mu = 0: roots are +-sqrt(2 r) / sigma
        assert sorted(roots) == pytest.approx([-math.sqrt(2.0), math.sqrt(2.0)])

    def test_brownian_roots_solve_characteristic(self):
        m = LevyModel.brownian(0.3, 1.2)
        for t in cramer_roots(m, 1.5):
            assert laplace_exponent(m, t) == pytest.approx(1.5, rel=1e-12)

    def test_kou_root_count_interlacing(self):
        roots = sorted(cramer_roots(KOU, R_KOU))
        assert len(roots) == 4
        t2, t1, b1, b2 = roots
        assert t2 < -10.0 < t1 < 0.0 < b1 < 10.0 < b2

    def test_kou_roots_solve_characteristic(self):
        for t in cramer_roots(KOU, R_KOU):
            base = 0.1 * t + 0.5 * 0.04 * t * t
            jump = 0.5 * 10 / (10 - t) + 0.5 * 10 / (10 + t) - 1.0
            assert base + jump == pytest.approx(R_KOU, abs=1e-10)

    @pytest.mark.parametrize("mu, sigma, r", [(2.0, 0.05, 0.01), (-1.0, 0.05, 0.01),
                                              (0.3, 1.2, 1.5), (2.0, 4.0, 10.0)])
    def test_brownian_roots_free_of_cancellation(self, mu, sigma, r):
        # the larger-magnitude root from the quadratic formula, the other
        # from the product of the roots, -2 r / sigma^2
        sig2 = sigma * sigma
        disc = math.sqrt(mu * mu + 2.0 * sig2 * r)
        big = (-mu - math.copysign(disc, mu)) / sig2
        expected = sorted((big, -2.0 * r / (sig2 * big)))
        assert cramer_roots(LevyModel.brownian(mu, sigma), r) == pytest.approx(
            expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu, p_up, eta_plus, eta_minus, r", [
        (0.1, 0.5, 10.0, 10.0, 0.5), (-0.3, 0.2, 3.0, 25.0, 0.05),
        (0.8, 0.9, 40.0, 2.0, 2.0), (0.0, 0.5, 1.5, 1.5, 10.0)])
    def test_kou_roots_interlace_and_weights_match_partial_fractions(
            self, mu, p_up, eta_plus, eta_minus, r):
        model = LevyModel.kou(mu, 0.3, 2.0, p_up, eta_plus, eta_minus)
        wh = exact_factors(model, r)
        t2, t1, b1, b2 = wh.roots
        assert t2 < -eta_minus < t1 < 0.0 < b1 < eta_plus < b2
        assert wh.min_rates == (-t1, -t2) and wh.max_rates == (b1, b2)
        # the two-term partial fractions of the rational factors, e.g.
        #   E[e^{lam I}] = (t1 t2 / em) (em + lam) / ((t1 + lam)(t2 + lam))
        t1, t2, em, ep = -t1, -t2, eta_minus, eta_plus
        expected = (t2 * (em - t1) / (em * (t2 - t1)), t1 * (t2 - em) / (em * (t2 - t1)),
                    b2 * (ep - b1) / (ep * (b2 - b1)), b1 * (b2 - ep) / (ep * (b2 - b1)))
        assert wh.min_weights + wh.max_weights == pytest.approx(expected, rel=1e-9)

    def test_misplaced_root_is_never_returned(self, monkeypatch):
        # a located root on the pole: its bracket is clipped to one side of
        # the pole, so the root finder cannot converge to the pole instead
        located = np.array(cramer_roots(KOU, R_KOU))
        located[-1] = KOU.eta_plus
        monkeypatch.setattr(npoly, "polyroots", lambda c: located)
        with pytest.raises(BracketFailure):
            cramer_roots(KOU, R_KOU)

    def test_merton_unsupported(self):
        with pytest.raises(UnsupportedModel):
            cramer_roots(MERTON, 1.0)


class TestExactFactors:
    def test_mode_flags(self):
        wh = exact_factors(BD, R_BD)
        assert wh.is_exact and wh.pool is None

    def test_roots_rebuilt_from_rates(self):
        assert exact_factors(KOU, R_KOU).roots == cramer_roots(KOU, R_KOU)
        assert exact_factors(BD, R_BD).roots == cramer_roots(BD, R_BD)

    def test_brownian_single_exponential(self):
        wh = exact_factors(BD, R_BD)
        assert len(wh.min_rates) == 1 and len(wh.max_rates) == 1
        assert wh.min_weights[0] == pytest.approx(1.0)
        assert wh.max_rates[0] == pytest.approx(math.sqrt(2.0))

    def test_kou_mixture_weights_sum_to_one(self):
        wh = exact_factors(KOU, R_KOU)
        assert len(wh.min_rates) == 2 and len(wh.max_rates) == 2
        assert sum(wh.min_weights) == pytest.approx(1.0)
        assert sum(wh.max_weights) == pytest.approx(1.0)
        assert all(w > 0 for w in wh.min_weights + wh.max_weights)

    def test_merton_has_no_exact_factors(self):
        with pytest.raises(UnsupportedModel):
            exact_factors(MERTON, 1.0)


class TestMoments:
    def test_brownian_moments_closed_form(self):
        wh = exact_factors(BD, R_BD)
        b = math.sqrt(2.0)
        assert inf_moment(wh, 1.0) == pytest.approx(b / (b + 1.0))
        assert sup_moment(wh, 1.0) == pytest.approx(b / (b - 1.0))

    def test_identity_from_exact_moments(self):
        for model, r in ((BD, R_BD), (KOU, R_KOU)):
            wh = exact_factors(model, r)
            product = sup_moment(wh, 1.0) * inf_moment(wh, 1.0)
            assert product == pytest.approx(r / (r - laplace_exponent(model, 1.0)),
                                            rel=1e-12)

    def test_moment_limits(self):
        wh = exact_factors(BD, R_BD)
        assert inf_moment(wh, 0.0) == pytest.approx(1.0)
        assert sup_moment(wh, 0.0) == pytest.approx(1.0)

    def test_negative_lambda_rejected(self):
        wh = exact_factors(BD, R_BD)
        with pytest.raises(DomainError):
            inf_moment(wh, -0.5)

    def test_sup_moment_divergence_guard(self):
        wh = exact_factors(BD, R_BD)
        with pytest.raises(DomainError):
            sup_moment(wh, math.sqrt(2.0))
        with pytest.raises(DomainError):
            sup_moment(wh, 5.0)

    def test_exact_moments_have_zero_se(self):
        wh = exact_factors(KOU, R_KOU)
        _, se = inf_moment_with_se(wh, 0.5)
        assert se == 0.0

    def test_exact_diagnostics(self):
        diag = sup_moment_diagnostics(exact_factors(BD, R_BD), 1.0)
        b = math.sqrt(2.0)
        assert diag == {"estimate": pytest.approx(b / (b - 1.0)), "se": 0.0,
                        "max_term_share": None}

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_rejected_before_any_pool_pass(self, lam):
        class Untouchable:
            def __getattr__(self, name):
                pytest.fail(f"the pool was read: {name}")

        pooled = WienerHopfFactors(model=KOU, r=R_KOU, pool=Untouchable())
        for factors in (exact_factors(KOU, R_KOU), pooled):
            for moment in (inf_moment, inf_moment_with_se, sup_moment_diagnostics):
                with pytest.raises(DomainError, match="lambda must be finite"):
                    moment(factors, lam)


class TestMonteCarlo:
    def test_mc_matches_exact_inf(self):
        wh_mc = sample_triplet(BD, R_BD, 50000, np.random.default_rng(1))
        wh_ex = exact_factors(BD, R_BD)
        for lam in (0.25, 0.5, 1.0):
            est, se = inf_moment_with_se(wh_mc, lam)
            assert abs(est - inf_moment(wh_ex, lam)) < 3.5 * se

    def test_mc_mode_flag_and_size(self):
        wh = sample_triplet(KOU, R_KOU, 5000, np.random.default_rng(2))
        assert not wh.is_exact and wh.pool is not None
        assert len(wh.pool) == 5000

    def test_diagnostics_fields(self):
        wh = sample_triplet(BD, R_BD, 5000, np.random.default_rng(3))
        diag = sup_moment_diagnostics(wh, 1.0)
        assert set(diag) == {"estimate", "se", "max_term_share"}
        assert 0 < diag["max_term_share"] <= 1.0
        assert diag["se"] > 0

    def test_identity_residual_within_band(self):
        res, se = wh_identity_residual(sample_triplet(KOU, R_KOU, 50000,
                                                      np.random.default_rng(4)))
        assert se > 0
        assert abs(res) < 3.5 * se

    def test_identity_needs_subcritical_rate(self):
        with pytest.raises(DomainError):
            wh_identity_residual(sample_triplet(BD, 0.5, 1000, np.random.default_rng(5)))

    def test_identity_residual_needs_mc(self):
        with pytest.raises(UnsupportedModel):
            wh_identity_residual(exact_factors(KOU, R_KOU))
