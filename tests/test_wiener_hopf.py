import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import levyinvest.wiener_hopf
from levyinvest.errors import BracketFailure, DomainError, UnsupportedModel
from levyinvest.levy import Estimate, LevyModel, _psi, laplace_exponent
from levyinvest.wiener_hopf import (WienerHopfFactors, cramer_roots, exact_factors,
                                    inf_moment, moment_estimate, sample_triplet,
                                    wh_identity_residual)

BD = LevyModel.brownian(0.0, np.sqrt(2.0))
KOU = LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
MERTON = LevyModel.merton(0.0, 0.3, 2.0, -0.05, 0.2)
R_BD, R_KOU = 2.0, 0.5
# (mu, p_up, eta_plus, eta_minus, r) of Kou models with sigma 0.3, intensity 2
KOU_CASES = [(0.1, 0.5, 10.0, 10.0, 0.5), (-0.3, 0.2, 3.0, 25.0, 0.05),
             (0.8, 0.9, 40.0, 2.0, 2.0), (0.0, 0.5, 1.5, 1.5, 10.0)]


def sup_moment(factors, lam):
    return moment_estimate(factors, lam, sup=True)[0].value


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

    @pytest.mark.parametrize("mu, p_up, eta_plus, eta_minus, r", KOU_CASES)
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

    @pytest.mark.parametrize("model, r", [
        *((LevyModel.kou(mu, 0.3, 2.0, p_up, eta_plus, eta_minus), r)
          for mu, p_up, eta_plus, eta_minus, r in KOU_CASES),
        (BD, R_BD), (LevyModel.brownian(2.0, 0.05), 0.01)],
        ids=["kou0", "kou1", "kou2", "kou3", "brownian", "brownian_drift"])
    def test_every_root_is_a_sign_change_of_psi(self, model, r):
        # each root is a float where the computed psi - r crosses 0: its
        # neighbours on either side have opposite signs, or psi - r is 0 there
        for x in cramer_roots(model, r):
            g = [_psi(model, float(v)) - r for v in np.nextafter(x, [-math.inf, math.inf])]
            assert _psi(model, x) == r or g[0] * g[1] < 0.0

    def test_outer_roots_found_by_doubling(self):
        # sigma = 1e-3 puts the outer negative root near -2 mu / sigma^2, so
        # its bracket's outer end doubled its distance from the pole 18 times;
        # the roots of the polynomial (psi - r) (10 - lam) (10 + lam) check all four
        model = LevyModel.kou(0.1, 1e-3, 1.0, 0.5, 10.0, 10.0)
        roots = cramer_roots(model, R_KOU)
        assert roots[0] < -10.0 - 2.0 ** 17
        base = (-model.jump_intensity - R_KOU, model.mu, 0.5 * model.sigma ** 2)
        num = npoly.polyadd(npoly.polymul(base, (100.0, 0.0, -1.0)),
                            (100.0 * model.jump_intensity,))
        assert roots == pytest.approx(sorted(npoly.polyroots(num).real), rel=1e-9)

    @pytest.mark.parametrize("flip", [
        lambda psi: lambda m, lam: -psi(m, lam),  # psi - r falls through positive roots
        lambda psi: lambda m, lam: psi(m, lam) + 1e300,  # psi > r next to the poles
        lambda psi: lambda m, lam: 0.0 * lam,  # psi < r out to overflow
    ], ids=["negated", "shifted", "flat"])
    def test_misoriented_psi_raises(self, flip, monkeypatch):
        monkeypatch.setattr(levyinvest.wiener_hopf, "_psi",
                            flip(levyinvest.wiener_hopf._psi))
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
        (_, se), share = moment_estimate(wh, 0.5)
        assert se == 0.0 and share is None

    def test_exact_diagnostics(self):
        est, share = moment_estimate(exact_factors(BD, R_BD), 1.0, sup=True)
        b = math.sqrt(2.0)
        assert est == (pytest.approx(b / (b - 1.0)), 0.0) and share is None

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_rejected_before_any_pool_pass(self, lam):
        class Untouchable:
            def __getattr__(self, name):
                pytest.fail(f"the pool was read: {name}")

        pooled = WienerHopfFactors(model=KOU, r=R_KOU, pool=Untouchable())
        for factors in (exact_factors(KOU, R_KOU), pooled):
            for moment in (inf_moment, moment_estimate, sup_moment):
                with pytest.raises(DomainError, match="lambda must be finite"):
                    moment(factors, lam)


class TestMonteCarlo:
    def test_mc_matches_exact_inf(self):
        wh_mc = sample_triplet(BD, R_BD, 50000, np.random.default_rng(1))
        wh_ex = exact_factors(BD, R_BD)
        for lam in (0.25, 0.5, 1.0):
            (est, se), _ = moment_estimate(wh_mc, lam)
            assert abs(est - inf_moment(wh_ex, lam)) < 3.5 * se

    @pytest.mark.parametrize("n", [1, 999])
    def test_too_few_draws_rejected_before_any_draw(self, n, monkeypatch):
        # one draw has no SE, and the grid solve and wh-check would warn and report NaN
        monkeypatch.setattr(levyinvest.wiener_hopf, "sample_extrema",
                            lambda *args, **kwargs: pytest.fail("a pool was drawn"))
        with pytest.raises(DomainError, match="replicates"):
            sample_triplet(BD, R_BD, n, np.random.default_rng(7))

    def test_mc_mode_flag_and_size(self):
        wh = sample_triplet(KOU, R_KOU, 5000, np.random.default_rng(2))
        assert not wh.is_exact and wh.pool is not None
        assert len(wh.pool) == 5000

    def test_diagnostics_fields(self):
        wh = sample_triplet(BD, R_BD, 5000, np.random.default_rng(3))
        est, share = moment_estimate(wh, 1.0, sup=True)
        assert isinstance(est, Estimate)
        assert 0 < share <= 1.0
        assert est.se > 0

    def test_sup_moment_overflow_rejected_before_exp(self):
        # at lam = 800 exp(lam M) overflows; just inside the edge every field,
        # the SE's sum of squared deviations included, stays finite (and a
        # RuntimeWarning would fail the suite)
        wh = sample_triplet(KOU, R_KOU, 2000, np.random.default_rng(6))
        with pytest.raises(DomainError, match="overflow"):
            moment_estimate(wh, 800.0, sup=True)
        edge = (math.log(np.finfo(float).max) - math.log(2000)) / (2 * wh.pool.running_max.max())
        est, share = moment_estimate(wh, 0.999 * edge, sup=True)
        assert all(math.isfinite(v) for v in (*est, share))

    def test_identity_residual_within_band(self):
        res, se = wh_identity_residual(sample_triplet(KOU, R_KOU, 50000,
                                                      np.random.default_rng(4)))
        assert se > 0
        assert abs(res) < 3.5 * se

    def test_identity_residual_holds_one_term_block(self):
        # the sup and inf terms share one (2, n) block, centred in place for
        # their covariance: under 2 pool sizes on top of the pool, where
        # separate term arrays and np.cov's stacked copy take 2.5
        factors = sample_triplet(MERTON, 1.0, 100_000, np.random.default_rng(3))
        pool_bytes = factors.pool.terminal.nbytes + factors.pool.running_max.nbytes
        tracemalloc.start()
        try:
            wh_identity_residual(factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * pool_bytes

    def test_identity_needs_subcritical_rate(self):
        with pytest.raises(DomainError):
            wh_identity_residual(sample_triplet(BD, 0.5, 1000, np.random.default_rng(5)))

    def test_identity_residual_needs_mc(self):
        with pytest.raises(UnsupportedModel):
            wh_identity_residual(exact_factors(KOU, R_KOU))
