import numpy as np
import pytest

from levyinvest.errors import ConstructionError
from levyinvest.levy import LevyModel
from levyinvest.profit import (ProfitFunction, ces, check_assumptions, cobb_douglas,
                               evaluate, kappa, log_profit, marginal_profit)

BD = LevyModel.brownian(0.0, np.sqrt(2.0))
STABLE = LevyModel.stable(0.0, 1.5, 0.5)


class TestConstructors:
    def test_cobb_douglas_ranges(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConstructionError):
                cobb_douglas(bad, 0.5)
            with pytest.raises(ConstructionError):
                cobb_douglas(0.5, bad)

    def test_ces_gamma_interval(self):
        for bad in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(ConstructionError):
                ces(0.5, bad)
        assert ces(0.5, 0.5).gamma == 0.5

    def test_unknown_kind_rejected(self):
        # an unknown kind must not fall through to the log formula
        for kind in ("custom", "linear", ""):
            with pytest.raises(ConstructionError) as err:
                ProfitFunction(kind)
            assert err.value.key == "kind"

    def test_hand_built_ranges_enforced(self):
        with pytest.raises(ConstructionError) as err:
            ProfitFunction("ces", alpha=0.5, gamma=2.0)
        assert err.value.key == "gamma"
        assert ProfitFunction("log") == log_profit()

    def test_frozen(self):
        p = cobb_douglas(0.4, 0.3)
        with pytest.raises(AttributeError):
            p.alpha = 0.9


class TestEvaluation:
    # the kernels take log shock and log capacity
    def test_cobb_douglas_values(self):
        p = cobb_douglas(0.5, 0.5)
        assert evaluate(p, np.log(4.0), np.log(9.0)) == pytest.approx(6.0)
        assert marginal_profit(p, np.log(4.0), np.log(9.0)) == pytest.approx(0.5 * 2.0 / 3.0)

    def test_ces_values(self):
        p = ces(0.5, 0.5)
        z, c = 4.0, 9.0
        direct = (0.5 * 2.0 + 0.5 * 3.0) ** 2
        assert evaluate(p, np.log(z), np.log(c)) == pytest.approx(direct)
        eps = 1e-7
        fd = (evaluate(p, np.log(z), np.log(c + eps))
              - evaluate(p, np.log(z), np.log(c - eps))) / (2 * eps)
        assert marginal_profit(p, np.log(z), np.log(c)) == pytest.approx(fd, rel=1e-6)

    def test_log_values(self):
        p = log_profit()
        assert evaluate(p, np.log(2.0), 1.0) == pytest.approx(2.0)
        assert marginal_profit(p, np.log(2.0), np.log(4.0)) == pytest.approx(0.5)

    def test_vectorized(self):
        p = cobb_douglas(0.5, 0.5)
        z = np.array([1.0, 4.0])
        c = np.array([1.0, 9.0])
        assert evaluate(p, np.log(z), np.log(c)) == pytest.approx([1.0, 6.0])

    @pytest.mark.parametrize("p", [cobb_douglas(0.3, 0.6), ces(0.4, 0.7), log_profit()],
                             ids=["cobb_douglas", "ces", "log"])
    def test_log_kernels_match_direct_formulas(self, p):
        z = np.array([0.3, 0.8, 1.0, 2.5, 7.0])
        c = np.array([5.0, 0.2, 1.0, 1.7, 0.6])
        if p.kind == "cobb_douglas":
            pi, pi_c = z ** p.alpha * c ** p.beta, p.beta * z ** p.alpha * c ** (p.beta - 1)
        elif p.kind == "ces":
            g = p.gamma
            pi = (p.alpha * z ** g + (1 - p.alpha) * c ** g) ** (1 / g)
            pi_c = (1 - p.alpha) * c ** (g - 1) * (p.alpha * z ** g + (1 - p.alpha) * c ** g) \
                ** ((1 - g) / g)
        else:
            pi, pi_c = z * np.log(c), z / c
        lz, lc = np.log(z), np.log(c)
        np.testing.assert_allclose(evaluate(p, lz, lc), pi, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(marginal_profit(p, lz, lc), pi_c, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p", [cobb_douglas(0.5, 0.5), ces(0.5, 0.5), log_profit()],
                             ids=["cobb_douglas", "ces", "log"])
    def test_marginal_finite_beyond_float_range(self, p):
        # z = e^800 and c = e^790 overflow a double, their ratio does not
        lz, lc = np.array([800.0, -800.0]), np.array([790.0, -790.0])
        assert np.all(np.isfinite(marginal_profit(p, lz, lc)))
        assert np.all(np.asarray(marginal_profit(p, lz, lc)) > 0.0)

    def test_kappa_values(self):
        assert kappa(cobb_douglas(0.5, 0.5)) == 0.0
        assert kappa(log_profit()) == 0.0
        assert kappa(ces(0.5, 0.5)) == pytest.approx(0.25)
        assert kappa(ces(0.36, 0.5)) == pytest.approx(0.64 ** 2)


class TestAssumptionChecks:
    def test_benchmark_passes(self):
        rep = check_assumptions(cobb_douglas(0.5, 0.5), BD, 2.0,
                                np.random.default_rng(0))
        assert rep.passed
        assert rep["r_exceeds_kappa"].ok
        assert rep["moment_condition"].ok

    def test_ces_rate_gate(self):
        # kappa = (1 - alpha)^(1/gamma) = 0.25; any r <= 0.25 must fail
        p = ces(0.5, 0.5)
        rep = check_assumptions(p, BD, 0.2, np.random.default_rng(1))
        assert not rep.passed
        chk = rep["r_exceeds_kappa"]
        assert not chk.ok
        assert "0.2" in chk.detail and "0.25" in chk.detail

    def test_stable_moment_condition_fails(self):
        rep = check_assumptions(ces(0.5, 0.5), STABLE, 1.0,
                                np.random.default_rng(2))
        assert not rep.passed
        assert not rep["moment_condition"].ok

    def test_supercritical_rate_fails_moment(self):
        # psi(1) = 1 for the benchmark diffusion; r below it breaks the moment gate
        rep = check_assumptions(cobb_douglas(0.5, 0.5), BD, 0.9,
                                np.random.default_rng(3))
        assert not rep["moment_condition"].ok

    def test_report_round_trip(self):
        rep = check_assumptions(log_profit(), BD, 2.0, np.random.default_rng(4))
        d = rep.to_dict()
        assert isinstance(d["checks"], list) and d["passed"] == rep.passed
        names = [c["name"] for c in d["checks"]]
        assert "inada_at_zero" in names and "inada_at_infinity" in names

    def test_integrability_repeats_the_growth_certificate(self):
        # stable has no exponential moments: both growth checks fail, the
        # integrability one only as a warning
        rep = check_assumptions(ces(0.5, 0.5), STABLE, 1.0)
        moment, integ = rep["moment_condition"], rep["discounted_integrability"]
        assert not moment.ok and not integ.ok and integ.severity == "warn"
        assert moment.detail in integ.detail
        assert check_assumptions(log_profit(), BD, 2.0)["discounted_integrability"].ok

    def test_report_draws_nothing(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        rep = check_assumptions(ces(0.5, 0.5), BD, 2.0, rng)
        assert rng.bit_generator.state == state
        assert rep == check_assumptions(ces(0.5, 0.5), BD, 2.0)

    def test_shape_details_state_the_formula(self):
        rep = check_assumptions(ces(0.36, 0.5), BD, 2.0)
        inada = rep["inada_at_infinity"]
        assert inada.ok and "kappa=0.4096" in inada.detail
        assert "alpha=0.36, gamma=0.5 in (0, 1)" in inada.detail
