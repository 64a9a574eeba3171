import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import levyinvest.boundary
import levyinvest.cli
import levyinvest.levy
import levyinvest.policy
import levyinvest.wiener_hopf
from levyinvest.cli import main
from levyinvest.config import load_config
from levyinvest.errors import ConditionViolation, DomainError
from levyinvest.levy import LevyModel, laplace_exponent
from levyinvest.policy import exponential_time_values
from levyinvest.profit import ces, cobb_douglas
from levyinvest.wiener_hopf import _identity_target, exact_factors

FAST_CONFIG = {
    "model": {"family": "brownian_drift", "mu": 0.0, "sigma": 1.4142135623730951},
    "profit": {"kind": "cobb_douglas", "alpha": 0.5, "beta": 0.5},
    "r": 2.0,
    "seed": 11,
    "mc": {"n_paths": 3000, "step": 0.02, "t_max": 2.0},
    "grid": {"u_min": -1.0, "u_max": 1.0, "n": 9},
    "state": {"x": 0.0, "y": 0.05},
    "scales": [0.5, 1.0, 2.0],
}


EXAMPLES = ("brownian_cobb_douglas", "brownian_log", "kou_ces", "merton_cobb_douglas",
            "stable_ces")

# assumptions.json's checks, in report order, with their severities
ASSUMPTION_CHECKS = [
    ("r_exceeds_kappa", "fail"), ("moment_condition", "fail"),
    ("marginal_positive", "fail"), ("marginal_decreasing_in_capacity", "fail"),
    ("marginal_monotone_in_shock", "fail"), ("profit_concave_in_capacity", "fail"),
    ("inada_at_zero", "fail"), ("inada_at_infinity", "fail"),
    ("discounted_integrability", "warn"),
]


def example_path(name):
    return os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.json")


def example(name, **changes):
    """An example config under configs/, with top-level keys replaced."""
    with open(example_path(name), encoding="utf-8") as fh:
        return dict(json.load(fh), **changes)


@pytest.fixture
def pool_calls(monkeypatch):
    """The `workers` argument of every sample_extrema call the policy module makes."""
    seen = []
    original = levyinvest.policy.sample_extrema

    def recording(*args, **kwargs):
        seen.append(kwargs.get("workers"))
        return original(*args, **kwargs)

    monkeypatch.setattr(levyinvest.policy, "sample_extrema", recording)
    return seen


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    return str(path)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestSubcommands:
    def test_boundary_artifacts(self, config_path, tmp_path):
        out = str(tmp_path / "art")
        assert main(["boundary", "--config", config_path, "--out", out]) == 0
        csv_text = read(out + "/boundary.csv")
        assert csv_text.startswith("# config_sha256: ")
        assert "# seed: 11" in csv_text
        header = csv_text.splitlines()[2]
        assert header == "u,b,provenance,se_if_mc"
        assert len(csv_text.splitlines()) == 3 + 9
        doc = json.loads(read(out + "/boundary.json"))
        assert doc["seed"] == 11 and len(doc["u"]) == 9
        assert doc["provenance"] == "generic_solver"

    def test_csv_round_trips_doubles(self, config_path, tmp_path):
        out = str(tmp_path / "art")
        main(["boundary", "--config", config_path, "--out", out])
        doc = json.loads(read(out + "/boundary.json"))
        rows = read(out + "/boundary.csv").splitlines()[3:]
        for row, b_json in zip(rows, doc["b"]):
            cell = row.split(",")[1]
            assert "," not in cell and float(cell) == b_json
            assert re.fullmatch(r"-?[0-9.]+(e[+-]?[0-9]+)?", cell)

    def test_verify_artifact(self, config_path, tmp_path):
        out = str(tmp_path / "art")
        assert main(["verify", "--config", config_path, "--out", out]) == 0
        doc = json.loads(read(out + "/verify.json"))
        assert doc["closed_form_agreement"]["available"]
        assert doc["closed_form_agreement"]["max_rel_err"] < 1e-8
        for point in doc["integral_equation"]:
            assert {"u0", "y", "residual", "se", "ratio"} <= set(point)

    def test_non_finite_residual_has_nan_ratio(self, config_path, tmp_path, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(levyinvest.cli, "integral_equation_residual",
                            lambda *args, **kwargs: (nan, nan))
        monkeypatch.setattr(levyinvest.cli, "wh_identity_residual",
                            lambda *args, **kwargs: (nan, nan))
        out = str(tmp_path / "art")
        assert main(["verify", "--config", config_path, "--out", out]) == 0
        points = json.loads(read(out + "/verify.json"))["integral_equation"]
        assert points and all(math.isnan(p["ratio"]) for p in points)
        assert main(["wh-check", "--config", config_path, "--out", out]) == 0
        assert math.isnan(json.loads(read(out + "/wh_check.json"))["identity"]["ratio"])

    def test_ratio_rule(self):
        assert levyinvest.cli._ratio(1.0, 2.0) == 0.5
        assert levyinvest.cli._ratio(0.0, 0.0) == 0.0
        for res, se in ((float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
                        (1.0, float("inf"))):
            assert math.isnan(levyinvest.cli._ratio(res, se))

    def test_boundary_solver_block(self, config_path, tmp_path):
        out = str(tmp_path / "art")
        assert main(["boundary", "--config", config_path, "--out", out]) == 0
        solver = json.loads(read(out + "/boundary.json"))["solver"]
        assert set(solver) == {"iterations", "max_abs_gap"}
        assert solver["iterations"] > 0 and 0.0 <= solver["max_abs_gap"] < 1e-8

    @pytest.mark.parametrize("model, profit, independent", [
        (FAST_CONFIG["model"], FAST_CONFIG["profit"], True),
        # 1/gamma is no integer: the constant is the generic solver's own root
        (FAST_CONFIG["model"], {"kind": "ces", "alpha": 0.5, "gamma": 0.3}, False),
        # 1/gamma = 2: the binomial reduction on exact moments
        (FAST_CONFIG["model"], {"kind": "ces", "alpha": 0.5, "gamma": 0.5}, True),
        ({"family": "merton", "mu": 0.0, "sigma": 0.3, "jump_intensity": 2.0,
          "jump_mean": -0.05, "jump_sd": 0.2}, FAST_CONFIG["profit"], False),
    ], ids=["exact_cobb_douglas", "exact_ces", "exact_ces_polynomial", "monte_carlo"])
    def test_verify_labels_independence(self, tmp_path, model, profit, independent):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(FAST_CONFIG, model=model, profit=profit, r=1.0)),
                        encoding="utf-8")
        out = str(tmp_path / "art")
        assert main(["verify", "--config", str(path), "--out", out]) == 0
        agreement = json.loads(read(out + "/verify.json"))["closed_form_agreement"]
        assert agreement["independent"] is independent

    @pytest.mark.parametrize("name, commands", [
        ("kou_ces", ("verify", "simulate", "compare")),
        ("merton_cobb_douglas", ("verify", "simulate", "compare")),
        ("stable_ces", ("verify",)),
    ], ids=["kou_ces", "merton_cobb_douglas", "stable_ces"])
    def test_runs_write_no_warning(self, name, commands, tmp_path, capsys):
        # sampled maxima leave every grid, and every table the package builds
        # extrapolates exactly along b(u) = K e^{s u}: nothing to warn about
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for command in commands:
                assert main([command, "--config", example_path(name),
                             "--out", str(tmp_path / command)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_verify_reports_table_se(self, name, tmp_path):
        # Monte Carlo tables carry their own SE at u0 next to the residual's;
        # exact tables have none
        out = str(tmp_path / "art")
        assert main(["verify", "--config", example_path(name), "--out", out]) == 0
        points = json.loads(read(out + "/verify.json"))["integral_equation"]
        assert points
        for point in points:
            if name in ("merton_cobb_douglas", "stable_ces"):
                assert math.isfinite(point["table_se"]) and point["table_se"] > 0.0
            else:
                assert point["table_se"] is None

    @pytest.mark.parametrize("seed", [4, 8, 16, 20])
    def test_stable_verify_residuals_finite(self, seed, tmp_path):
        # at these seeds a sampled stable maximum passes log(DBL_MAX), where
        # exp(u0 + M + I) and the extrapolated b(u0 + M) both overflow; the
        # residual reads them in log coordinates.  Seed 8 sits near -3.2 SE
        # (the table's own error, table_se), so only finiteness is asserted.
        out = str(tmp_path / "art")
        assert main(["verify", "--config", example_path("stable_ces"),
                     "--seed", str(seed), "--out", out]) == 0
        points = json.loads(read(out + "/verify.json"))["integral_equation"]
        assert len(points) == 3
        for point in points:
            assert math.isfinite(point["residual"]) and math.isfinite(point["ratio"])

    def test_wh_check_artifact(self, config_path, tmp_path):
        out = str(tmp_path / "art")
        assert main(["wh-check", "--config", config_path, "--out", out]) == 0
        doc = json.loads(read(out + "/wh_check.json"))
        assert doc["exact"]["roots"] == pytest.approx([-2 ** 0.5, 2 ** 0.5])
        assert doc["mc"]["inf_moment_at_1"]["se"] > 0
        assert "residual" in doc["identity"] and "se" in doc["identity"]

    def test_wh_check_samples_one_pool(self, config_path, tmp_path, monkeypatch):
        calls = []
        original = levyinvest.wiener_hopf.sample_extrema

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(levyinvest.wiener_hopf, "sample_extrema", counting)
        assert main(["wh-check", "--config", config_path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_wh_check_exact_sup_moment_exists(self):
        # wh-check reads E[e^M] at 1 off exact factors only once _identity_target
        # passed: psi is convex with psi(0) = 0 and psi(1) < r, so every rate of
        # M's exponential mixture, a root of psi = r, lies above 1
        models = [LevyModel.brownian(mu, sigma) for mu in (-0.5, 0.0, 0.4)
                  for sigma in (0.1, 1.0, 1.6)]
        models += [LevyModel.kou(mu, 0.2, lam, p_up, eta, 3.0) for mu in (-0.2, 0.1)
                   for lam in (0.5, 4.0) for p_up in (0.2, 0.8) for eta in (1.2, 2.0, 10.0)]
        checked = 0
        for model in models:
            for r in (0.05, 0.3, 1.0, 2.5, 8.0):
                try:
                    _identity_target(model, r)
                except DomainError:
                    continue
                checked += 1
                assert min(exact_factors(model, r).max_rates) > 1.0, (model, r)
        assert checked >= 100

    @pytest.mark.parametrize("name", ["merton_cobb_douglas", "kou_ces"])
    def test_wh_check_identity_is_the_printed_moment_product(self, name, tmp_path):
        assert main(["wh-check", "--config", example_path(name), "--out", str(tmp_path)]) == 0
        doc = json.loads(read(str(tmp_path / "wh_check.json")))
        cfg = load_config(example_path(name))
        target = cfg.r / (cfg.r - laplace_exponent(cfg.model, 1.0))
        product = (doc["mc"]["sup_moment_at_1"]["estimate"]
                   * doc["mc"]["inf_moment_at_1"]["estimate"])
        assert doc["identity"]["residual"] == pytest.approx(product - target, rel=1e-15, abs=0.0)

    def test_simulate_and_compare(self, config_path, tmp_path):
        out = str(tmp_path / "art")
        assert main(["simulate", "--config", config_path, "--out", out]) == 0
        sim = json.loads(read(out + "/simulate.json"))
        assert sim["j_se"] > 0 and sim["tail_bound"] < 1
        assert main(["compare", "--config", config_path, "--out", out]) == 0
        rows = read(out + "/compare.csv").splitlines()
        assert rows[2].split(",")[0] == "scale"
        assert len(rows) == 3 + 3
        cmp_doc = json.loads(read(out + "/compare.json"))
        base = [r for r in cmp_doc["rows"] if r["scale"] == 1.0][0]
        assert sim["j_value"] == base["j_value"]  # same seed, same paths

    def test_check_assumptions_artifact(self, config_path, tmp_path):
        out = str(tmp_path / "art")
        assert main(["check-assumptions", "--config", config_path, "--out", out]) == 0
        doc = json.loads(read(out + "/assumptions.json"))
        assert doc["passed"] is True

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_check_assumptions_on_examples(self, name, tmp_path):
        out = str(tmp_path / "art")
        assert main(["check-assumptions", "--config", example_path(name), "--out", out]) == 0
        doc = json.loads(read(out + "/assumptions.json"))
        checks = doc["checks"]
        assert [(c["name"], c["severity"]) for c in checks] == ASSUMPTION_CHECKS
        assert doc["passed"] is (name != "stable_ces")
        # a stable shock has no exponential moments, so the discounted
        # profit integral is not certified finite either
        integrability = checks[-1]
        assert integrability["ok"] is (name != "stable_ces")
        # every verdict is analytic: no detail quotes a sampled quantity
        for c in checks:
            assert not re.search(r"sampl|Monte Carlo|mean|share", c["detail"]), c


class TestDeterminism:
    def test_rerun_byte_identical(self, config_path, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            main(["simulate", "--config", config_path, "--out", out])
        assert read(a + "/simulate.json") == read(b + "/simulate.json")

    def test_worker_count_byte_identical(self, config_path, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["compare", "--config", config_path, "--out", a, "--workers", "1"])
        main(["compare", "--config", config_path, "--out", b, "--workers", "4"])
        assert read(a + "/compare.csv") == read(b + "/compare.csv")
        assert read(a + "/compare.json") == read(b + "/compare.json")

    def test_stable_pool_ignores_step(self, tmp_path):
        # the stable extrema pool has no time grid, so mc.step feeds only the
        # policy engines; the artifacts differ only in the config's digest
        doc = example("stable_ces")
        digests, artifacts = [], []
        for step in (2e-3, 1e-3):
            path = tmp_path / f"stable_{step}.json"
            path.write_text(json.dumps(dict(doc, mc=dict(doc["mc"], step=step))),
                            encoding="utf-8")
            out = str(tmp_path / f"out_{step}")
            assert main(["boundary", "--config", str(path), "--out", out]) == 0
            digest = json.loads(read(out + "/boundary.json"))["config_sha256"]
            digests.append(digest)
            artifacts.append([read(f"{out}/{name}").replace(digest, "")
                              for name in ("boundary.csv", "boundary.json")])
        assert digests[0] != digests[1]
        assert artifacts[0] == artifacts[1]

    def test_residual_samplers_get_workers(self, tmp_path, monkeypatch):
        # 20000 draws make two chunks, so the pools really run on two workers
        path = tmp_path / "config.json"
        doc = dict(FAST_CONFIG, mc=dict(FAST_CONFIG["mc"], n_paths=20000))
        path.write_text(json.dumps(doc), encoding="utf-8")
        seen = []
        original = levyinvest.levy.sample_extrema

        def recording(*args, **kwargs):
            seen.append(kwargs.get("workers"))
            return original(*args, **kwargs)

        for module in (levyinvest.boundary, levyinvest.wiener_hopf):
            monkeypatch.setattr(module, "sample_extrema", recording)
        verify = {}
        for workers in (1, 2):
            seen.clear()
            out = str(tmp_path / f"w{workers}")
            for command in ("verify", "wh-check"):
                assert main([command, "--config", str(path), "--out", out,
                             "--workers", str(workers)]) == 0
            assert seen and set(seen) == {workers}
            verify[workers] = read(out + "/verify.json")
        assert verify[1] == verify[2]

    # every number of wh_check.json at the config's seed, as float.hex: the exact
    # roots and moments (None without exact factors), the Monte Carlo inf moment
    # and SE, sup moment, SE and max_term_share, and the identity residual, SE, ratio
    WH_PINS = {
        "kou_ces": (
            ["-0x1.c0e8df3353534p+3", "-0x1.621380290befcp+2", "0x1.5c397483997a3p+1",
             "0x1.7ae44226f2ecap+3", "0x1.bd3ece8bdb5cbp-1", "0x1.8debe75209178p+0"],
            ["0x1.bd131f8c4337fp-1", "0x1.cb3c2b21c621fp-11", "0x1.8e8b53a78029cp+0",
             "0x1.ee58bb03f5a76p-8", "0x1.b5b41707b7261p-10"],
            ["0x1.a2892b869fc00p-10", "0x1.b762b2a132d74p-8", "0x1.e7b45f7552c27p-3"],
        ),
        "merton_cobb_douglas": (
            None,
            ["0x1.85c77ce1cc6fap-1", "0x1.770a92f15704bp-10", "0x1.4b09ca8264228p+0",
             "0x1.973319a842ecbp-9", "0x1.30cabcf8d2cbfp-11"],
            ["-0x1.b134df7b6a400p-10", "0x1.8cd7a5bd6c46dp-9", "-0x1.17754f8932655p-1"],
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(WH_PINS))
    def test_wh_check_pinned_bit_for_bit(self, name, workers, tmp_path):
        assert main(["wh-check", "--config", example_path(name), "--out", str(tmp_path),
                     "--workers", str(workers)]) == 0
        doc = json.loads(read(str(tmp_path / "wh_check.json")))
        exact, mc, identity = doc["exact"], doc["mc"], doc["identity"]
        if exact is not None:
            exact = [v.hex() for v in (*exact["roots"], exact["inf_moment_at_1"],
                                       exact["sup_moment_at_1"])]
        inf, sup = mc["inf_moment_at_1"], mc["sup_moment_at_1"]
        moments = [v.hex() for v in (inf["estimate"], inf["se"], sup["estimate"], sup["se"],
                                     sup["max_term_share"])]
        check = [identity[key].hex() for key in ("residual", "se", "ratio")]
        assert (exact, moments, check) == tuple(self.WH_PINS[name])

    def test_seed_override_changes_results(self, config_path, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", config_path, "--out", a])
        main(["simulate", "--config", config_path, "--out", b, "--seed", "99"])
        da = json.loads(read(a + "/simulate.json"))
        db = json.loads(read(b + "/simulate.json"))
        assert da["j_value"] != db["j_value"]
        assert db["seed"] == 99


class TestPolicyEngine:
    # kou_ces: psi(2) = 0.32 < r = 0.5; merton_cobb_douglas: 0.14 < 1;
    # FAST_CONFIG: 4 >= 2; brownian_log: 1.8 >= 1; kou_ces with
    # eta_plus = 1.5 has no exponential moment at 2
    @pytest.mark.parametrize("doc, engine", [
        (example("kou_ces"), "exponential_time"),
        (example("merton_cobb_douglas"), "exponential_time"),
        (FAST_CONFIG, "stepped"),
        (example("brownian_log", mc=FAST_CONFIG["mc"]), "stepped"),
        (example("kou_ces", mc=FAST_CONFIG["mc"], r=1.5,
                 model=dict(example("kou_ces")["model"], eta_plus=1.5)), "stepped"),
    ], ids=["kou_ces", "merton_cobb_douglas", "fast", "brownian_log", "kou_no_moment"])
    def test_routing_and_simulate_is_compare_base(self, doc, engine, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = str(tmp_path / "art")
        for command in ("simulate", "compare"):
            assert main([command, "--config", str(path), "--out", out]) == 0
        sim = json.loads(read(out + "/simulate.json"))
        cmp_doc = json.loads(read(out + "/compare.json"))
        assert sim["engine"] == cmp_doc["engine"] == engine
        base = [r for r in cmp_doc["rows"] if r["scale"] == 1.0][0]
        assert sim["j_value"] == base["j_value"] and sim["j_se"] == base["j_se"]
        assert sim["step"] == cmp_doc["step"] > 0 and sim["t_max"] == cmp_doc["t_max"] > 0
        assert (sim["tail_bound"] == 0.0) is (engine == "exponential_time")

    def test_exponential_time_worker_count_byte_identical(self, tmp_path, pool_calls):
        # 20000 draws make two chunks, so the pool really runs on two workers
        path = tmp_path / "config.json"
        path.write_text(json.dumps(example("kou_ces", mc=dict(n_paths=20000))),
                        encoding="utf-8")
        outs = []
        for workers in (1, 2):
            out = str(tmp_path / f"w{workers}")
            assert main(["compare", "--config", str(path), "--out", out,
                         "--workers", str(workers)]) == 0
            outs.append([read(f"{out}/{name}") for name in ("compare.csv", "compare.json")])
        assert pool_calls == [1, 2]
        assert outs[0] == outs[1]
        assert json.loads(outs[0][1])["engine"] == "exponential_time"

    KOU = LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
    # b(u) = e^u: a two-point table continues its log-slope 1 beyond the grid
    EXP = levyinvest.boundary.BoundaryTable(grid=[-1.0, 1.0], values=[math.exp(-1.0), math.e],
                                            provenance="exp")
    CALL = dict(p=ces(0.5, 0.5), model=KOU, r=0.5, b=EXP, x=0.0, y=0.02,
                scales=[0.5, 2.0], n_paths=2000)

    @pytest.mark.parametrize("change, error", [
        ({}, None),
        ({"y": 0.0}, DomainError),
        ({"y": -1.0}, DomainError),
        ({"n_paths": 999}, DomainError),
        ({"scales": [0.5, 0.0]}, DomainError),
        ({"scales": [-2.0]}, DomainError),
        ({"scales": [0.5, math.nan]}, DomainError),
        ({"scales": [math.inf]}, DomainError),
        # no growth certificate: stable has no exponential moments
        ({"model": LevyModel.stable(0.0, 1.5, 0.5)}, ConditionViolation),
        # no variance certificate: psi(2) = 4 >= r = 2 for lam = 1 ...
        ({"model": LevyModel.brownian(0.0, 2 ** 0.5), "r": 2.0,
          "p": cobb_douglas(0.5, 0.5)}, ConditionViolation),
        # ... and a kou exponent 2 lam = 2 beyond eta_plus = 1.5
        ({"model": LevyModel.kou(0.0, 0.2, 1.0, 0.4, 1.5, 6.0), "r": 2.0},
         ConditionViolation),
    ], ids=["valid", "y_zero", "y_negative", "few_paths", "scale_zero", "scale_negative",
            "scale_nan", "scale_inf", "no_growth_certificate", "brownian_variance",
            "kou_beyond_moment"])
    def test_exponential_time_rejects_before_sampling(self, change, error, pool_calls):
        call = dict(self.CALL, rng=np.random.default_rng(3), **change)
        if error is None:  # the recording patch sees a valid call
            exponential_time_values(**call)
            assert pool_calls == [1]
        else:
            with pytest.raises(error):
                exponential_time_values(**call)
            assert pool_calls == []


class TestErrorHandling:
    def test_invalid_config_exits_one_with_json(self, tmp_path, capsys):
        bad = dict(FAST_CONFIG, r=-1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        rc = main(["boundary", "--config", str(path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["key"] == "r"

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_override_range(self, seed, config_path, capsys):
        rc = main(["boundary", "--config", config_path, "--seed", str(seed)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["error"]["key"] == "seed"

    def test_missing_file_exits_one(self, capsys):
        rc = main(["boundary", "--config", "/nonexistent/cfg.json"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"

    def test_module_error_reported(self, tmp_path, capsys):
        # CES with r below the marginal-profit floor: boundary cannot bracket
        doc = dict(FAST_CONFIG,
                   profit={"kind": "ces", "alpha": 0.5, "gamma": 0.5}, r=0.2)
        path = tmp_path / "low_rate.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["boundary", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] in ("BracketFailure", "DomainError")

    @pytest.mark.parametrize("command, error_type", [
        ("simulate", "ConditionViolation"), ("compare", "ConditionViolation"),
        ("wh-check", "DomainError")])
    def test_infeasible_input_rejected_before_work(self, command, error_type,
                                                   tmp_path, capsys, monkeypatch):
        # the stable family has no exponential moments: no growth certificate
        # for the policy engines and no psi(1) for the factorization identity
        doc = dict(FAST_CONFIG,
                   model={"family": "symmetric_stable", "mu": 0.0,
                          "stable_index": 1.5, "stable_scale": 0.5})
        path = tmp_path / "stable.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def expensive(*args, **kwargs):
            raise AssertionError("expensive work started before the feasibility check")

        for module in (levyinvest.cli, levyinvest.boundary):
            monkeypatch.setattr(module, "solve_boundary_grid", expensive)
        for module in (levyinvest.levy, levyinvest.wiener_hopf, levyinvest.boundary,
                       levyinvest.policy):
            monkeypatch.setattr(module, "sample_extrema", expensive)
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == error_type

    @pytest.mark.parametrize("n_paths", [1, 999])
    @pytest.mark.parametrize("command", ["boundary", "verify", "wh-check", "simulate",
                                         "compare"])
    def test_too_few_replicates_rejected_before_work(self, command, n_paths, tmp_path,
                                                     capsys, monkeypatch):
        doc = dict(FAST_CONFIG, mc=dict(FAST_CONFIG["mc"], n_paths=n_paths))
        path = tmp_path / "few.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def expensive(*args, **kwargs):
            raise AssertionError("work started before the replicate count was checked")

        for name in ("exact_factors", "sample_triplet", "solve_boundary_grid"):
            monkeypatch.setattr(levyinvest.cli, name, expensive)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValidationError" and error["key"] == "mc.n_paths"
        assert not out.exists()

    @pytest.mark.parametrize("model, r", [
        ({"family": "symmetric_stable", "mu": 0.0, "stable_index": 1.5,
          "stable_scale": 0.5}, 2.0),
        (FAST_CONFIG["model"], 0.9)])  # psi(1) = 1 > r
    def test_moment_condition_detail_is_simulate_error(self, model, r, tmp_path, capsys):
        path = tmp_path / "no_certificate.json"
        path.write_text(json.dumps(dict(FAST_CONFIG, model=model, r=r)), encoding="utf-8")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", str(path), "--out", out]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConditionViolation"
        assert main(["check-assumptions", "--config", str(path), "--out", out]) == 0
        checks = json.loads(read(out + "/assumptions.json"))["checks"]
        check = next(c for c in checks if c["name"] == "moment_condition")
        assert (check["ok"], check["severity"]) == (False, "fail")
        assert check["detail"] == error["message"]

    @pytest.mark.parametrize("under_a_file", [False, True])
    def test_unusable_out_is_a_json_error(self, under_a_file, tmp_path, capsys, monkeypatch):
        # --out naming a regular file, or a path under one, fails before any work
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = str(blocker / "o" if under_a_file else blocker)

        def expensive(*args, **kwargs):
            raise AssertionError("work started before the output directory was made")

        for name in ("exact_factors", "sample_triplet", "solve_boundary_grid"):
            monkeypatch.setattr(levyinvest.cli, name, expensive)
        assert main(["boundary", "--config", example_path("kou_ces"), "--out", out]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and captured.err == ""
        error = json.loads(lines[0])["error"]
        assert (error["type"], error["key"]) == ("ValidationError", "outputs")
        assert repr(out) in error["message"]

    def test_verify_u0_past_float_range_rejected_before_sampling(self, tmp_path, capsys,
                                                                 monkeypatch):
        # log b(800) is about 799.4 on brownian_log: b(u0) overflows, and "y"
        # would be written as Infinity, which is not JSON
        path = tmp_path / "far.json"
        path.write_text(json.dumps(example("brownian_log", verify={"u0": [0.0, 800.0]})),
                        encoding="utf-8")

        def expensive(*args, **kwargs):
            raise AssertionError("a residual pool was drawn before b(u0) was checked")

        monkeypatch.setattr(levyinvest.cli, "integral_equation_residual", expensive)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["verify", "--config", str(path), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ValidationError" and error["key"] == "verify.u0[1]"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "wh-check"])
    def test_rejected_run_leaves_no_directory(self, command, tmp_path, capsys):
        # the handler rejects stable_ces after main made --out and its missing parent
        out = tmp_path / "a" / "b"
        assert main([command, "--config", example_path("stable_ces"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1 and captured.err == ""
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_artifact_is_a_json_error(self, config_path, tmp_path, capsys):
        # a directory where boundary.json goes: no traceback, the run takes back
        # the boundary.csv it wrote, and what was there before it stays
        out = tmp_path / "o"
        (out / "boundary.json").mkdir(parents=True)
        assert main(["boundary", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and captured.err == ""
        error = json.loads(lines[0])["error"]
        assert (error["type"], error["key"]) == ("ValidationError", "outputs")
        assert error["message"].startswith(f"cannot write {str(out / 'boundary.json')!r}: ")
        assert [p.name for p in out.iterdir()] == ["boundary.json"]

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2

    def test_console_entry_point(self, config_path, tmp_path):
        cp = subprocess.run(
            [sys.executable, "-m", "levyinvest.cli", "boundary",
             "--config", config_path, "--out", str(tmp_path / "cli")],
            capture_output=True, text=True)
        assert cp.returncode == 0
