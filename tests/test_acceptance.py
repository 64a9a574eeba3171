"""Acceptance gate: one test (and one printed PASS line) per criterion.

Every Monte Carlo criterion runs at a pinned seed so the suite is
reproducible; the estimators themselves are unbiased, and the statistical
bands (3 standard errors unless stated otherwise) are the acceptance
tolerances, not tuned numbers.  Runtime ceilings are asserted as part of
each criterion.
"""

import json
import time

import numpy as np
import pytest

from levyinvest.boundary import (BoundaryTable, ces_boundary_constant,
                                 ces_polynomial_constant, closed_form_boundary_table,
                                 integral_equation_residual, solve_boundary_grid,
                                 solve_boundary_point)
from levyinvest.cli import main as cli_main
from levyinvest.errors import BracketFailure
from levyinvest.levy import LevyModel, laplace_exponent
from levyinvest.policy import StoppingRule, compare_policies, foc_residuals, stopping_value
from levyinvest.profit import ces, check_assumptions, cobb_douglas, log_profit
from levyinvest.wiener_hopf import (exact_factors, inf_moment, moment_estimate,
                                    sample_triplet, wh_identity_residual)

BD = LevyModel.brownian(0.0, np.sqrt(2.0))
R_BD = 2.0
KOU = LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
R_KOU = 0.5
CD = cobb_douglas(0.5, 0.5)
CES = ces(0.5, 0.5)
N_BIG = 100_000


@pytest.fixture(scope="module")
def wh_bd():
    return exact_factors(BD, R_BD)


@pytest.fixture(scope="module")
def wh_kou():
    return exact_factors(KOU, R_KOU)


@pytest.fixture(scope="module")
def cd_table(wh_bd):
    return closed_form_boundary_table(CD, wh_bd, -2.0, 2.0, 41)


def test_criterion_01_wiener_hopf_identity():
    t0 = time.time()
    rng = np.random.default_rng(1)
    res_bd, se_bd = wh_identity_residual(sample_triplet(BD, R_BD, N_BIG, rng))
    res_kou, se_kou = wh_identity_residual(sample_triplet(KOU, R_KOU, N_BIG, rng))
    elapsed = time.time() - t0
    assert abs(res_bd) <= 3 * se_bd, \
        f"diffusion identity off by {res_bd / se_bd:.2f} SE"
    assert abs(res_kou) <= 3 * se_kou, \
        f"double-exponential identity off by {res_kou / se_kou:.2f} SE"
    assert laplace_exponent(KOU, 1.0) < R_KOU
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, limit 60s"
    print(f"\nCRITERION 1 PASS - factorization identity: diffusion "
          f"{res_bd / se_bd:+.2f} SE, jump model {res_kou / se_kou:+.2f} SE "
          f"(n={N_BIG}, {elapsed:.1f}s)")


def test_criterion_02_exact_factor_oracle(wh_bd, wh_kou):
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for exact, model, r in ((wh_bd, BD, R_BD), (wh_kou, KOU, R_KOU)):
        mc = sample_triplet(model, r, N_BIG, rng)
        for lam in (0.25, 0.5, 1.0):
            (est, se), _ = moment_estimate(mc, lam)
            z = (est - inf_moment(exact, lam)) / se
            worst = max(worst, abs(z))
            assert abs(z) <= 3.0, \
                f"{model.family.value} inf-moment at lam={lam}: {z:+.2f} SE"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s, limit 60s"
    print(f"CRITERION 2 PASS - infimum moments vs exact factors: worst "
          f"|z| = {worst:.2f} SE over both families x lam grid "
          f"(n={N_BIG}, {elapsed:.1f}s)")


def test_criterion_03_cobb_douglas_closed_form(wh_bd):
    t0 = time.time()
    solved = solve_boundary_grid(CD, wh_bd, -2.0, 2.0, 21)
    closed = closed_form_boundary_table(CD, wh_bd, -2.0, 2.0, 21)
    rel = np.abs(np.asarray(solved.values) - closed.values) / closed.values
    assert rel.max() < 1e-8, f"exact-mode max rel err {rel.max():.2e}"

    pool = sample_triplet(BD, R_BD, N_BIG, np.random.default_rng(3))
    mc_tab = solve_boundary_grid(CD, pool, -2.0, 2.0, 21)
    zs = (np.asarray(mc_tab.values) - closed.values) / np.asarray(mc_tab.ses)
    assert np.abs(zs).max() <= 3.0, f"MC-mode worst |z| = {np.abs(zs).max():.2f} SE"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"CRITERION 3 PASS - separable-profit closed form: exact-mode rel err "
          f"{rel.max():.1e} (< 1e-8), MC-mode worst |z| = {np.abs(zs).max():.2f} SE "
          f"({elapsed:.1f}s)")


def test_criterion_04_ces_constant(wh_bd):
    t0 = time.time()
    k = ces_boundary_constant(CES, wh_bd)
    solved = solve_boundary_grid(CES, wh_bd, -1.0, 1.0, 11)
    ratios = np.asarray(solved.values) / np.exp(np.asarray(solved.grid))
    rel = np.abs(ratios - k) / k
    assert rel.max() < 1e-8, f"generic-vs-constant rel err {rel.max():.2e}"

    k_poly = ces_polynomial_constant(0.5, 2, [inf_moment(wh_bd, 0.5)], R_BD)
    rel_poly = abs(k_poly - k) / k
    assert rel_poly < 1e-8, f"polynomial-route rel err {rel_poly:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"CRITERION 4 PASS - CES proportional boundary: generic/constant rel "
          f"err {rel.max():.1e}, half-power polynomial rel err {rel_poly:.1e} "
          f"({elapsed:.1f}s)")


def test_criterion_05_integral_equation(wh_bd, cd_table):
    t0 = time.time()
    rng = np.random.default_rng(5)
    ces_table = closed_form_boundary_table(CES, wh_bd, -2.0, 2.0, 41)
    worst = 0.0
    for name, prof, table in (("separable", CD, cd_table),
                              ("ces", CES, ces_table)):
        for u0 in (0.5, 1.0, 2.0):
            res, se = integral_equation_residual(table, prof, BD, R_BD, u0,
                                                 N_BIG, rng)
            z = res / se
            worst = max(worst, abs(z))
            assert abs(z) <= 3.0, f"{name} boundary at u0={u0}: {z:+.2f} SE"
    doubled = BoundaryTable(grid=cd_table.grid,
                            values=2.0 * np.asarray(cd_table.values),
                            provenance="scaled")
    res2, se2 = integral_equation_residual(doubled, CD, BD, R_BD, 1.0, N_BIG, rng)
    assert res2 < -3.0 * se2, f"doubled boundary not rejected: {res2 / se2:+.2f} SE"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s, limit 120s"
    print(f"CRITERION 5 PASS - integral equation: worst true-boundary |z| = "
          f"{worst:.2f} SE, doubled boundary rejected at {res2 / se2:+.0f} SE "
          f"(n={N_BIG}, {elapsed:.1f}s)")


def test_criterion_06_boundary_shape(wh_bd):
    t0 = time.time()
    ratios = {}
    for prof, label in ((CD, "separable"), (CES, "ces"), (log_profit(), "log")):
        coarse = solve_boundary_grid(prof, wh_bd, -2.0, 2.0, 21)
        fine = solve_boundary_grid(prof, wh_bd, -2.0, 2.0, 41)
        for tab in (coarse, fine):
            vals = np.asarray(tab.values)
            assert (vals > 0).all(), f"{label}: nonpositive boundary value"
            assert (np.diff(vals) >= -1e-12 * vals[:-1]).all(), \
                f"{label}: boundary not nondecreasing"
        gap_c = np.diff(np.log(np.asarray(coarse.values))).max()
        gap_f = np.diff(np.log(np.asarray(fine.values))).max()
        ratio = gap_f / gap_c
        ratios[label] = ratio
        assert 0.4 <= ratio <= 0.6, f"{label}: log-gap ratio {ratio:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    shown = ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
    print(f"CRITERION 6 PASS - boundary shape: positive, nondecreasing; "
          f"halved spacing log-gap ratios {shown} (target [0.4, 0.6], "
          f"{elapsed:.1f}s)")


def test_criterion_07_policy_optimality(cd_table):
    t0 = time.time()
    result = compare_policies(CD, BD, R_BD, cd_table, 0.0, 0.05,
                              [0.5, 0.8, 1.25, 2.0], N_BIG,
                              np.random.default_rng(21), step=5e-3)
    stats = {}
    for row in result.rows:
        if row.scale == 1.0:
            continue
        t_val = row.base_minus_this / row.base_minus_this_se
        stats[row.scale] = t_val
        assert row.base_minus_this >= -3.0 * row.base_minus_this_se, \
            f"scale {row.scale} beats the solved boundary by {-t_val:.1f} SE"
    assert stats[2.0] > 3.0, \
        f"doubled boundary not strictly worse: {stats[2.0]:+.1f} SE"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s, limit 300s"
    shown = ", ".join(f"c={s}: {t:+.0f}" for s, t in sorted(stats.items()))
    print(f"CRITERION 7 PASS - policy optimality, paired t-statistics of "
          f"J(b) - J(c b): {shown} (n={N_BIG}, {elapsed:.1f}s)")


def test_criterion_08_stopping_value(cd_table):
    t0 = time.time()
    bx = float(cd_table(0.0))
    n = 30_000
    kwargs = dict(step=5e-3, t_max=10.0)

    v_in, se_in = stopping_value(CD, BD, R_BD, cd_table, 0.0, 0.5 * bx, n,
                                 np.random.default_rng(31), **kwargs)
    assert v_in == 1.0 and se_in == 0.0, "inside the investment region v != 1"

    def value(x0, mult):
        return stopping_value(CD, BD, R_BD, cd_table, x0, mult * bx, n,
                              np.random.default_rng(31), **kwargs)

    # (x, y) = (0, 2 b(0)) sits on both grids below: computed once, used thrice
    v2, se2 = value(0.0, 2.0)
    assert v2 < 1.0 - 3.0 * se2, f"v at y=2b(x) only {(1 - v2) / se2:.1f} SE below 1"

    y_grid = [value(0.0, 1.5), (v2, se2), value(0.0, 3.0)]
    for (va, sa), (vb, sb) in zip(y_grid, y_grid[1:]):
        assert vb <= va + 3.0 * np.hypot(sa, sb), "v not nonincreasing in y"

    x_grid = [value(-0.5, 2.0), (v2, se2), value(0.5, 2.0)]
    for (va, sa), (vb, sb) in zip(x_grid, x_grid[1:]):
        assert vb >= va - 3.0 * np.hypot(sa, sb), "v not nondecreasing in x"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s, limit 120s"
    ys = " > ".join(f"{v:.4f}" for v, _ in y_grid)
    xs = " < ".join(f"{v:.4f}" for v, _ in x_grid)
    print(f"CRITERION 8 PASS - stopping value: v=1 exactly inside; at y=2b(x) "
          f"v={v2:.4f} ({(1 - v2) / se2:.0f} SE below 1); y-grid {ys}; "
          f"x-grid {xs} (n={n}, {elapsed:.1f}s)")


def test_criterion_09_foc_residuals(cd_table):
    t0 = time.time()
    bx = float(cd_table(0.0))
    rules = (StoppingRule.fixed(0.0), StoppingRule.fixed(0.5),
             StoppingRule.fixed(2.0), StoppingRule.hit_above(0.3),
             StoppingRule.hit_below(-0.4))
    rep = foc_residuals(CD, BD, R_BD, cd_table, 0.0, bx, rules, 30_000,
                        np.random.default_rng(23), step=2.5e-3)
    worst = -np.inf
    for entry in rep.entries:
        z = entry.supergradient / entry.se if entry.se > 0 else 0.0
        worst = max(worst, z)
        assert entry.supergradient <= 3.0 * entry.se, \
            f"rule {entry.rule.label()}: supergradient {z:+.2f} SE > +3 SE"
    slack_z = rep.slackness / rep.slackness_se
    assert abs(slack_z) <= 3.0, f"slackness off by {slack_z:+.2f} SE"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.1f}s, limit 120s"
    print(f"CRITERION 9 PASS - first-order conditions: max supergradient "
          f"{worst:+.2f} SE (bound +3), slackness {slack_z:+.2f} SE "
          f"(n={rep.n_paths}, {elapsed:.1f}s)")


def test_criterion_10_assumption_gate():
    t0 = time.time()
    # kappa = (1 - alpha)^(1/gamma) = 0.25 for alpha = gamma = 1/2
    for r_low in (0.2, 0.25):
        report = check_assumptions(CES, BD, r_low)
        assert not report.passed
        gate = report["r_exceeds_kappa"]
        assert not gate.ok
        assert repr(r_low) in gate.detail and "0.25" in gate.detail
        with pytest.raises(BracketFailure):
            solve_boundary_point(CES, exact_factors(BD, r_low), 0.0)
    elapsed = time.time() - t0
    print(f"CRITERION 10 PASS - assumption gate: rates 0.2 and 0.25 rejected "
          f"with the marginal-profit floor 0.25 cited, and the point solver "
          f"raises BracketFailure ({elapsed:.1f}s)")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    config = {
        "model": {"family": "kou", "mu": 0.1, "sigma": 0.2, "jump_intensity": 1.0,
                  "p_up": 0.5, "eta_plus": 10.0, "eta_minus": 10.0},
        "profit": {"kind": "cobb_douglas", "alpha": 0.5, "beta": 0.5},
        "r": 0.5,
        "seed": 404,
        "mc": {"n_paths": 4000, "step": 0.05, "t_max": 8.0},
        "grid": {"u_min": -1.0, "u_max": 1.0, "n": 9},
        "state": {"x": 0.0, "y": 0.2},
        "scales": [0.5, 1.0, 2.0],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")

    def run(sub, out, workers):
        rc = cli_main([sub, "--config", str(cfg), "--out", str(tmp_path / out),
                       "--workers", str(workers)])
        assert rc == 0, f"{sub} failed"

    checked = []
    for sub, files in (("boundary", ("boundary.csv", "boundary.json")),
                       ("compare", ("compare.csv", "compare.json")),
                       ("wh-check", ("wh_check.json",))):
        run(sub, "a", 1)
        run(sub, "b", 1)
        run(sub, "c", 4)
        for name in files:
            base = (tmp_path / "a" / name).read_bytes()
            assert base == (tmp_path / "b" / name).read_bytes(), \
                f"{name}: rerun differs"
            assert base == (tmp_path / "c" / name).read_bytes(), \
                f"{name}: 4-worker run differs"
            checked.append(name)
    elapsed = time.time() - t0
    print(f"CRITERION 11 PASS - determinism: {len(checked)} artifacts "
          f"byte-identical across reruns and 1 vs 4 workers "
          f"({', '.join(sorted(set(checked)))}; {elapsed:.1f}s)")
