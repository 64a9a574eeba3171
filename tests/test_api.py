import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import levyinvest

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(levyinvest.__path__))


def test_package_exports_resolve():
    missing = [name for name in levyinvest.__all__ if not hasattr(levyinvest, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"levyinvest.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


EXACT_MODE_WITHOUT_LAPACK = """
import math, sys
import numpy.linalg

def refuse(*args, **kwargs):
    raise AssertionError("exact mode called an eigenvalue routine")

for name in ("eigvals", "eigvalsh", "eig", "eigh"):
    setattr(numpy.linalg, name, refuse)
import levyinvest as lv
from levyinvest.cli import main

kou = lv.LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
lv.exact_factors(lv.LevyModel.brownian(0.0, math.sqrt(2.0)), 2.0)
factors = lv.exact_factors(kou, 0.5)
lv.solve_boundary_grid(lv.ces(0.5, 0.5), factors, -1.0, 1.0, 5)
lv.closed_form_boundary_table(lv.ces(0.5, 0.5), factors, -1.0, 1.0, 5)
assert main(["boundary", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "numpy.polynomial" not in sys.modules
"""


def test_import_does_not_load_scipy(tmp_path):
    # nor the thread pool and the logging it imports, loaded only for --workers > 1
    code = ("import levyinvest, levyinvest.cli, sys; assert 'scipy' not in sys.modules; "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert 'logging' not in sys.modules")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    # exact mode runs on a fixed Gauss-Laguerre table and pole brackets:
    # no numpy.polynomial, and no LAPACK eigenvalue routine
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "kou_ces.json")
    cp = subprocess.run([sys.executable, "-c", EXACT_MODE_WITHOUT_LAPACK, config,
                         str(tmp_path / "out")], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_policy_steps_paths_in_one_place():
    import levyinvest.policy
    assert inspect.getsource(levyinvest.policy).count("_increment(") == 1


def test_policy_reads_the_table_in_one_place():
    # the forward pass hands log b to the accumulators; none of them holds b
    import levyinvest.policy
    assert not hasattr(levyinvest.policy, "_Seen")
    assert "self.b" not in inspect.getsource(levyinvest.policy)


def test_policy_capacity_in_one_place():
    # the forward pass forms C and its investment; the accumulators only integrate
    import levyinvest.policy as policy
    for acc in (policy._Value, policy._FirstHits):
        assert not hasattr(acc, "reflect")
        assert "reflect" not in inspect.signature(acc).parameters
        source = inspect.getsource(acc)
        assert "np.maximum(" not in source and "np.exp(" not in source
        assert not re.search(r"self\.(lc|c|ly)\b", source)


def test_extrema_sampled_in_one_place():
    import levyinvest.wiener_hopf
    assert inspect.getsource(levyinvest.wiener_hopf).count("sample_extrema(") == 1
    assert "sample_extrema(" in inspect.getsource(levyinvest.wiener_hopf.sample_triplet)


def test_extrapolation_reported_from_boundary_alone():
    import levyinvest.policy
    source = inspect.getsource(levyinvest.policy)
    assert not any(name in source for name in ("import warnings", "catch_warnings",
                                                "simplefilter"))


def test_root_search_in_one_place():
    import levyinvest.boundary
    import levyinvest.wiener_hopf
    for module in (levyinvest.boundary, levyinvest.wiener_hopf):
        tree = ast.parse(inspect.getsource(module))
        assert not any(isinstance(node, ast.While) for node in ast.walk(tree))
    assert not hasattr(levyinvest.boundary, "_log_roots")


def test_family_branches_in_one_place():
    import levyinvest.cli
    import levyinvest.wiener_hopf as wh
    from levyinvest.levy import Family
    cli_source = inspect.getsource(levyinvest.cli)
    assert "Family" not in cli_source
    assert not any(f'"{member.value}"' in cli_source for member in Family)
    branches = inspect.getsource(wh._exponential_jumps).count("Family.")
    assert branches > 0 and inspect.getsource(wh).count("Family.") == branches


def test_stable_draw_without_sin_or_cos():
    # the Chambers-Mallows-Stuck draw runs on tangents, logs and one exp
    import levyinvest.levy
    assert not hasattr(levyinvest.levy, "_stable_standard")
    source = inspect.getsource(levyinvest.levy)
    assert "np.sin(" not in source and "np.cos(" not in source


def test_moments_in_one_place():
    # E[e^{lam M}] and E[e^{lam I}] come from wiener_hopf._moment alone
    import levyinvest.wiener_hopf as wh
    assert not any(hasattr(wh, name) for name in ("_mixture_moment", "sup_moment_with_se"))
    assert not hasattr(levyinvest, "sup_moment_with_se")
    assert inspect.getsource(wh).count("np.exp(") == 1
    assert "np.exp(" in inspect.getsource(wh._moment)


def test_artifacts_written_in_one_place():
    # subcommands return {file name: text}; main alone creates the rng and opens files
    import levyinvest.cli as cli
    source = inspect.getsource(cli)
    assert source.count("open(") == 1 and "open(" in inspect.getsource(cli.main)
    assert source.count("default_rng(") == 1
    assert not any(hasattr(cli, name) for name in ("_dump_json", "_dump_csv", "_identity",
                                                    "_SUBCOMMANDS"))
    for handler in cli._HANDLERS.values():
        assert list(inspect.signature(handler).parameters) == ["cfg", "rng", "workers"]


ESTIMATORS = {
    "marginal_gap_exact": lambda f: levyinvest.marginal_gap(f.cd, f.exact, 0.0, 1.0),
    "marginal_gap_mc": lambda f: levyinvest.marginal_gap(f.cd, f.mc, 0.0, 1.0),
    "integral_equation_residual": lambda f: levyinvest.integral_equation_residual(
        f.table, f.cd, f.bd, 2.0, 0.0, 1000, f.rng()),
    "wh_identity_residual": lambda f: levyinvest.wh_identity_residual(f.mc),
    # y below b(0) returns before any path; twice b(0) steps the paths
    "stopping_value_at_once": lambda f: levyinvest.stopping_value(
        f.cd, f.bd, 2.0, f.table, 0.0, 1e-3, 1000, f.rng(), step=0.1, t_max=1.0),
    "stopping_value_stepped": lambda f: levyinvest.stopping_value(
        f.cd, f.bd, 2.0, f.table, 0.0, 2.0 * float(f.table(0.0)), 1000, f.rng(),
        step=0.1, t_max=1.0),
    "moment_inf_exact": lambda f: levyinvest.moment_estimate(f.exact, 0.5)[0],
    "moment_sup_exact": lambda f: levyinvest.moment_estimate(f.exact, 0.5, sup=True)[0],
    "moment_inf_mc": lambda f: levyinvest.moment_estimate(f.mc, 0.5)[0],
    "moment_sup_mc": lambda f: levyinvest.moment_estimate(f.mc, 0.5, sup=True)[0],
}


@pytest.fixture(scope="module")
def estimator_inputs():
    import types

    import numpy as np

    bd, cd = levyinvest.LevyModel.brownian(0.0, 2 ** 0.5), levyinvest.cobb_douglas(0.5, 0.5)
    exact = levyinvest.exact_factors(bd, 2.0)
    return types.SimpleNamespace(
        bd=bd, cd=cd, exact=exact,
        mc=levyinvest.sample_triplet(bd, 2.0, 1000, np.random.default_rng(0)),
        table=levyinvest.closed_form_boundary_table(cd, exact, -1.0, 1.0, 5),
        rng=lambda: np.random.default_rng(1))


@pytest.mark.parametrize("case", sorted(ESTIMATORS))
def test_estimators_return_an_estimate_of_floats(case, estimator_inputs):
    # one record for every (value, SE) pair, so that artifacts serialize it alike
    est = ESTIMATORS[case](estimator_inputs)
    assert type(est) is levyinvest.Estimate
    assert type(est.value) is float and type(est.se) is float
    assert est.se >= 0.0
