import ast
import importlib
import inspect
import pkgutil
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


def test_import_does_not_load_scipy():
    code = "import levyinvest, sys; assert 'scipy' not in sys.modules"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_policy_steps_paths_in_one_place():
    import levyinvest.policy
    assert inspect.getsource(levyinvest.policy).count("_increment(") == 1


def test_policy_reads_the_table_in_one_place():
    # the forward pass hands log b to the accumulators; none of them holds b
    import levyinvest.policy
    assert not hasattr(levyinvest.policy, "_Seen")
    assert "self.b" not in inspect.getsource(levyinvest.policy)


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


def test_moments_in_one_place():
    # E[e^{lam M}] and E[e^{lam I}] come from wiener_hopf._moment alone
    import levyinvest.wiener_hopf as wh
    assert not any(hasattr(wh, name) for name in ("_mixture_moment", "sup_moment_with_se"))
    assert not hasattr(levyinvest, "sup_moment_with_se")
    assert inspect.getsource(wh).count("np.exp(") == 1
    assert "np.exp(" in inspect.getsource(wh._moment)
