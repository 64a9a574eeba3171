import importlib
import pkgutil

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
