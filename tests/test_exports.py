"""Every name a module exports resolves, so ``from module import *`` works."""
import importlib
import pkgutil

import pytest

import madkit

MODULES = ["madkit"] + sorted(
    info.name for info in pkgutil.iter_modules(madkit.__path__, "madkit.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    if exported:
        assert set(namespace) - {"__builtins__"} == set(exported)


def test_mad_exports():
    from madkit import mad

    assert sorted(mad.__all__) == [
        "DEFAULT_MODEL",
        "MODEL_CHOICES",
        "MadValue",
        "asymptotic_factor",
        "correction_factor",
        "factor_table",
        "mad_corrected",
        "mad_uncorrected",
    ]
