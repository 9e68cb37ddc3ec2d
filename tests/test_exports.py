"""Every name a module exports resolves, so ``from module import *`` works,
and every ``madkit`` name README.md shows resolves too."""
import importlib
import pkgutil
import re
from pathlib import Path

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


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs():
    block = re.search(r"^```python\n(.*?)^```", README, re.S | re.M).group(1)
    exec(compile(block, "README.md", "exec"), {})


def _resolve(dotted: str):
    """The object ``dotted`` names: its longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("dotted", sorted(set(re.findall(r"\bmadkit(?:\.\w+)+", README))))
def test_readme_names_resolve(dotted):
    _resolve(dotted)
