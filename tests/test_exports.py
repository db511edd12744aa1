"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tats

MODULES = sorted(m.name for m in pkgutil.iter_modules(tats.__path__) if not m.name.startswith("_"))


def _exports(module) -> list[str]:
    """A module's __all__, or its public names when it declares none."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [n for n in vars(module) if not n.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"tats.{name}")
    exported = _exports(module)
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_are_sorted_unique_and_re_exported():
    names = tats.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        obj = getattr(tats, name)
        home = importlib.import_module(getattr(obj, "__module__", None) or type(obj).__module__)
        assert name in _exports(home), f"{home.__name__} does not export {name}"
        assert getattr(home, name) is obj


def test_package_exports_are_the_modules_exports():
    # each module's __all__ is the one list of its public names: the package names none itself
    names = [name for module in MODULES for name in getattr(importlib.import_module(f"tats.{module}"), "__all__", ())]
    assert tats.__all__ == sorted(names)
    source = Path(tats.__file__).read_text()
    assert [name for name in names if re.search(rf"\b{name}\b", source)] == []


def test_the_model_specs_are_built_by_their_constructors_alone():
    # one spelling per kind, Spec(kind, **params), with no classmethod beside it
    for spec in (tats.ValueForecasterSpec, tats.TrendPredictorSpec):
        assert [name for name, value in vars(spec).items() if isinstance(value, classmethod)] == []


def test_package_exports_stay_within_their_cap():
    # a new public name should replace an old one, so the surface cannot silently regrow
    assert len(tats.__all__) <= 45


def test_package_source_stays_within_its_line_cap():
    # the lines of `cat src/tats/*.py | wc -l`, which ROADMAP tracks; a change that raises
    # the cap says why in CHANGES.md, so the package cannot grow silently
    lines, cap = sum(path.read_bytes().count(b"\n") for path in Path(tats.__file__).parent.glob("*.py")), 2704
    assert lines <= cap, f"src/tats has {lines} lines, over its cap of {cap}"
