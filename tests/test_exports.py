import importlib
import pkgutil
import types

import spans
import wiretaplab


def test_package_exports_exactly_the_submodule_names():
    exported = set()
    for info in pkgutil.iter_modules(wiretaplab.__path__):
        module = importlib.import_module(f"wiretaplab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(wiretaplab, name, None) is getattr(module, name), (info.name, name)
            exported.add(name)
    public = {
        name
        for name, value in vars(wiretaplab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == exported


def test_bench_tracer_names_exist():
    # bench/spans.py patches CLASS_METHODS on their classes (a missing one
    # raises KeyError in a traced run) and wraps EXTRA functions by name (a
    # missing one is skipped without a word), so a rename must update it.
    for (layer, cls_name), methods in spans.CLASS_METHODS.items():
        cls = getattr(importlib.import_module(f"wiretaplab.{layer}"), cls_name)
        for method in methods:
            assert method in cls.__dict__, (layer, cls_name, method)
    for layer, names in spans.EXTRA.items():
        module = importlib.import_module(f"wiretaplab.{layer}")
        for name in names:
            assert isinstance(module.__dict__.get(name), types.FunctionType), (layer, name)
