import importlib
import pkgutil
import types

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
