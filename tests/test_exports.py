import importlib
import pkgutil

import invman


def test_every_exported_name_resolves():
    # A name left in an __all__ after its definition is deleted breaks `from invman.x import *`.
    modules = [invman] + [
        importlib.import_module(f"invman.{info.name}") for info in pkgutil.iter_modules(invman.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 1 and missing == []
