"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A stale entry (a name deleted from the module but left in ``__all__``) makes
``from <module> import *`` raise ``AttributeError``; nothing else would notice.
"""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    modules = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name != "repro.__main__"
    ]
    unresolved = []
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                unresolved.append(f"{module_name}.{name}")
    assert len(modules) > 50
    assert unresolved == []
