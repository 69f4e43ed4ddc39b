"""Every exported name resolves, so ``from friedzeta.<module> import *`` cannot break on a stale entry."""

import importlib
import pkgutil

import pytest

import friedzeta

MODULES = ["friedzeta"] + [f"friedzeta.{m.name}" for m in pkgutil.iter_modules(friedzeta.__path__)
                           if m.name != "__main__"]  # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    exec(f"from {name} import *", {})  # the star import itself


def test_public_modules_declare_all():
    public = [name for name in MODULES[1:] if not name.rpartition(".")[2].startswith("_")]
    assert [name for name in public if not hasattr(importlib.import_module(name), "__all__")] == []
