"""Every exported name resolves, so tools that enumerate ``__all__`` miss nothing."""

import importlib
import pkgutil

import pytest

import qkdlink

MODULES = sorted(
    f"qkdlink.{info.name}" for info in pkgutil.iter_modules(qkdlink.__path__)
)


@pytest.mark.parametrize("name", ["qkdlink"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)
