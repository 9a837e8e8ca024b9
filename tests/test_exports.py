"""Export lists name only what the package has, so a deleted function cannot linger in one."""

import importlib
import types

import pytest

import acoubench


@pytest.mark.parametrize("module_name", ["acoubench", "acoubench.dsp", "acoubench.models"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exposes_exactly_its_export_list():
    public = {
        name
        for name, value in vars(acoubench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(acoubench.__all__)

