"""The README's module table names only what the modules define, so a name
deleted from the code cannot linger in the table."""

import importlib
import re
from pathlib import Path

import pytest

from symind.catalog import catalog_list

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
ROWS = dict(re.findall(r"^\| `(symind\.\w+)`\s*\| (.*) \|$", README, re.M))


def backticked(module):
    return re.findall(r"`([^`]+)`", ROWS[module])


@pytest.mark.parametrize("module", ["symind.core", "symind.maslov", "symind.sturm",
                                    "symind.spectral", "symind.bessel", "symind.nbody"])
def test_module_row_names_exist(module):
    names = [name for name in backticked(module) if name.isidentifier()]
    assert names
    mod = importlib.import_module(module)
    assert [name for name in names if not hasattr(mod, name)] == []


def test_catalog_row_lists_the_catalog():
    assert sorted(backticked("symind.catalog")) == sorted(catalog_list())
