"""The README's module table names only what the modules define, so a name
deleted from the code cannot linger in the table; the README and the
run-config schema list the catalog as ``catalog_list`` does."""

import importlib
import json
import re
from pathlib import Path

import pytest

from symind.catalog import catalog_list

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SCHEMA = ROOT / "src" / "symind" / "schemas" / "runconfig.schema.json"
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


def test_run_config_schema_lists_the_catalog():
    name = json.loads(SCHEMA.read_text())["properties"]["problem"]["properties"]["name"]
    listed = re.search(r"catalog name \(([^)]*)\)", name["description"]).group(1)
    assert sorted(listed.split(", ")) == sorted(catalog_list())


def test_every_error_type_is_raised():
    # an error type that no module raises is dead API
    from symind import errors

    source = "\n".join(path.read_text() for path in (ROOT / "src" / "symind").glob("*.py"))
    names = [name for name, cls in vars(errors).items() if isinstance(cls, type)
             and issubclass(cls, errors.SymindError) and cls is not errors.SymindError]
    assert len(names) > 20
    assert [name for name in names if not re.search(rf"raise {name}\b", source)] == []
