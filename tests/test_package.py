"""The package namespace: every exported name resolves to the object that
its submodule defines (``test_cli.py`` checks, in a fresh interpreter,
which submodules each first use loads)."""

import ast
import fnmatch
import os
import sys

import pytest

import ncphom

EXPORTED = ["BoundaryMatrix", "ChainAlgebra", "ChainComplex", "CoxeterGroup",
            "CoxeterType", "DEFAULT_GROUP_CAP", "GradedBasis",
            "GroupCapExceeded", "HomologyGroup", "PartitionLattice",
            "ReferenceRow", "SPACES", "TypeParseError", "all_rows",
            "build_algebra_complex", "build_complex", "euler_characteristic",
            "homology_of", "invariant_factors", "load_rows", "lookup",
            "property_suite"]


def test_all_is_unchanged():
    assert ncphom.__all__ == [*EXPORTED, "__version__"]
    assert ncphom.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_names_are_their_submodules_objects(name):
    value = getattr(ncphom, name)
    holders = [module for key, module in sys.modules.items()
               if key.startswith("ncphom.") and name in vars(module)]
    assert holders
    assert all(vars(module)[name] is value for module in holders)


def test_dir_lists_every_export():
    assert set(ncphom.__all__) <= set(dir(ncphom))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ncphom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ncphom.__all__)
    assert all(namespace[name] is getattr(ncphom, name) for name in namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError,
                       match="module 'ncphom' has no attribute 'Nonesuch'"):
        ncphom.Nonesuch


def _package_data_patterns():
    """The ``ncphom`` globs of ``[tool.setuptools.package-data]`` in
    ``pyproject.toml``; a TOML array of strings reads as a Python list
    (``tomllib`` is not in Python 3.10)."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as f:
        section = f.read().split("[tool.setuptools.package-data]\n")[1]
    key, value = section.split("\n", 1)[0].split("=", 1)
    assert key.strip() == "ncphom"
    return ast.literal_eval(value.strip())


def test_every_data_file_ships_with_the_package():
    """An installed package carries every file under ``ncphom/data``,
    the reference rows among them, so each matches a package-data
    pattern."""
    patterns = _package_data_patterns()
    package = os.path.dirname(ncphom.__file__)
    files = [os.path.relpath(os.path.join(top, name), package)
             .replace(os.sep, "/")
             for top, _, names in os.walk(os.path.join(package, "data"))
             for name in names]
    assert "data/reference_rows.txt" in files
    assert [name for name in files
            if not any(fnmatch.fnmatchcase(name, p) for p in patterns)] == []
