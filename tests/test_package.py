"""The package namespace: every exported name resolves to the object that
its submodule defines (``test_cli.py`` checks, in a fresh interpreter,
which submodules each first use loads)."""

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
