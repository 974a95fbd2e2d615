"""Integral homology from noncrossing partition lattices of finite
Coxeter groups.

The pipeline: parse a type, realize its reflections, build the interval
below a bipartite Coxeter element in absolute order, antisymmetrize
reduced factorizations into basis chains, assemble the boundary
matrices of five chain complexes, and read homology off Smith normal
forms.  Everything is exact integer arithmetic.

The package imports on use: ``import ncphom`` loads none of its
submodules, and each name below loads the submodule that defines it on
first access (PEP 562).  Reading the reference rows (``load_rows``,
``lookup``, ``all_rows``) loads ``refdata`` and the one module it
imports, ``values``, which holds the value types (``CoxeterType``,
``TypeParseError``, ``HomologyGroup``) and imports nothing from the
package; the root-system, group, lattice, chain, Smith-form and complex
layers load when one of their names is first used.  ``ncphom.cli``,
which ``python -m ncphom`` runs, imports every layer and ``argparse``,
so only a caller that reads rows without computing loads less.
"""

__version__ = "0.1.0"

# The names that each submodule exports.  A submodule and its names
# resolve as attributes of the package before it is imported.
_EXPORTS = {
    "chain_algebra": ("ChainAlgebra", "GradedBasis"),
    "complexes": ("SPACES", "ChainComplex", "build_algebra_complex",
                  "build_complex"),
    "coxgroup": ("DEFAULT_GROUP_CAP", "CoxeterGroup", "GroupCapExceeded"),
    "homology": ("BoundaryMatrix", "euler_characteristic", "homology_of",
                 "invariant_factors"),
    "lattice": ("PartitionLattice",),
    "properties": ("property_suite",),
    "refdata": ("ReferenceRow", "all_rows", "load_rows", "lookup"),
    "rootsys": (),
    "values": ("CoxeterType", "HomologyGroup", "TypeParseError"),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items()
               for name in names}

__all__ = [*sorted(_DEFINED_IN), "__version__"]


def __getattr__(name: str):
    module = name if name in _EXPORTS else _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module: importing importlib
    # costs about as much as loading the reference rows.  Importing a
    # submodule binds it in this namespace.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})
