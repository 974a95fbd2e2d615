"""In-memory tracing of ncphom's layers, installed from outside the package.

``Tracer.install`` wraps public functions and methods at class or module
level and ``uninstall`` puts the originals back; nothing under ``src/`` is
edited.  Two kinds of wrapped call:

- layer calls record one span each: name, start, end, parent span, table
  id, self time and counts read from the call's arguments or result;
- hot calls (``multiply``, ``reflection_length``, ``*_coords``) are too
  many for a span each, so they add a count and their self time to the
  innermost open span.

Self time is a call's duration minus the time of every wrapped call made
inside it, so no time is counted in two ``_s`` metrics.  They do not cover
a whole pass: the self time of ``homology_of`` and the work outside every
span (``ChainAlgebra`` construction, glue between calls) go into none of
them, and the worker reports that remainder as ``trace.unattributed_s``.
Basis construction is memoized in the algebra; only the first call per
(algebra, method, degree) in a table records a span, later calls return
the memo and are not wrapped.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Per-layer metric -> unit, in the order the benchmark prints them.
LAYER_METRICS = {
    "coxgroup.build_s": "s",
    "coxgroup.multiply_calls": "count",
    "coxgroup.multiply_s": "s",
    "coxgroup.length_calls": "count",
    "coxgroup.length_distinct": "count",
    "coxgroup.enumerate_s": "s",
    "coxgroup.elements": "count",
    "lattice.build_s": "s",
    "lattice.elements": "count",
    "lattice.cover_yield": "ratio",
    "chain_algebra.bases_s": "s",
    "chain_algebra.basis_terms": "count",
    "chain_algebra.coords_calls": "count",
    "chain_algebra.coords_s": "s",
    "complexes.build_s": "s",
    "complexes.columns": "count",
    "complexes.nnz": "count",
    "homology.snf_sparse_s": "s",
    "homology.sparse_nnz": "count",
    "homology.rank": "count",
    "homology.snf_dense_s": "s",
    "homology.matrices": "count",
    "refdata.lookup_s": "s",
    "cli.verify_s": "s",
}


class Tracer:
    """Spans and hot-call counters for one pass, kept in memory."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list = []
        self.table = 0
        self._open: list = []       # open span records, innermost last
        self._child: list = []      # child-time accumulator per open call
        self._root_hot: dict = {}   # hot calls made outside every span
        self._distinct: set = set()
        self._distinct_total = 0
        self._seen_bases: set = set()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, fn, args, kwargs, hot=False, observe=None):
        clock = time.perf_counter
        start = clock()
        self._child.append(0.0)
        record = None
        if not hot:
            record = {"id": len(self.spans), "name": name,
                      "parent": self._open[-1]["id"] if self._open else None,
                      "table": self.table, "start": start - self.epoch,
                      "end": None, "self_s": 0.0, "hot": {}, "counts": {}}
            self.spans.append(record)
            self._open.append(record)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                record["counts"] = observe(result, args)
            return result
        finally:
            end = clock()
            child = self._child.pop()
            if self._child:
                self._child[-1] += end - start
            if hot:
                bucket = (self._open[-1]["hot"] if self._open
                          else self._root_hot)
                entry = bucket.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += end - start - child
            else:
                self._open.pop()
                record["end"] = end - self.epoch
                record["self_s"] = end - start - child

    def end_table(self) -> None:
        """Close the current table: later spans carry the next table id."""
        self._distinct_total += len(self._distinct)
        self._distinct.clear()
        self._seen_bases.clear()
        self.table += 1

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _layer(self, name, observe=None):
        def make(original):
            def wrapper(*args, **kwargs):
                return self._call(name, original, args, kwargs,
                                  observe=observe)
            return wrapper
        return make

    def _hot(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                return self._call(name, original, args, kwargs, hot=True)
            return wrapper
        return make

    def install(self) -> "Tracer":
        import ncphom.cli
        import ncphom.complexes
        import ncphom.homology
        import ncphom.refdata
        from ncphom.chain_algebra import ChainAlgebra
        from ncphom.coxgroup import CoxeterGroup
        from ncphom.lattice import PartitionLattice

        tracer = self

        def from_name(original):
            func = original.__func__
            return classmethod(lambda cls, name: tracer._call(
                "coxgroup.build", func, (cls, name), {}))
        self._patch(CoxeterGroup, "from_name", from_name)
        self._patch(CoxeterGroup, "multiply", self._hot("coxgroup.multiply"))

        def length(original):
            def counted(group, a):
                tracer._distinct.add(a)
                return original(group, a)

            def wrapper(group, a):
                return tracer._call("coxgroup.length", counted, (group, a),
                                    {}, hot=True)
            return wrapper
        self._patch(CoxeterGroup, "reflection_length", length)
        self._patch(CoxeterGroup, "enumerate_elements", self._layer(
            "coxgroup.enumerate",
            lambda result, args: {"coxgroup.elements": len(result)}))

        self._patch(PartitionLattice, "__init__", self._layer(
            "lattice.build",
            lambda result, args: {
                "lattice.elements": args[0].size,
                "lattice.covers": sum(len(c) for c in args[0].lower_covers),
            }))

        def basis(original):
            def wrapper(algebra, k):
                key = (id(algebra), original.__name__, k)
                if key in tracer._seen_bases:
                    return original(algebra, k)
                tracer._seen_bases.add(key)
                return tracer._call(
                    "chain_algebra.bases", original, (algebra, k), {},
                    observe=lambda result, args: {
                        "chain_algebra.basis_terms":
                            sum(len(e) for e in result.expansions)})
            return wrapper
        self._patch(ChainAlgebra, "cycle_basis", basis)
        self._patch(ChainAlgebra, "full_basis", basis)
        self._patch(ChainAlgebra, "cycle_coords",
                    self._hot("chain_algebra.coords"))
        self._patch(ChainAlgebra, "chain_coords",
                    self._hot("chain_algebra.coords"))

        build = self._layer(
            "complexes.build",
            lambda result, args: {
                "complexes.columns":
                    sum(m.cols for m in result.matrices.values()),
                "complexes.nnz":
                    sum(len(m.entries) for m in result.matrices.values()),
            })
        self._patch(ncphom.complexes, "build_complex", build)
        self._patch(ncphom.cli, "build_complex", build)
        self._patch(ncphom.homology, "homology_of",
                    self._layer("homology.homology_of"))
        self._patch(ncphom.cli, "homology_of",
                    self._layer("homology.homology_of"))

        def factors(original):
            def wrapper(matrix):
                limit = ncphom.homology.DENSE_LIMIT
                sparse = bool(matrix.entries) and (
                    matrix.rows > limit or matrix.cols > limit)

                def observe(result, args):
                    counts = {"homology.matrices": 1,
                              "homology.rank": result[1]}
                    if sparse:
                        counts["homology.sparse_nnz"] = len(matrix.entries)
                    return counts
                name = "homology.snf_sparse" if sparse \
                    else "homology.snf_dense"
                return tracer._call(name, original, (matrix,), {},
                                    observe=observe)
            return wrapper
        self._patch(ncphom.homology, "invariant_factors", factors)

        self._patch(ncphom.refdata, "lookup", self._layer("refdata.lookup"))
        self._patch(ncphom.cli, "lookup", self._layer("refdata.lookup"))
        self._patch(ncphom.cli, "main", self._layer("cli.verify"))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        """Spans and per-layer metrics of everything traced so far."""
        return {"spans": self.spans, "root_hot": self._root_hot,
                "metrics": layer_metrics(self.spans, self._root_hot,
                                         self._distinct_total)}


def layer_metrics(spans, root_hot, length_distinct) -> dict:
    """The per-layer metrics, summed over a pass's spans."""
    self_s: dict = defaultdict(float)
    hot_calls: dict = defaultdict(int)
    hot_s: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    lattice_products = 0
    for bucket in [root_hot] + [span["hot"] for span in spans]:
        for name, (n, seconds) in bucket.items():
            hot_calls[name] += n
            hot_s[name] += seconds
    for span in spans:
        self_s[span["name"]] += span["self_s"]
        for name, n in span["counts"].items():
            counts[name] += n
        if span["name"] == "lattice.build":
            lattice_products += span["hot"].get("coxgroup.multiply", [0])[0]
    return {
        "coxgroup.build_s": self_s["coxgroup.build"],
        "coxgroup.multiply_calls": hot_calls["coxgroup.multiply"],
        "coxgroup.multiply_s": hot_s["coxgroup.multiply"],
        "coxgroup.length_calls": hot_calls["coxgroup.length"],
        "coxgroup.length_distinct": length_distinct,
        "coxgroup.enumerate_s": self_s["coxgroup.enumerate"],
        "coxgroup.elements": counts["coxgroup.elements"],
        "lattice.build_s": self_s["lattice.build"],
        "lattice.elements": counts["lattice.elements"],
        "lattice.cover_yield": (counts["lattice.covers"] / lattice_products
                                if lattice_products else 0.0),
        "chain_algebra.bases_s": self_s["chain_algebra.bases"],
        "chain_algebra.basis_terms": counts["chain_algebra.basis_terms"],
        "chain_algebra.coords_calls": hot_calls["chain_algebra.coords"],
        "chain_algebra.coords_s": hot_s["chain_algebra.coords"],
        "complexes.build_s": self_s["complexes.build"],
        "complexes.columns": counts["complexes.columns"],
        "complexes.nnz": counts["complexes.nnz"],
        "homology.snf_sparse_s": self_s["homology.snf_sparse"],
        "homology.sparse_nnz": counts["homology.sparse_nnz"],
        "homology.rank": counts["homology.rank"],
        "homology.snf_dense_s": self_s["homology.snf_dense"],
        "homology.matrices": counts["homology.matrices"],
        "refdata.lookup_s": self_s["refdata.lookup"],
        "cli.verify_s": self_s["cli.verify"],
    }
