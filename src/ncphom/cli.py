"""Command line interface.

Two commands: ``homology`` computes one homology table and prints it in
a stable text, JSON, or CSV form; ``verify`` recomputes reference rows
and structural invariants and reports one line per check.

Exit codes: 0 success, 1 verification mismatch, 2 argument, type parse
or dump path error, or a standard output that cannot be written (a
closed pipe, a full device), which stops the run there; 3 the table is
too large: a group-tensored space (FQ, FQ0, M) of a group over the fixed
cap ``coxgroup.DEFAULT_GROUP_CAP``, a boundary over the tensor entry cap,
or out of memory.  ``verify`` reports a table or invariant check that is
too large as a SKIP line.
``main`` is the one place that turns an exception into an exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chain_algebra import ChainAlgebra
from .complexes import (ENUMERATING_SPACES, FIBRE_SPACES, SPACES,
                        _unreduced_complex, build_complex)
from .coxgroup import CoxeterGroup, GroupCapExceeded, check_group_cap
from .homology import euler_characteristic, homology_of
from .lattice import PartitionLattice
from .properties import SUPPORTED_RANK4, property_suite
from .refdata import all_rows, lookup
from .values import CoxeterType, TypeParseError

DEFAULT_TABLE_RANK = {"FP": 5, "FQ0": 3}
EXTRA_TABLE_TYPES = {"FP": ("A6",)}
DIHEDRAL_TABLE_ORDERS = range(3, 11)


def _one_based(seq):
    return [p + 1 for p in seq]


def build_all(type_name: str):
    """Group, lattice, and algebra for one type name."""
    group = CoxeterGroup.from_name(type_name)
    lat = PartitionLattice(group)
    return group, lat, ChainAlgebra(lat)


# -- output formats ----------------------------------------------------------

def format_text(groups) -> str:
    return " ".join(f"H{k}={g}" for k, g in enumerate(groups))


def format_json(type_name: str, space: str, groups, euler: int) -> str:
    payload = {
        "type": type_name,
        "space": space,
        "groups": [g.to_dict() for g in groups],
        "euler": euler,
        "source": "computed",
    }
    return json.dumps(payload, indent=2)


def format_csv(type_name: str, space: str, groups) -> str:
    lines = ["type,space,degree,free,torsion"]
    for k, g in enumerate(groups):
        torsion = "+".join(str(t) for t in g.torsion)
        lines.append(f"{type_name},{space},{k},{g.free_rank},{torsion}")
    return "\n".join(lines)


# -- dump helpers ------------------------------------------------------------

def dump_lattice(lat, path: str) -> None:
    payload = {
        "type": lat.group.ctype.name,
        "size": lat.size,
        "rank_sizes": [len(row) for row in lat.by_rank],
        "elements": [{"id": vid, "rank": lat.rank[vid],
                      "atoms": _one_based(lat.atoms_below(vid))}
                     for vid in range(lat.size)],
        "covers": [[uid, label + 1, vid]
                   for vid in range(lat.size)
                   for label, uid in lat.lower_covers[vid]],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


def dump_basis(algebra, k: int) -> str:
    basis = algebra.full_basis(k)
    payload = {
        "degree": k,
        "labels": [_one_based(s) for s in basis.labels],
        "expansions": [
            {",".join(str(p + 1) for p in key): c
             for key, c in sorted(expansion.items())}
            for expansion in basis.expansions],
    }
    return json.dumps(payload, indent=2)


def _json_label(label):
    """Plain labels are reflection tuples; group-tensored ones pair a slot
    index with a reflection tuple.  The slot index is the element's index
    in sorted enumeration order for FQ and M, and its index within the
    degree's parity half for FQ0."""
    if all(isinstance(x, int) for x in label):
        return _one_based(label)
    wi, seq = label
    return [wi, _one_based(seq)]


def dump_complex(complex_, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    for d in complex_.degrees[1:]:
        m = complex_.matrices[d]
        payload = {
            "name": complex_.name,
            "degree": d,
            "rows": m.rows,
            "cols": m.cols,
            "entries": [[r, c, v]
                        for (r, c), v in sorted(m.entries.items())],
        }
        with open(os.path.join(outdir, f"boundary_{d}.json"), "w") as handle:
            json.dump(payload, handle)
    bases = {str(d): [_json_label(s) for s in complex_.labels[d]]
             for d in complex_.degrees
             if d in complex_.labels}
    with open(os.path.join(outdir, "bases.json"), "w") as handle:
        json.dump({"name": complex_.name, "labels": bases}, handle)


def _out_of_memory(what: str, type_name: str) -> str:
    return f"out of memory computing {what} of {type_name}"


# -- homology command --------------------------------------------------------

def cmd_homology(args) -> int:
    # Every argument, and the group cap of a space that enumerates W, is
    # checked before the group is built.  The answer always comes from
    # the reduced complex; ``--dump-complex`` writes the unreduced one,
    # which has the same homology.  ``main`` reports the errors.
    ctype = CoxeterType.parse(args.type)
    args.type = ctype.name  # the name an out-of-memory error gives
    if args.dump_basis is not None and not 0 <= args.dump_basis <= ctype.rank:
        print(f"error: --dump-basis K must be in 0..{ctype.rank} for "
              f"{ctype.name}, got {args.dump_basis}", file=sys.stderr)
        return 2
    if args.dump_basis is not None and args.dump_complex is not None:
        print("error: --dump-basis exits without building the complex, "
              "so it cannot be combined with --dump-complex",
              file=sys.stderr)
        return 2
    if args.dump_basis is None and args.space in ENUMERATING_SPACES:
        check_group_cap(ctype)
    _, lat, algebra = build_all(args.type)
    if args.dump_lattice:
        dump_lattice(lat, args.dump_lattice)
    if args.dump_basis is not None:
        print(dump_basis(algebra, args.dump_basis))
        return 0
    if args.dump_complex:
        dump_complex(_unreduced_complex(algebra, args.space),
                     args.dump_complex)
    complex_ = build_complex(algebra, args.space)
    groups = homology_of(complex_)
    if args.format == "text":
        print(format_text(groups))
    elif args.format == "json":
        print(format_json(ctype.name, args.space, groups,
                          euler_characteristic(complex_)))
    else:
        print(format_csv(ctype.name, args.space, groups))
    return 0


# -- verify command ----------------------------------------------------------

def _table_task(task):
    """Recompute one reference row.  Returns (label, status, detail)."""
    type_name, space = task
    label = f"tables {type_name} {space}"
    row = lookup(type_name, space)
    if row is None:
        return (label, "SKIP", "no reference row")
    if not row.complete:
        return (label, "SKIP", f"reference row marked {row.status!r}"
                if row.status != "ok" else "reference row incomplete")
    try:
        _, _, algebra = build_all(type_name)
        complex_ = build_complex(algebra, space)
        groups = homology_of(complex_)
    except GroupCapExceeded as err:
        return (label, "SKIP", str(err))
    except MemoryError:
        return (label, "SKIP", _out_of_memory(space, type_name))
    euler = euler_characteristic(complex_)
    if groups != list(row.groups):
        return (label, "FAIL",
                f"computed {format_text(groups)} "
                f"expected {format_text(row.groups)}")
    if euler != row.euler:
        return (label, "FAIL", f"euler {euler} expected {row.euler}")
    return (label, "PASS", format_text(groups))


def _invariant_task(type_name: str):
    """Run the property suite for one type.  Yields (label, status,
    detail): the checks that finish, then one SKIP line if memory runs
    out."""
    try:
        for name, ok, detail in property_suite(type_name):
            yield (f"invariants {type_name} {name}",
                   "PASS" if ok else "FAIL", detail)
    except MemoryError:
        yield (f"invariants {type_name}", "SKIP",
               _out_of_memory("invariants", type_name))


def _table_tasks(args):
    """One task per (type, space), in first-seen order."""
    spaces = args.space or ["FP", "FQ0"]
    if args.type:
        pairs = dict.fromkeys((t, s) for t in args.type for s in spaces)
    else:
        pairs = {}
        for space in spaces:
            rank = args.max_rank or DEFAULT_TABLE_RANK.get(space, 3)
            types = [row.type_name for row in all_rows(space, rank)]
            if args.max_rank is None:
                types += EXTRA_TABLE_TYPES.get(space, ())
            if rank >= 2:
                types += [f"I2({m})" for m in DIHEDRAL_TABLE_ORDERS]
            pairs.update(dict.fromkeys((t, space) for t in types))
    return list(pairs)


def _invariant_types(args):
    return args.type or [
        t for t in SUPPORTED_RANK4
        if args.max_rank is None
        or CoxeterType.parse(t).rank <= args.max_rank]


def cmd_verify(args) -> int:
    # Each requested type is checked, and keyed by its canonical name,
    # before anything runs; ``main`` reports a bad one.
    args.type = list(dict.fromkeys(
        CoxeterType.parse(t).name for t in args.type or ()))
    if args.max_rank is not None and args.max_rank < 1:
        print(f"error: --max-rank must be at least 1, got {args.max_rank}",
              file=sys.stderr)
        return 2
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}

    def emit(label, status, detail):
        counts[status] += 1
        print(f"{status} {label}: {detail}")

    if args.suite in ("tables", "all"):
        for task in _table_tasks(args):
            emit(*_table_task(task))
    if args.suite in ("invariants", "all"):
        for type_name in _invariant_types(args):
            for line in _invariant_task(type_name):
                emit(*line)
    print(f"{counts['PASS']} passed, {counts['FAIL']} failed, "
          f"{counts['SKIP']} skipped")
    return 1 if counts["FAIL"] else 0


# -- argument parsing --------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncphom",
        description="Integral homology from noncrossing partition "
                    "lattices of finite Coxeter groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser(
        "homology",
        help="compute one homology table",
        description="Compute the integral homology of one space for one "
                    "Coxeter type and print it.")
    hom.add_argument("type", help="Coxeter type, e.g. A3, B4, I2(7)")
    hom.add_argument("space", choices=SPACES,
                     help="FP/FQ: Milnor fibres up to deck action and "
                          "full; FQ0: fibre identity component; "
                          "M: hyperplane complement; MW: its quotient, "
                          "the Artin group classifying space")
    hom.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")
    hom.add_argument("--dump-lattice", metavar="PATH",
                     help="write the lattice (elements, ranks, labelled "
                          "covers) as JSON to PATH")
    hom.add_argument("--dump-basis", metavar="K", type=int,
                     help="print the degree-K basis labels and expansions "
                          "as JSON instead of computing homology")
    hom.add_argument("--dump-complex", metavar="DIR",
                     help="write boundary matrices and basis labels of "
                          "the unreduced complex into DIR")
    hom.set_defaults(fn=cmd_homology)

    ver = sub.add_parser(
        "verify",
        help="recompute reference tables and invariants",
        description="Recompute stored homology tables and structural "
                    "invariants; print one line per check.")
    ver.add_argument("suite", choices=("tables", "invariants", "all"))
    ver.add_argument("--type", action="append",
                     help="restrict to this type (repeatable)")
    ver.add_argument("--space", action="append",
                     choices=FIBRE_SPACES,
                     help="restrict table checks to this space "
                          "(repeatable; default FP and FQ0)")
    ver.add_argument("--max-rank", type=int,
                     help="rank bound (at least 1) for the default "
                          "selections")
    ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code, printing one ``error:``
    line on stderr for a failure that ends the run."""
    args = make_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (TypeParseError, OSError) as err:
        code, message = 2, err
    except GroupCapExceeded as err:
        code, message = 3, err
    except MemoryError:
        code, message = 3, (_out_of_memory(args.space, args.type)
                            if args.fn is cmd_homology else "out of memory")
    print(f"error: {message}", file=sys.stderr)
    # Text left in the buffer of a closed pipe or a full device would
    # fail again in the final flush at exit.  Only the interpreter's own
    # stdout is pointed at devnull; an in-process caller's stays as it is.
    try:
        sys.stdout.flush()
    except OSError:
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
