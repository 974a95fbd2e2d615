"""Finite chain complexes for the five spaces attached to a reflection
group.

Space tokens follow the command line:

- ``FP``  quotient Milnor fibre; one cycle-basis column per chain degree
  1..n, no group factor.
- ``FQ``  Milnor fibre upstairs, all group elements tensored against the
  cycle bases.
- ``FQ0`` the connected fibre: the FQ columns whose group element has the
  parity of the chain degree.
- ``M``   hyperplane complement, group elements tensored against the full
  bases in chain degrees 0..n.
- ``MW``  orbit space of M (Artin-group homology), the full bases alone.

All boundary maps are assembled from two signed deletion operators on
label sequences: the conjugating deletion (drop entry i, conjugate every
earlier entry by it) and the plain deletion.  Coordinates of each deleted
term are solved exactly in the target basis; both deletions of a reduced
sequence stay reduced with product below the original element, so every
term is individually resolvable.

Group-tensored differentials only ever multiply the group slot on the
right by single reflections.  ``group_ring_boundary`` exposes that form
with formal group-ring entries, so the square-is-zero law can be checked
for large groups without enumerating any elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain_algebra import ChainAlgebra
from .coxgroup import DEFAULT_GROUP_CAP
from .homology import BoundaryMatrix, compose

SPACES = ("FP", "FQ0", "FQ", "M", "MW")


@dataclass
class ChainComplex:
    """A bounded complex of free abelian groups with labelled bases.

    ``matrices[d]`` is the boundary from chain degree d to d - 1; the
    lowest degree has no matrix.  Topological degree = chain degree minus
    the lowest chain degree.
    """

    name: str
    degrees: list
    dims: dict
    matrices: dict
    labels: dict = field(default_factory=dict)

    def check_square_zero(self) -> None:
        for d in self.degrees[2:]:
            if compose(self.matrices[d - 1], self.matrices[d]).entries:
                raise AssertionError(f"{self.name}: boundary {d - 1} "
                                     f"after boundary {d} is not zero")


def build_complex(algebra: ChainAlgebra, space: str,
                  cap: int = DEFAULT_GROUP_CAP) -> ChainComplex:
    if space == "FP":
        return build_quotient_fibre(algebra)
    if space == "FQ":
        return build_fibre(algebra, restrict_parity=False, cap=cap)
    if space == "FQ0":
        return build_fibre(algebra, restrict_parity=True, cap=cap)
    if space == "M":
        return build_complement(algebra, cap=cap)
    if space == "MW":
        return build_orbit_complement(algebra)
    raise ValueError(f"unknown space {space!r}")


# -- complexes without a group factor ---------------------------------------

def build_quotient_fibre(algebra: ChainAlgebra) -> ChainComplex:
    """FP: cycle bases in chain degrees 1..n, conjugating deletions."""
    n = algebra.group.rank
    degrees = list(range(1, n + 1))
    dims = {}
    labels = {}
    matrices = {}
    for k in degrees:
        basis = algebra.cycle_basis(k)
        dims[k] = len(basis.labels)
        labels[k] = basis.labels
        if k == 1:
            continue
        matrix = BoundaryMatrix(dims[k - 1], dims[k])
        for col, label in enumerate(basis.labels):
            for i in range(k):
                sign = -1 if i % 2 else 1
                sub = algebra.deleted_conjugate(label, i)
                for row, c in algebra.cycle_coords(sub, k - 1).items():
                    matrix.set(row, col,
                               matrix.entries.get((row, col), 0) + sign * c)
        matrices[k] = matrix
    return ChainComplex("FP", degrees, dims, matrices, labels)


def build_orbit_complement(algebra: ChainAlgebra) -> ChainComplex:
    """MW: full bases in chain degrees 0..n, both deletions."""
    n = algebra.group.rank
    degrees = list(range(n + 1))
    dims = {}
    labels = {}
    matrices = {}
    for k in degrees:
        basis = algebra.full_basis(k)
        dims[k] = len(basis.labels)
        labels[k] = basis.labels
        if k == 0:
            continue
        matrix = BoundaryMatrix(dims[k - 1], dims[k])
        for col, label in enumerate(basis.labels):
            acc: dict = {}
            for i in range(k):
                sign = -1 if i % 2 else 1
                conj = algebra.chain_coords(
                    algebra.deleted_conjugate(label, i), k - 1)
                plain = algebra.chain_coords(
                    label[:i] + label[i + 1:], k - 1)
                for row, c in conj.items():
                    acc[row] = acc.get(row, 0) + sign * c
                for row, c in plain.items():
                    acc[row] = acc.get(row, 0) - sign * c
            for row, c in acc.items():
                matrix.set(row, col, c)
        matrices[k] = matrix
    return ChainComplex("MW", degrees, dims, matrices, labels)


def build_algebra_complex(algebra: ChainAlgebra) -> ChainComplex:
    """The algebra with its own differential: full bases in degrees 0..n,
    each basis chain sent to its interval cycle one degree down.  The
    complex is acyclic over the integers; its degreewise differential
    ranks equal the cycle-basis sizes."""
    n = algebra.group.rank
    degrees = list(range(n + 1))
    dims = {}
    labels = {}
    matrices = {}
    for k in degrees:
        basis = algebra.full_basis(k)
        dims[k] = len(basis.labels)
        labels[k] = basis.labels
        if k == 0:
            continue
        below = algebra.full_basis(k - 1)
        matrix = BoundaryMatrix(dims[k - 1], dims[k])
        for col, label in enumerate(basis.labels):
            coords = algebra.coords_in_basis(algebra.interval_cycle(label),
                                             below)
            for row, c in enumerate(coords):
                if c:
                    matrix.set(row, col, c)
        matrices[k] = matrix
    return ChainComplex("B", degrees, dims, matrices, labels)


# -- group-tensored complexes ------------------------------------------------

def _sorted_elements(algebra: ChainAlgebra, cap):
    return sorted(algebra.group.enumerate_elements(cap))


def build_fibre(algebra: ChainAlgebra, restrict_parity: bool,
                cap: int = DEFAULT_GROUP_CAP) -> ChainComplex:
    """FQ (all elements) or FQ0 (elements matching the degree parity)
    over the cycle bases in chain degrees 1..n."""
    group = algebra.group
    n = group.rank
    elements = _sorted_elements(algebra, cap)
    if restrict_parity:
        split = {0: [w for w in elements if group.parity(w) == 0],
                 1: [w for w in elements if group.parity(w) == 1]}
        assert len(split[0]) == len(split[1]) == len(elements) // 2
    degrees = list(range(1, n + 1))
    dims = {}
    labels = {}
    matrices = {}
    index_by_degree = {}
    rows_of = {}
    for k in degrees:
        basis = algebra.cycle_basis(k)
        rows = split[k % 2] if restrict_parity else elements
        rows_of[k] = rows
        index = {w: i for i, w in enumerate(rows)}
        index_by_degree[k] = index
        dims[k] = len(rows) * len(basis.labels)
        labels[k] = tuple((wi, lab) for wi in range(len(rows))
                          for lab in basis.labels)
    for k in degrees[1:]:
        basis = algebra.cycle_basis(k)
        width = len(basis.labels)
        prev_width = len(algebra.cycle_basis(k - 1).labels)
        prev_index = index_by_degree[k - 1]
        matrix = BoundaryMatrix(dims[k - 1], dims[k])
        coords = [[(i, -1 if i % 2 else 1,
                    group.reflection(label[i]),
                    algebra.cycle_coords(
                        algebra.deleted_conjugate(label, i), k - 1))
                   for i in range(k)]
                  for label in basis.labels]
        for wi, w in enumerate(rows_of[k]):
            base_col = wi * width
            for pos, terms in enumerate(coords):
                col = base_col + pos
                for _, sign, t_elem, sub_coords in terms:
                    target = prev_index[group.multiply(w, t_elem)]
                    base_row = target * prev_width
                    for row, c in sub_coords.items():
                        key = (base_row + row, col)
                        total = matrix.entries.get(key, 0) + sign * c
                        if total:
                            matrix.entries[key] = total
                        else:
                            matrix.entries.pop(key, None)
        matrices[k] = matrix
    name = "FQ0" if restrict_parity else "FQ"
    return ChainComplex(name, degrees, dims, matrices, labels)


def build_complement(algebra: ChainAlgebra,
                     cap: int = DEFAULT_GROUP_CAP) -> ChainComplex:
    """M: all group elements over the full bases in chain degrees 0..n."""
    group = algebra.group
    n = group.rank
    elements = _sorted_elements(algebra, cap)
    index = {w: i for i, w in enumerate(elements)}
    order = len(elements)
    degrees = list(range(n + 1))
    dims = {}
    labels = {}
    matrices = {}
    for k in degrees:
        basis = algebra.full_basis(k)
        dims[k] = order * len(basis.labels)
        labels[k] = tuple((wi, lab) for wi in range(order)
                          for lab in basis.labels)
        if k == 0:
            continue
        width = len(basis.labels)
        prev_width = len(algebra.full_basis(k - 1).labels)
        matrix = BoundaryMatrix(dims[k - 1], dims[k])
        coords = [[(-1 if i % 2 else 1,
                    group.reflection(label[i]),
                    algebra.chain_coords(
                        algebra.deleted_conjugate(label, i), k - 1),
                    algebra.chain_coords(label[:i] + label[i + 1:], k - 1))
                   for i in range(k)]
                  for label in basis.labels]
        for wi, w in enumerate(elements):
            base_col = wi * width
            stay_row = wi * prev_width
            for pos, terms in enumerate(coords):
                col = base_col + pos
                acc: dict = {}
                for sign, t_elem, conj_coords, plain_coords in terms:
                    move_row = index[group.multiply(w, t_elem)] * prev_width
                    for row, c in conj_coords.items():
                        key = move_row + row
                        acc[key] = acc.get(key, 0) + sign * c
                    for row, c in plain_coords.items():
                        key = stay_row + row
                        acc[key] = acc.get(key, 0) - sign * c
                for row, c in acc.items():
                    if c:
                        matrix.entries[(row, col)] = c
        matrices[k] = matrix
    return ChainComplex("M", degrees, dims, matrices, labels)


# -- formal group-ring form --------------------------------------------------

def group_ring_boundary(algebra: ChainAlgebra, space: str, k: int) -> dict:
    """The degree-k boundary of a group-tensored complex as a matrix over
    the integral group ring: {(row_label, col_label): {element: coeff}}.

    The group slot is always multiplied on the right, so this presents
    the differential of FQ (equally FQ0) or M without any element
    enumeration.
    """
    group = algebra.group
    if space in ("FQ", "FQ0"):
        basis = algebra.cycle_basis(k)
        prev = algebra.cycle_basis(k - 1)
        coords_of = algebra.cycle_coords
        with_plain = False
    elif space == "M":
        basis = algebra.full_basis(k)
        prev = algebra.full_basis(k - 1)
        coords_of = algebra.chain_coords
        with_plain = True
    else:
        raise ValueError(f"space {space!r} has no group factor")
    identity = group.identity
    entries: dict = {}
    for label in basis.labels:
        for i in range(len(label)):
            sign = -1 if i % 2 else 1
            t_elem = group.reflection(label[i])
            for row, c in coords_of(
                    algebra.deleted_conjugate(label, i), k - 1).items():
                cell = entries.setdefault((prev.labels[row], label), {})
                cell[t_elem] = cell.get(t_elem, 0) + sign * c
            if with_plain:
                for row, c in coords_of(
                        label[:i] + label[i + 1:], k - 1).items():
                    cell = entries.setdefault((prev.labels[row], label), {})
                    cell[identity] = cell.get(identity, 0) - sign * c
    for key in [key for key, cell in entries.items()
                if not any(cell.values())]:
        del entries[key]
    return entries


def group_ring_square_is_zero(algebra: ChainAlgebra, space: str) -> bool:
    """Exact check of boundary-of-boundary = 0 in group-ring form."""
    group = algebra.group
    n = group.rank
    low = 1 if space in ("FQ", "FQ0") else 0
    product_cache: dict = {}

    def times(a, b):
        key = (a, b)
        out = product_cache.get(key)
        if out is None:
            out = group.multiply(a, b)
            product_cache[key] = out
        return out

    for k in range(low + 2, n + 1):
        upper = group_ring_boundary(algebra, space, k)
        lower = group_ring_boundary(algebra, space, k - 1)
        by_mid: dict = {}
        for (r, mid), cell in lower.items():
            by_mid.setdefault(mid, []).append((r, cell))
        square: dict = {}
        for (mid, c), upper_cell in upper.items():
            for r, lower_cell in by_mid.get(mid, ()):
                store = square.setdefault((r, c), {})
                for e_up, c_up in upper_cell.items():
                    for e_low, c_low in lower_cell.items():
                        elem = times(e_up, e_low)
                        store[elem] = store.get(elem, 0) + c_up * c_low
        if any(any(cell.values()) for cell in square.values()):
            return False
    return True


def fibre_support_is_reflections(algebra: ChainAlgebra) -> bool:
    """Every group element in the formal FQ boundary is one reflection.

    Together with right multiplication this shows the degree-parity
    restriction is a subcomplex and that left translation by any odd
    element matches the two parity blocks, so FQ computes the FQ0 answer
    doubled."""
    group = algebra.group
    reflections = set(group.reflection_keys)
    for k in range(2, group.rank + 1):
        for cell in group_ring_boundary(algebra, "FQ", k).values():
            for elem, coeff in cell.items():
                if coeff and elem not in reflections:
                    return False
    return True
