"""Finite chain complexes for the five spaces attached to a reflection
group.

Space tokens follow the command line:

- ``FP``  quotient Milnor fibre: the cycle bases in chain degrees 1..n.
- ``FQ``  Milnor fibre upstairs: every group element tensored against the
  cycle bases.
- ``FQ0`` the connected fibre: the FQ columns whose group element has the
  parity of the chain degree.
- ``M``   hyperplane complement: every group element tensored against the
  full bases in chain degrees 0..n.
- ``MW``  orbit space of M (Artin-group homology): the full bases alone.

There is one boundary assembly.  ``group_ring_boundary`` applies the two
signed deletion operators on label sequences, the conjugating deletion
(drop entry i, conjugate every earlier entry by it) times the reflection
t_i, and for M and MW minus the plain deletion times 1, to the labels of
the degree-k basis; no basis is expanded in its own degree.  Both
deletions of a reduced sequence stay reduced with product below the
original element, so every term is individually resolvable.  Each
conjugating deletion is solved exactly in the basis one degree down; a
plain deletion of a full basis label is itself a label one degree down,
so it is looked up.  The result is the boundary as a matrix over the
integral group ring Z[W]: one integer per (row, col, t), with row and col
basis positions and t the reflection position of the group element, or
-1 for the identity.  Only Z[W] coefficients turn t into an element.

The identity part of the degree-k M and MW boundary is (-1)^k times the
algebra differential, which sends each full basis chain to its interval
cycle one degree down; ``build_algebra_complex`` is that part of the MW
boundary, read from the same plain-deletion sum.

For the group-tensored spaces (FQ, FQ0, M) ``build_complex`` first
reduces that matrix over Z[W], by the Gaussian-elimination lemma for
chain complexes (Kaczynski, Mrozek and Slusarek 1998; Skoldberg 2006).
An entry u = +-g, one group element with coefficient +-1, is a unit of
Z[W].  Eliminating it at (row r0, col c0) of the degree-k boundary sets

    A'[c][r] = A[c][r] - A[c][r0] u^-1 A[c0][r],

with the factors in this order because columns act on their group slot
from the right, removes row c0 from the degree-(k+1) boundary and
column r0 from the degree-(k-1) boundary, and leaves a chain-homotopy
equivalent complex.  Pivots go by a Markowitz cost weighted by support
size, until no unit entry is left.  Every element of a fibre boundary is
odd, and products of three odd elements are odd, so the reduced fibre
boundaries stay odd and the parity half is still a subcomplex.  A3 M
keeps 1, 3, 3 and 1 of its 1, 6, 10 and 5 basis chains.
``_unreduced_complex`` skips the reduction; ``--dump-complex`` writes
its matrices, and the pinned digests fix them.

The (reduced) boundary is then tensored with one of three coefficient
modules:

- the trivial module Z, every element acting as 1 (FP, MW);
- Z[W] with W acting by right multiplication (FQ, M);
- the degree-parity half of Z[W], where the elements in chain degree k
  have parity k mod 2; right multiplication by an odd element swaps the
  halves (FQ0).  An entry of even parity would leave the half, and the
  tensoring raises ``RuntimeError``.

A boundary tensored with a regular module has its group-ring terms
times its slots as entries, a count known before tensoring.  Above
``TENSOR_ENTRY_CAP`` the tensoring raises ``TensorSizeExceeded``, a
``GroupCapExceeded``, instead of running out of memory.

Group elements are positions in the sorted element list, and every
product is read from a right-regular table (``ElementList.right`` in
``coxgroup``): the positions of w g for all w, built on first use from
the simple-reflection products of the element search.  Tables are built
only for the right factors: the boundary support, the pivot inverses and
the elements in pivot columns.  Tensoring reads one table entry per slot,
and since w -> w g is injective, no two terms of a regular module meet
in one matrix entry.  The group-ring form also lets the square-is-zero
law be checked for groups too large to enumerate.
"""

from __future__ import annotations

from .chain_algebra import ChainAlgebra
from .coxgroup import DEFAULT_GROUP_CAP, GroupCapExceeded
from .homology import BoundaryMatrix, compose

SPACES = ("FP", "FQ0", "FQ", "M", "MW")
# The fibres: cycle bases, from chain degree 1.  The complements M and MW
# take the full bases from chain degree 0.
FIBRE_SPACES = ("FP", "FQ0", "FQ")

# The most integer entries that one tensored boundary may hold: its
# group-ring terms times its coefficient slots, known before tensoring.
# An entry costs about 170 bytes as a matrix entry and about twice that
# again in the Smith form, so a boundary at the cap needs about 2 GB.
# The largest boundary of a table CI runs, D4 FQ's d4, has 54912 entries,
# and B4 M's d3 718080.  B5 FQ0's d4 and d5 would have 9354240 and
# 56833920, and F4 FQ0's d4 4758912.
TENSOR_ENTRY_CAP = 4_000_000


class TensorSizeExceeded(GroupCapExceeded):
    """Raised when a tensored boundary would hold more than
    ``TENSOR_ENTRY_CAP`` entries.  As a group-cap refusal, ``ncphom
    homology`` exits 3 and ``verify tables`` skips the table."""


class ChainComplex:
    """A bounded complex of free abelian groups with labelled bases.

    ``matrices[d]`` is the boundary from chain degree d to d - 1; the
    lowest degree has no matrix.  Topological degree = chain degree minus
    the lowest chain degree.
    """

    def __init__(self, name: str, degrees: list, dims: dict, matrices: dict,
                 labels: dict | None = None):
        self.name = name
        self.degrees = degrees
        self.dims = dims
        self.matrices = matrices
        self.labels = {} if labels is None else labels

    def check_square_zero(self) -> None:
        for d in self.degrees[2:]:
            if compose(self.matrices[d - 1], self.matrices[d]).entries:
                raise AssertionError(f"{self.name}: boundary {d - 1} "
                                     f"after boundary {d} is not zero")


def group_ring_boundary(algebra: ChainAlgebra, space: str, k: int) -> dict:
    """The degree-k boundary of a space as a matrix over the integral
    group ring: {(row, col, t): coeff}, nonzero coefficients only, with
    row and col the positions in the degree k - 1 and degree k bases of
    that space and t the reflection position of the group element, or -1
    for the identity.

    Columns of the group-tensored complexes (FQ, FQ0, M) multiply their
    group slot on the right by these elements; FP and MW map every
    element to 1.  No element is enumerated.
    """
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    fibre = space in FIBRE_SPACES
    coords_of = algebra.cycle_coords if fibre else algebra.chain_coords
    acc: dict = {}
    for col, label in enumerate(algebra.labels(k, fibre)):
        for i in range(k):
            sign = -1 if i % 2 else 1
            t = label[i]
            for row, c in coords_of(
                    algebra.deleted_conjugate(label, i), k - 1).items():
                key = (row, col, t)
                acc[key] = acc.get(key, 0) + sign * c
    acc = {key: c for key, c in acc.items() if c}
    if not fibre:  # t = -1 is never a reflection position
        for (row, col), c in _plain_deletion(algebra, k).items():
            acc[row, col, -1] = -c
    return acc


def _plain_deletion(algebra: ChainAlgebra, k: int) -> dict:
    """The alternating sum of plain deletions on the degree-k full basis,
    {(row, col): (-1)^i} for dropping entry i of column label col.

    Dropping entry i of a decreasing factorization of w <= gamma leaves a
    decreasing factorization one rank down: Hurwitz moves carry the entry
    to the end of the word, so what remains is a reduced prefix of w.
    Each term is therefore one basis label with coefficient +-1, read by
    lookup with no coordinate solve, and distinct entries leave distinct
    labels, so no two terms meet."""
    row_of = {label: row
              for row, label in enumerate(algebra.labels(k - 1, False))}
    return {(row_of[label[:i] + label[i + 1:]], col): -1 if i % 2 else 1
            for col, label in enumerate(algebra.labels(k, False))
            for i in range(k)}


def build_complex(algebra: ChainAlgebra, space: str,
                  cap: int = DEFAULT_GROUP_CAP) -> ChainComplex:
    """The complex of one space: the group-ring boundary of every degree,
    with its unit entries eliminated over Z[W] for the group-tensored
    spaces, tensored with the space's coefficient module."""
    form = _GroupRingComplex(algebra, space, cap)
    if form.slots is not None:
        form.reduce()
    return form.tensor()


def _unreduced_complex(algebra: ChainAlgebra, space: str,
                       cap: int = DEFAULT_GROUP_CAP) -> ChainComplex:
    """The complex of one space with every basis chain kept: what
    ``--dump-complex`` writes and the pinned digests fix."""
    return _GroupRingComplex(algebra, space, cap).tensor()


class _GroupRingComplex:
    """The boundaries of one space over the group ring, before the
    coefficient module: ``boundaries[k] = {(row, col, g): coeff}``, with
    row and col positions in ``chains[k - 1]`` and ``chains[k]``.

    For the group-tensored spaces g is an element's position in the
    sorted element list, and ``slots[k]`` lists the elements indexing the
    coefficient copies in degree k.  FP and MW have the trivial module
    (``slots`` is None) and keep the reflection position t, or -1 for
    the identity, which the module never reads.
    """

    def __init__(self, algebra: ChainAlgebra, space: str, cap):
        if space not in SPACES:
            raise ValueError(f"unknown space {space!r}")
        group = self.group = algebra.group
        self.space = space
        # Fibre complexes start at degree 1, complements at degree 0.
        fibre = space in FIBRE_SPACES
        self.degrees = list(range(int(fibre), group.rank + 1))
        self.slots = None
        if space not in ("FP", "MW"):
            self.elements = group.enumerate_elements(cap)
            self.slots = self._coefficient_slots()
        self.chains = {k: algebra.labels(k, fibre) for k in self.degrees}
        self.boundaries = {k: group_ring_boundary(algebra, space, k)
                           for k in self.degrees[1:]}
        if self.slots is not None:
            index = self.elements.index
            ids = [index(t) for t in group.reflection_keys]
            ids.append(index(group.identity))  # t = -1: identity
            self.boundaries = {
                k: {(row, col, ids[t]): c for (row, col, t), c in b.items()}
                for k, b in self.boundaries.items()}

    def _coefficient_slots(self) -> dict:
        """Every element in every degree for FQ and M; for FQ0, the
        elements whose parity is that of the degree."""
        everything = list(range(len(self.elements)))
        if self.space != "FQ0":
            return {k: everything for k in self.degrees}
        parity = self.group.parity
        halves = ([i for i, w in enumerate(self.elements) if parity(w) == 0],
                  [i for i, w in enumerate(self.elements) if parity(w) == 1])
        if len(halves[0]) != len(halves[1]):
            raise RuntimeError(f"{self.group.ctype}: {len(halves[0])} even "
                               f"and {len(halves[1])} odd elements")
        return {k: halves[k % 2] for k in self.degrees}

    # -- reduction over Z[W] ---------------------------------------------

    def reduce(self) -> None:
        """Eliminate unit entries until none is left, then renumber the
        kept basis chains."""
        kept = {k: list(range(len(chains)))
                for k, chains in self.chains.items()}
        cells = {k: {c: {} for c in kept[k]} for k in self.boundaries}
        for k, boundary in self.boundaries.items():
            for (row, col, g), c in boundary.items():
                cells[k][col].setdefault(row, {})[g] = c
        while True:
            pivot = _cheapest_unit(cells)
            if pivot is None:
                break
            k, c0, r0, g, sign = pivot
            self._eliminate(cells[k], c0, r0, g, sign)
            if k + 1 in cells:
                for col in cells[k + 1].values():
                    col.pop(c0, None)
            if k - 1 in cells:
                del cells[k - 1][r0]
            kept[k].remove(c0)
            kept[k - 1].remove(r0)
        self.chains = {k: tuple(self.chains[k][c] for c in kept[k])
                       for k in self.degrees}
        for k, cols in cells.items():
            row_of = {r: i for i, r in enumerate(kept[k - 1])}
            self.boundaries[k] = {
                (row_of[r], col, g): c
                for col, c0 in enumerate(kept[k])
                for r, cell in cols[c0].items() for g, c in cell.items()}

    def _eliminate(self, cols: dict, c0: int, r0: int, g: int,
                   sign: int) -> None:
        """Clear row r0 of one degree's cells by the unit u = sign * g at
        column c0, and drop that column:

            A'[c][r] = A[c][r] - A[c][r0] u^-1 A[c0][r],

        in this order of factors, because columns act on their group slot
        from the right.  Each product x y is read from the right-regular
        table of y."""
        pivot_col = cols.pop(c0)
        del pivot_col[r0]
        crossing = [(col, col.pop(r0)) for col in cols.values() if r0 in col]
        if not crossing:
            return
        right = self.elements.right
        inverse = right(self.elements.inverse(g))
        pivot_terms = [(r, [(right(y), w) for y, w in cell.items()])
                       for r, cell in pivot_col.items()]
        for col, through in crossing:
            left = [(inverse[x], sign * v) for x, v in through.items()]
            for r, terms in pivot_terms:
                entry = col.setdefault(r, {})
                for x, v in left:
                    for table, w in terms:
                        z = table[x]
                        total = entry.get(z, 0) - v * w
                        if total:
                            entry[z] = total
                        else:
                            del entry[z]
                if not entry:
                    del col[r]

    # -- tensoring with the coefficient module ---------------------------

    def tensor(self) -> ChainComplex:
        """The integer complex: each basis chain once for the trivial
        module, and once per slot otherwise, with slot w of a column
        sending each term c g of a cell to slot w g of its row.  Right
        multiplication by g is injective, so in the regular modules no two
        terms meet in one entry, and each is written directly; only the
        trivial module sums.  Raises ``TensorSizeExceeded`` before
        allocating if a boundary would exceed ``TENSOR_ENTRY_CAP``."""
        slots, chains = self.slots, self.chains
        for k in self.degrees[1:] if slots is not None else ():
            terms, copies = len(self.boundaries[k]), len(slots[k])
            if terms * copies > TENSOR_ENTRY_CAP:
                raise TensorSizeExceeded(
                    f"{self.space} of {self.group.ctype}: boundary {k} "
                    f"needs {terms * copies} entries ({terms} terms x "
                    f"{copies} slots), over the cap {TENSOR_ENTRY_CAP}")
        labels = chains if slots is None else {
            k: tuple((wi, lab) for wi in range(len(slots[k]))
                     for lab in chains[k])
            for k in self.degrees}
        dims = {k: len(labels[k]) for k in self.degrees}
        matrices = {}
        for k in self.degrees[1:]:
            matrix = matrices[k] = BoundaryMatrix(dims[k - 1], dims[k])
            entries = matrix.entries
            if slots is None:
                for (row, col, _), c in self.boundaries[k].items():
                    total = entries.get((row, col), 0) + c
                    if total:
                        entries[row, col] = total
                    else:
                        del entries[row, col]
                continue
            width, prev_width = len(chains[k]), len(chains[k - 1])
            offsets = range(0, width * len(slots[k]), width)
            position = None  # FQ and M: every element is a slot, in order
            if self.space == "FQ0":
                position = [None] * len(self.elements)
                for i, w in enumerate(slots[k - 1]):
                    position[w] = i
            table: dict = {}  # element -> first row of every slot's target
            for (row, col, g), c in self.boundaries[k].items():
                starts = table.get(g)
                if starts is None:
                    starts = table[g] = [
                        target * prev_width
                        for target in self._targets(k, g, position)]
                for start, offset in zip(starts, offsets):
                    entries[start + row, offset + col] = c
        return ChainComplex(self.space, self.degrees, dims, matrices, labels)

    def _targets(self, k: int, g: int, position) -> list:
        """The position of w g among the degree k - 1 slots, for each slot
        w of degree k; ``position`` maps an element to its degree k - 1
        slot (None off the parity half), or is None when every element is
        a slot."""
        product = self.elements.right(g)
        if position is None:
            return product
        targets = [position[product[w]] for w in self.slots[k]]
        if None in targets:
            raise RuntimeError(
                f"{self.space} of {self.group.ctype}: a degree-{k} "
                f"boundary entry has an element of parity "
                f"{self.group.parity(self.elements[g])}, which takes the "
                f"degree-{k} parity half outside the degree-{k - 1} "
                f"half")
        return targets


def _cheapest_unit(cells: dict):
    """The unit entry +-g of least Markowitz cost weighted by support
    size, (support sum of its column - 1) * (support sum of its row - 1),
    ties to the lowest (degree, col, row); as (degree, col, row, g, sign),
    or None."""
    best = None
    for k, cols in cells.items():
        row_weight: dict = {}
        col_weight = {}
        units = []  # the unit cells, collected while weighing
        for c, col in cols.items():
            total = 0
            for r, entry in col.items():
                size = len(entry)
                total += size
                row_weight[r] = row_weight.get(r, 0) + size
                if size == 1:
                    (g, v), = entry.items()
                    if v == 1 or v == -1:
                        units.append((c, r, g, v))
            col_weight[c] = total
        for c, r, g, v in units:
            key = ((col_weight[c] - 1) * (row_weight[r] - 1), k, c, r, g, v)
            if best is None or key < best:
                best = key
    return None if best is None else best[1:]


def build_algebra_complex(algebra: ChainAlgebra) -> ChainComplex:
    """The algebra with its own differential, each basis chain sent to
    its interval cycle one degree down: the identity part (t = -1) of the
    degree-k MW boundary times (-1)^k, which is the plain-deletion sum
    times (-1)^(k + 1).  The complex is acyclic over the integers; its
    degreewise differential ranks equal the cycle-basis sizes."""
    degrees = list(range(algebra.group.rank + 1))
    labels = {k: algebra.labels(k, False) for k in degrees}
    dims = {k: len(labels[k]) for k in degrees}
    matrices = {}
    for k in degrees[1:]:
        sign = 1 if k % 2 else -1
        matrices[k] = BoundaryMatrix(dims[k - 1], dims[k], {
            key: sign * c for key, c in _plain_deletion(algebra, k).items()})
    return ChainComplex("B", degrees, dims, matrices, labels)


# -- group-ring checks ----------------------------------------------------

def group_ring_square_is_zero(algebra: ChainAlgebra, space: str) -> bool:
    """Exact check of boundary-of-boundary = 0 in group-ring form."""
    group = algebra.group
    elements = group.reflection_keys + (group.identity,)  # t = -1: identity
    low = 1 if space in FIBRE_SPACES else 0
    product_cache: dict = {}
    for k in range(low + 2, group.rank + 1):
        by_mid: dict = {}
        for (r, mid, t_low), c_low in group_ring_boundary(
                algebra, space, k - 1).items():
            by_mid.setdefault(mid, []).append((r, t_low, c_low))
        square: dict = {}
        for (mid, c, t_up), c_up in group_ring_boundary(algebra, space,
                                                         k).items():
            for r, t_low, c_low in by_mid.get(mid, ()):
                elem = product_cache.get((t_up, t_low))
                if elem is None:
                    elem = product_cache[t_up, t_low] = group.multiply(
                        elements[t_up], elements[t_low])
                key = (r, c, elem)
                square[key] = square.get(key, 0) + c_up * c_low
        if any(square.values()):
            return False
    return True


def fibre_support_is_reflections(algebra: ChainAlgebra) -> bool:
    """Every group element in the formal FQ boundary is one reflection:
    no term has the identity, t = -1.

    Together with right multiplication this shows the degree-parity
    restriction is a subcomplex and that left translation by any odd
    element matches the two parity blocks, so FQ computes the FQ0 answer
    doubled."""
    return all(t >= 0
               for k in range(2, algebra.group.rank + 1)
               for _, _, t in group_ring_boundary(algebra, "FQ", k))
