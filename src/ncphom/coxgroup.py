"""The finite Coxeter group behind a type: elements, lengths, absolute order.

Every element is keyed by its permutation of the 2N roots, as a tuple of
ints: positions 0..N-1 are the positive roots rho_1..rho_N in the fixed
reflection order, position N + k is -rho_{k+1}, and ``w[j]`` is the
position of w(root j).  Products and inverses are index arithmetic.

``enumerate_elements`` lists the whole group in sorted order and keeps
the products w s with the simple reflections that its breadth-first
search forms, as positions in that order.  From them an ``ElementList``
builds the right-regular table of an element on first use, so the
group-tensored complexes multiply positions, not permutations.

The simple reflections are permuted once at construction, as read off
the root closure in ``rootsys`` (or, for I2(m), from the angles of its
2m roots).  The Coxeter element is their product over the color classes,
and every other reflection is a gamma-conjugate along the root
recurrence, so reflection k is the one that swaps rho_k and -rho_k.

Reflection length is the codimension of the fixed space (Carter 1972),
worked out once per distinct element from its root permutation.  The
dimension of Fix(w) is the mean trace of the powers of w, and the
alpha_i coordinate of w^k(alpha_i), averaged over k, is its mean over
the cycle of alpha_i under w.  The sum of these means is exact in
integers over the lcm of the cycle lengths.  For H3 and H4 the
coordinates lie in Z[phi] = Z + Z phi; the sum is rational and 1, phi
are independent over Q, so only the integer halves are read.  I2(m)
reads its lengths off the permutation: rotations have length 2.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .rootsys import CoxeterType, RootSystem

DEFAULT_GROUP_CAP = 52000
_NAMED_RANK = 1000


class GroupCapExceeded(RuntimeError):
    """Raised when an operation would enumerate a group above the cap."""


def check_group_cap(ctype: CoxeterType, cap: int | None) -> None:
    """Raise ``GroupCapExceeded`` if |W| of a type exceeds the cap; None
    is no cap.  Reads the order off the type, so nothing is built.  Each
    degree is at least 2, so |W| >= 2^rank, and a rank of at least the
    cap's bit length is over the cap without its degrees being listed:
    a huge A, B or D rank never builds its degree tuple.  The message
    names |W| up to rank ``_NAMED_RANK``, whose orders print in under
    4300 digits (CPython's default limit on int-to-str conversion)."""
    if cap is None or (ctype.rank < cap.bit_length()
                       and ctype.group_order <= cap):
        return
    order = f" = {ctype.group_order}" if ctype.rank <= _NAMED_RANK else ""
    raise GroupCapExceeded(f"|W({ctype})|{order} exceeds the cap {cap}")


def _compose(a, b):
    return tuple([a[j] for j in b])


def _invert(a):
    inv = [0] * len(a)
    for j, x in enumerate(a):
        inv[x] = j
    return tuple(inv)


def _dihedral_simples(m: int):
    """s1, s2 of I2(m) on roots at angles k*pi/m (k < 2m, k < m positive):
    the reflection in root a sends root k to root 2a + m - k, and the
    simple roots are roots 0 and m - 1."""
    if m < 3:
        raise ValueError(f"I2({m}) is not supported: need m >= 3")
    return tuple(tuple((2 * a + m - k) % (2 * m) for k in range(2 * m))
                 for a in (0, m - 1))


class CoxeterGroup:
    """Group operations for one admissible irreducible type."""

    def __init__(self, ctype: CoxeterType):
        self.ctype = ctype
        self.rank = n = ctype.rank
        if ctype.is_dihedral:
            simples = _dihedral_simples(ctype.dihedral_order)
            classes = ((0,), (1,))
            self._codim = self._rotation_codim
        else:
            rs = RootSystem(ctype)
            simples = rs.simple_permutations
            classes = rs.color_classes
            self._roots = rs.roots
            self._simple_positions = rs.simple_positions
            self._codim = self._integer_codim

        self.num_reflections = total = len(simples[0]) // 2
        self.identity = tuple(range(2 * total))
        gamma = self.identity
        for cls in classes:
            for i in cls:
                gamma = _compose(gamma, simples[i])
        self.gamma = gamma
        power, order = gamma, 1
        while power != self.identity and order <= ctype.coxeter_number:
            power, order = _compose(power, gamma), order + 1
        if order != ctype.coxeter_number:
            raise RuntimeError(
                f"{ctype}: the Coxeter element does not have order "
                f"{ctype.coxeter_number}")
        gamma_inv = _invert(gamma)

        def conjugate(t):
            return _compose(_compose(gamma, t), gamma_inv)

        first, second = classes
        keys = [simples[i] for i in first]
        keys += [conjugate(simples[i]) for i in second]
        while len(keys) < total:
            keys.append(conjugate(keys[-n]))
        for k, t in enumerate(keys):
            if t[k] != k + total:
                raise RuntimeError(
                    f"{ctype}: reflection {k + 1} does not negate root {k + 1}")
        self.reflection_keys = tuple(keys)
        self._simples = simples
        self._length_cache: dict = {self.identity: 0}

    @classmethod
    def from_name(cls, name: str) -> "CoxeterGroup":
        return cls(CoxeterType.parse(name))

    # -- core operations -----------------------------------------------------

    def multiply(self, a, b):
        return tuple([a[j] for j in b])

    def inverse(self, a):
        return _invert(a)

    def reflection_length(self, a) -> int:
        cached = self._length_cache.get(a)
        if cached is None:
            cached = self._length_cache[a] = self._codim(a)
        return cached

    def _integer_codim(self, a) -> int:
        roots = self._roots
        fixed, common = 0, 1  # dim Fix(a) = fixed / common
        for i, s in enumerate(self._simple_positions):
            total, length, p = roots[s][i], 1, a[s]
            while p != s:
                total += roots[p][i]
                length += 1
                p = a[p]
            step = lcm(common, length)
            fixed = fixed * (step // common) + total * (step // length)
            common = step
        if fixed % common:
            raise RuntimeError(
                f"{self.ctype}: mean trace {fixed}/{common} is not an "
                "integer; the permutation is not a group element")
        return self.rank - fixed // common

    def _rotation_codim(self, a) -> int:
        if a == self.identity:
            return 0
        return 2 if (a[1] - a[0]) % len(a) == 1 else 1

    def absolute_leq(self, a, b) -> bool:
        """a <= b in absolute order: lengths add along a, a^{-1} b."""
        rest = self.multiply(self.inverse(a), b)
        return (self.reflection_length(a) + self.reflection_length(rest)
                == self.reflection_length(b))

    def parity(self, a) -> int:
        """0 for even elements (determinant +1), 1 for odd: the Coxeter
        length is the number of positive roots that a sends to negative
        ones, and each simple reflection has determinant -1."""
        total = self.num_reflections
        return sum(1 for x in a[:total] if x >= total) % 2

    # -- reflections ---------------------------------------------------------

    def reflection(self, position: int):
        """Element of the reflection at a 0-based position in the order."""
        return self.reflection_keys[position]

    def conjugate_position(self, i: int, j: int) -> int:
        """Position of t_i ^ t_j = t_j t_i t_j (0-based positions): the
        root of t_j t_i t_j is t_j(rho_i), up to sign."""
        return self.reflection_keys[j][i] % self.num_reflections

    def sequence_product(self, positions):
        """Product of reflections given by 0-based positions, left to right."""
        if not positions:
            return self.identity
        out = self.reflection_keys[positions[0]]
        for p in positions[1:]:
            out = self.multiply(out, self.reflection_keys[p])
        return out

    # -- enumeration ---------------------------------------------------------

    def enumerate_elements(self, cap: int = DEFAULT_GROUP_CAP):
        """All group elements in sorted order, as an ``ElementList``, by
        breadth-first search over products with simple reflections;
        raises GroupCapExceeded if |W| exceeds the cap."""
        check_group_cap(self.ctype, cap)
        order = self.ctype.group_order
        found = [self.identity]
        position = {self.identity: 0}
        last = [None]  # the s by which the search first reached each w
        steps = [[] for _ in self._simples]
        for i, w in enumerate(found):  # grows while it is read
            for s, (g, step) in enumerate(zip(self._simples, steps)):
                img = _compose(w, g)
                j = position.get(img)
                if j is None:
                    j = position[img] = len(found)
                    found.append(img)
                    last.append(s)
                step.append(j)
        if len(found) != order:
            raise RuntimeError(
                f"{self.ctype}: enumerated {len(found)} elements, "
                f"expected {order}")
        by_key = sorted(range(order), key=found.__getitem__)
        rank = [0] * order
        for new, old in enumerate(by_key):
            rank[old] = new
        for w, old in position.items():
            position[w] = rank[old]
        for step in steps:
            step[:] = [rank[step[old]] for old in by_key]
        return ElementList([found[old] for old in by_key], position, steps,
                           [last[old] for old in by_key])


class ElementList(Sequence):
    """The elements of a group in sorted order, multiplied as positions.

    ``steps[s][i]`` is the position of w_i s, for w_i the element at
    position i and s the simple reflection with index s: the products the
    breadth-first search formed.  ``right(g)`` is the right-regular table
    of the element at position g, the position of w_i g for every i.  It
    is built on first use from the search tree: the search first reached
    g as p s, so p = g s is ``steps[s][g]``, w_i g = (w_i p) s, and g's
    table is p's table read through ``steps[s]``.  Only the tables asked
    for and those of their search-tree ancestors are built, never all
    |W|^2 entries up front.
    """

    def __init__(self, elements, position, steps, last):
        self._elements = elements
        self._position = position
        self.steps = steps
        self._last = last  # None for the identity
        self._right: dict = {}

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(self, i):
        return self._elements[i]

    def __iter__(self):
        return iter(self._elements)

    def index(self, w) -> int:
        """The position of an element."""
        return self._position[w]

    def inverse(self, g: int) -> int:
        """The position of the inverse of the element at position g."""
        return self._position[_invert(self._elements[g])]

    def right(self, g: int) -> list:
        """The position of w_i g for every position i."""
        table = self._right.get(g)
        if table is None:
            s = self._last[g]
            if s is None:
                table = list(range(len(self._elements)))
            else:
                step = self.steps[s]
                table = list(map(step.__getitem__, self.right(step[g])))
            self._right[g] = table
        return table
