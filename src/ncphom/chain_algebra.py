"""Signed factorization chains: the Hurwitz action, the antisymmetrized
chains attached to reduced factorizations, their interval cycles, the
shuffle product, and unitriangular basis reduction.

A chain is a dict mapping label sequences (tuples of 0-based reflection
positions) to nonzero integers.  The central constructions:

- ``alternating_chain(s)``: the signed sum over the full braid-lifted
  permutation orbit of s, computed by the first-entry recursion

      sum_i (-1)^(i-1) (t_i, alternating_chain(t_1^{t_i}, ..., t_{i-1}^{t_i},
                                               t_{i+1}, ..., t_k))

  with memoization on subsequences,
- ``interval_cycle(s)``: the same recursion stopped when one entry is
  left, which contributes the empty key.  This is exactly the alternating
  chain with the last entry of every key dropped: dropping it commutes
  with prepending t_i, and no two keys merge, since every key multiplies
  to the product of s and so forces its last entry.  It is a
  top-homology cycle of the open interval under the product of s,
- ``shuffle_product``: the signed shuffle with braid-lifted crossings; the
  product of two single-entry chains recovers alternating_chain of the pair,
- ``reduced_product``: shuffle followed by projection onto keys that are
  reduced with product inside the lattice (the algebra multiplication).

Every basis is unitriangular: each expansion has its lex-maximal key,
the basis entry's leading key, with coefficient 1, and the leading keys
are distinct.  A basis also keeps each expansion restricted to the
leading keys, a unitriangular matrix, and coordinates are found by one
solve:

- ``leading_coords``, the triangular solve: the chain is read at the
  leading keys only and back-substituted in descending key order.  Both
  ``cycle_coords`` (FP, FQ, FQ0) and ``chain_coords`` (M, MW) use it, in
  the basis whose degree is the length of the sequence.  It trusts the
  chain to lie in the span and only rejects one whose maximal key is not
  a leading key.
- ``coords_in_basis``, the peel, is the check: repeatedly take the
  residual's maximal key, look up the entry leading there and subtract
  its whole expansion.  It reads every key and raises on any chain
  outside the span.  Only the span-equality invariant and the tests call
  it.

Where only the labels of a basis are read (the top degree of every
space, the plain deletions, the algebra complex), they come from
``labels``, and no expansion is built.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush

from .lattice import PartitionLattice

Chain = dict  # tuple[int, ...] -> int


def add_into(target: Chain, key, coeff: int) -> None:
    new = target.get(key, 0) + coeff
    if new:
        target[key] = new
    else:
        target.pop(key, None)


def chain_sum(*parts) -> Chain:
    out: Chain = {}
    for chain, scale in parts:
        for key, c in chain.items():
            add_into(out, key, scale * c)
    return out


class ChainAlgebra:
    """Chain-level constructions over one partition lattice."""

    def __init__(self, lat: PartitionLattice):
        self.lat = lat
        self.group = lat.group
        self._chain_memo: tuple = ({}, {})  # one per cut
        self._product_memo: dict = {}
        self._labels_memo: dict = {}
        self._basis_memo: dict = {}
        self._coords_memo: dict = {}

    # -- Hurwitz action ------------------------------------------------------

    def hurwitz_move(self, seq, i: int, inverse: bool = False):
        """Braid generator i (0-based, acting on entries i, i+1)."""
        if not 0 <= i < len(seq) - 1:
            raise IndexError(f"move {i} out of range for length {len(seq)}")
        a, b = seq[i], seq[i + 1]
        conj = self.group.conjugate_position
        pair = (conj(b, a), a) if inverse else (b, conj(a, b))
        return seq[:i] + pair + seq[i + 2:]

    def deleted_conjugate(self, seq, i: int):
        """Drop entry i and conjugate every earlier entry by it; the result
        multiplies to t_i * product(seq)."""
        conj, ti = self.group.conjugate_position, seq[i]
        return tuple(conj(seq[j], ti) for j in range(i)) + seq[i + 1:]

    # -- the antisymmetrized chains ------------------------------------------

    def alternating_chain(self, seq) -> Chain:
        return self._chain(tuple(seq), 0)

    def interval_cycle(self, seq) -> Chain:
        return self._chain(tuple(seq), 1)

    def _chain(self, seq, cut: int) -> Chain:
        """The first-entry recursion, stopped when ``cut`` entries are
        left: the alternating chain at cut 0, the interval cycle at 1."""
        if len(seq) <= cut:
            return {(): 1}
        memo = self._chain_memo[cut]
        out = memo.get(seq)
        if out is not None:
            return out
        out = {}
        for i, ti in enumerate(seq):
            sign = -1 if i % 2 else 1
            for key, c in self._chain(self.deleted_conjugate(seq, i),
                                      cut).items():
                add_into(out, (ti,) + key, sign * c)
        memo[seq] = out
        return out

    # -- shuffle product -----------------------------------------------------

    def _star_keys(self, s, u):
        """Signed keys of the shuffle of two label sequences."""
        if not s:
            yield u, 1
            return
        if not u:
            yield s, 1
            return
        head_s = s[0]
        for key, sign in self._star_keys(s[1:], u):
            yield (head_s,) + key, sign
        factor = -1 if len(s) % 2 else 1
        head_u = u[0]
        conj_s = tuple(self.group.conjugate_position(a, head_u) for a in s)
        for key, sign in self._star_keys(conj_s, u[1:]):
            yield (head_u,) + key, factor * sign

    def shuffle_product(self, x: Chain, y: Chain) -> Chain:
        out: Chain = {}
        for s, cs in x.items():
            for u, cu in y.items():
                coeff = cs * cu
                for key, sign in self._star_keys(s, u):
                    add_into(out, key, sign * coeff)
        return out

    def _reduced_lattice_id(self, seq):
        """Lattice id of product(seq) when seq is reduced with product in
        the lattice, else None: the end of the walk up the cover edges
        labelled by seq, which exists exactly then, since every prefix of
        a reduced factorization of v is below v."""
        memo = self._product_memo
        if seq in memo:
            return memo[seq]
        vid = self.lat.identity_id
        for tpos in seq:
            vid = next((wid for label, wid in self.lat.upper_covers[vid]
                        if label == tpos), None)
            if vid is None:
                break
        memo[seq] = vid
        return vid

    def reduced_product(self, x: Chain, y: Chain) -> Chain:
        """The shuffle product without the keys that are non-reduced or
        whose product leaves the lattice."""
        return {key: c for key, c in self.shuffle_product(x, y).items()
                if self._reduced_lattice_id(key) is not None}

    def generator(self, tpos: int) -> Chain:
        return {(tpos,): 1}

    # -- bases ---------------------------------------------------------------

    def labels(self, k: int, fibre: bool) -> tuple:
        """Labels of the degree-k basis, lex order, without expansions:
        the rank-prefix sequences of length k for a cycle (fibre) basis,
        the decreasing factorizations at rank k for a full basis."""
        out = self._labels_memo.get((k, fibre))
        if out is None:
            out = self._labels_memo[k, fibre] = (
                self.lat.rank_prefix_basis(k - 1) if fibre else tuple(sorted(
                    seq for wid in self.lat.rank_row(k)
                    for seq in self.lat.decreasing_factorizations(wid))))
        return out

    def full_basis(self, k: int) -> "GradedBasis":
        """Basis of the degree-k algebra component: the antisymmetrized
        chains of all decreasing factorizations at rank k."""
        return self._basis(k, False)

    def cycle_basis(self, k: int) -> "GradedBasis":
        """Basis of the truncation image in degree k - 1: cycles of the
        rank-prefix sequences, whose maximal key drops the final entry."""
        return self._basis(k, True)

    def _basis(self, k: int, fibre: bool) -> "GradedBasis":
        """The degree-k basis of either kind, each expansion also kept at
        the leading keys of the others.  An expansion's leading key is its
        label cut to the chain degree of the expansion."""
        out = self._basis_memo.get((k, fibre))
        if out is not None:
            return out
        labels = self.labels(k, fibre)
        expand = self.interval_cycle if fibre else self.alternating_chain
        expansions = tuple(expand(s) for s in labels)
        width = k - 1 if fibre else k
        max_key_to_pos = {s[:width]: p for p, s in enumerate(labels)}
        leading = tuple(
            tuple((q, c) for key, c in expansion.items()
                  if (q := max_key_to_pos.get(key)) is not None and q != p)
            for p, expansion in enumerate(expansions))
        out = self._basis_memo[k, fibre] = GradedBasis(
            k, labels, expansions, max_key_to_pos, leading)
        return out

    def cycle_coords(self, seq):
        """Sparse coordinates {position: coeff} of the interval cycle of a
        reduced sequence in the cycle basis of the sequence's length."""
        return self._coords(tuple(seq), True)

    def chain_coords(self, seq):
        """Sparse coordinates {position: coeff} of the alternating chain of
        a reduced sequence in the full basis of the sequence's length."""
        return self._coords(tuple(seq), False)

    def _coords(self, seq, fibre: bool):
        key = (seq, fibre)
        out = self._coords_memo.get(key)
        if out is None:
            chain = (self.interval_cycle if fibre
                     else self.alternating_chain)(seq)
            basis = (self.cycle_basis if fibre else self.full_basis)(len(seq))
            out = self._coords_memo[key] = self.leading_coords(chain, basis)
        return out

    def coords_in_basis(self, chain: Chain, basis: "GradedBasis"):
        """Exact sparse coordinates {position: coeff} of a chain in a
        unitriangular basis, by peeling whole expansions; raises
        ``ValueError`` on any chain outside the span."""
        residual = dict(chain)
        coords = {}
        while residual:
            key = max(residual)
            pos = basis.max_key_to_pos.get(key)
            if pos is None:
                raise ValueError(f"chain not in span: stuck at key {key}")
            c = residual[key]
            coords[pos] = c
            for bkey, bc in basis.expansions[pos].items():
                add_into(residual, bkey, -c * bc)
        return coords

    def leading_coords(self, chain: Chain, basis: "GradedBasis"):
        """Sparse coordinates {position: coeff} of a chain in the span of
        a basis, by back-substitution on the leading keys: the chain is
        read at those keys only, and positions are solved from the highest
        down, since each entry's restricted expansion reaches only lower
        positions.  Raises ``ValueError`` when the chain's
        maximal key is not a leading key; other chains outside the span
        are not detected."""
        pos_of = basis.max_key_to_pos
        if chain and max(chain) not in pos_of:
            raise ValueError(f"chain not in span: stuck at key {max(chain)}")
        residual = {}
        for key, c in chain.items():
            pos = pos_of.get(key)
            if pos is not None:
                residual[pos] = c
        todo = [-pos for pos in residual]
        heapify(todo)
        coords = {}
        while todo:
            pos = -heappop(todo)
            c = residual.pop(pos)
            if not c:
                continue
            coords[pos] = c
            for q, bc in basis.leading[pos]:
                old = residual.get(q)
                if old is None:
                    residual[q] = -c * bc
                    heappush(todo, -q)
                else:
                    residual[q] = old - c * bc
        return coords


class GradedBasis(namedtuple(
        "GradedBasis", "degree labels expansions max_key_to_pos leading")):
    """An ordered unitriangular basis of one graded piece.

    ``max_key_to_pos`` sends the lex-maximal expansion key of each entry
    (its leading key) to its position.  ``leading[p]`` is expansion p at
    the other entries' leading keys, as (position, coeff) pairs, all below
    p: the triangular solve reads only these.  The whole expansions serve
    the peel, the check of that solve.
    """

    __slots__ = ()
