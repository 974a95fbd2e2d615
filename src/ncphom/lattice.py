"""The noncrossing partition lattice: the absolute-order interval under the
bipartite Coxeter element.

Elements are collected by downward closure from the top: the lower covers of
v are exactly the products v t over reflections t that drop the reflection
length by one, and iterating reaches every element of the interval.  At
each element u the closure tries only candidate reflections, and no cover
is missed: a reflection below u is below every upper cover v of u, so it
is the label of a lower cover of v; and the label t of the edge from v
down to u = v t is never below u, since u t = v is longer than u.  So the
candidates at u are the intersection, over its upper covers v, of the
labels of lower covers of v, less the label of the edge from v.  The
closure goes rank by rank, so every upper cover of u is finished before u;
at gamma every reflection is a candidate.  Each candidate is tested by
its product's reflection length.  All order data is then derived
combinatorially:

- containment bitsets (one integer bitmask per element) by a rank-by-rank
  sweep over cover edges, making every leq test O(1),
- cover labels: the edge u < v carries the reflection u^{-1} v, which for the
  closure edge u = v t is t itself,
- the reflections below v, which are exactly the labels of its lower covers:
  t <= v when l(v t) = l(v) - 1, since t v = t (v t) t has the length of v t,
- factorizations by one memoized last-letter peeling with an optional
  floor: the reduced factorizations of v ending in t are those of u
  followed by t, for the lower cover (t, u) of v; with a floor f, only
  labels t > f are peeled and u is peeled with floor t, which gives the
  strictly decreasing ones with every entry above f,
- the unique increasing maximal chain of any interval by greedy least-label
  steps (its uniqueness is a property test, not an assumption of the code),
- Moebius values by recursion over the bitsets.

Factorizations are stored as tuples of 0-based reflection positions in the
fixed reflection order; "lex" always means entrywise comparison of those
position tuples.
"""

from __future__ import annotations

from .coxgroup import CoxeterGroup


def _require(ok, message: str) -> None:
    """An answer check that still runs under ``python -O``."""
    if not ok:
        raise RuntimeError(message)


class PartitionLattice:
    """The interval [identity, gamma] in absolute order, fully indexed."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.n = group.reflection_length(group.gamma)
        _require(self.n == group.ctype.rank,
                 "the Coxeter element must have full reflection length")

        # downward closure from gamma, rank by rank; candidates[u] is a
        # bitmask of reflection positions, narrowed by each upper cover
        rank_of = {group.gamma: self.n}
        lower = {group.gamma: []}
        candidates = {group.gamma: (1 << group.num_reflections) - 1}
        frontier = [group.gamma]
        while frontier:
            new = []
            for v in frontier:
                r = rank_of[v]
                labels = 0
                for tpos in self._bit_ids(candidates.pop(v)):
                    u = group.multiply(v, group.reflection(tpos))
                    if group.reflection_length(u) != r - 1:
                        continue
                    labels |= 1 << tpos
                    lower[v].append((tpos, u))
                    if u not in rank_of:
                        rank_of[u] = r - 1
                        lower[u] = []
                        new.append(u)
                for tpos, u in lower[v]:
                    allowed = labels & ~(1 << tpos)
                    candidates[u] = candidates.get(u, allowed) & allowed
            frontier = new
        _require(rank_of.get(group.identity) == 0,
                 "the downward closure must reach the identity")

        # ids ascend by (rank, key); interval_ids and mobius rely on it
        self.keys = sorted(rank_of, key=lambda key: (rank_of[key], key))
        self.size = len(self.keys)
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.rank = [rank_of[key] for key in self.keys]
        self.by_rank = [[] for _ in range(self.n + 1)]
        for i, r in enumerate(self.rank):
            self.by_rank[r].append(i)
        _require(len(self.by_rank[1]) == group.num_reflections,
                 "every reflection must be an atom")
        self.identity_id = self.index[group.identity]
        self.gamma_id = self.index[group.gamma]

        self.lower_covers = [sorted((tpos, self.index[u])
                                    for tpos, u in lower[key])
                             for key in self.keys]
        self.upper_covers = [[] for _ in range(self.size)]
        for vid in range(self.size):
            for tpos, uid in self.lower_covers[vid]:
                self.upper_covers[uid].append((tpos, vid))
        for row in self.upper_covers:
            row.sort()

        _require(sorted(tpos for aid in self.by_rank[1]
                        for tpos, _ in self.lower_covers[aid])
                 == list(range(group.num_reflections)),
                 "every reflection must label exactly one atom")

        # leq bitsets, swept upward by rank
        bits = [0] * self.size
        for i in range(self.size):
            b = 1 << i
            for _, uid in self.lower_covers[i]:
                b |= bits[uid]
            bits[i] = b
        self.leq_bits = bits

        self._factorization_memo: dict = {}
        self._mobius: list | None = None

    # -- order ---------------------------------------------------------------

    def leq(self, uid: int, vid: int) -> bool:
        return bool(self.leq_bits[vid] >> uid & 1)

    def rank_row(self, k: int):
        return self.by_rank[k]

    def interval_ids(self, uid: int, vid: int):
        """All ids in [u, v], ascending by (rank, id): ids are assigned
        rank by rank and ``_bit_ids`` yields them ascending, so no sort is
        needed."""
        return [wid for wid in self._bit_ids(self.leq_bits[vid])
                if self.leq(uid, wid)]

    def _bit_ids(self, bitmask: int):
        while bitmask:
            low = bitmask & -bitmask
            yield low.bit_length() - 1
            bitmask ^= low

    def atoms_below(self, vid: int):
        """Labels (reflection positions) of the atoms below v, ascending."""
        return [tpos for tpos, _ in self.lower_covers[vid]]

    # -- factorizations ------------------------------------------------------

    def _factorizations(self, vid: int, floor: int | None):
        """Reduced factorizations of v, lex order: all of them for floor
        None, else the strictly decreasing ones with entries > floor."""
        state = (vid, floor)
        out = self._factorization_memo.get(state)
        if out is None:
            out = ((),) if vid == self.identity_id else tuple(sorted(
                rest + (tpos,)
                for tpos, uid in self.lower_covers[vid]
                if floor is None or tpos > floor
                for rest in self._factorizations(
                    uid, None if floor is None else tpos)))
            self._factorization_memo[state] = out
        return out

    def reduced_factorizations(self, vid: int):
        """All reduced factorizations of v, as label tuples, lex order."""
        return self._factorizations(vid, None)

    def decreasing_factorizations(self, vid: int, floor: int = -1):
        """Strictly decreasing reduced factorizations (entries > floor),
        lex order."""
        return self._factorizations(vid, floor)

    # -- chains and bases ----------------------------------------------------

    def increasing_chain(self, uid: int, vid: int):
        """Label sequence of the lex-first maximal chain from u to v, built
        by greedy least-label steps; raises if some step has no way up."""
        labels = []
        cur = uid
        while cur != vid:
            step = next(((tpos, wid) for tpos, wid in self.upper_covers[cur]
                         if self.leq(wid, vid)), None)
            if step is None:
                raise ValueError("no chain upward; not a lattice interval")
            labels.append(step[0])
            cur = step[1]
        return tuple(labels)

    def rank_prefix_basis(self, k: int):
        """The degree-(k+1) basis label sequences: decreasing factorizations
        of rank-k elements extended by the first label of the increasing
        chain up to gamma; lex-sorted.

        Each returned sequence has length k+1; the extension label must stay
        below every prefix entry, so the prefixes are the decreasing
        factorizations with that label as floor; the full increasing
        completion is checked to be strictly increasing.
        """
        seqs = []
        for wid in self.by_rank[k]:
            completion = self.increasing_chain(wid, self.gamma_id)
            _require(completion, "rank below top must reach gamma")
            _require(all(a < b for a, b in zip(completion, completion[1:])),
                     "greedy completion must be increasing")
            first = completion[0]
            seqs.extend(prefix + (first,) for prefix
                        in self.decreasing_factorizations(wid, first))
        return tuple(sorted(seqs))

    def mobius(self, vid: int) -> int:
        """Moebius value mu(identity, v)."""
        if self._mobius is None:
            mob = [0] * self.size
            for wid in range(self.size):  # ids ascend with rank
                if wid == self.identity_id:
                    mob[wid] = 1
                    continue
                below = 0
                for uid in self._bit_ids(self.leq_bits[wid] & ~(1 << wid)):
                    below += mob[uid]
                mob[wid] = -below
            self._mobius = mob
        return self._mobius[vid]
