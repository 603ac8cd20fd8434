"""Possibly-complemented finite index sets and the operations on them.

Subsets of {0, ..., space-1} stored either as an explicit member set or as
the complement of one. Complementation is O(1) and unions/intersections go
through De Morgan, so expressions like -(-a | -b) never materialize the
ambient space. Only enumeration materializes, and it is guarded: spaces here
can be as large as |universe|^2.

A state set lives over a space of 2^bits indices, a pair set over 2^(2*bits)
codes with the pair (i, j) coded as (i << bits) | j. Projection, the two
images of a pair set and the preimage of a state set are all existentials
over some bits of a code, and share one complement rule (`_classes`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Collection, Iterable, Iterator

from .errors import CapExceeded

# Hard ceiling on how many indices a single operation may materialize.
MATERIALIZE_LIMIT = 4_000_000


class IndexSet:
    """Immutable subset of range(space), possibly stored complemented."""

    __slots__ = ("space", "members", "negated")

    def __init__(self, space: int, members: Iterable[int] = (), negated: bool = False):
        self.space = space
        self.members = frozenset(members)
        self.negated = negated

    @classmethod
    def empty(cls, space: int) -> "IndexSet":
        return cls(space)

    @classmethod
    def full(cls, space: int) -> "IndexSet":
        return cls(space, (), negated=True)

    def __len__(self) -> int:
        return self.space - len(self.members) if self.negated else len(self.members)

    def __contains__(self, i: int) -> bool:
        return (i in self.members) != self.negated

    def __bool__(self) -> bool:
        return len(self) > 0

    def complement(self) -> "IndexSet":
        return IndexSet(self.space, self.members, not self.negated)

    def union(self, other: "IndexSet") -> "IndexSet":
        a, b = self, other
        if not a.negated and not b.negated:
            return IndexSet(a.space, a.members | b.members)
        if a.negated and b.negated:
            return IndexSet(a.space, a.members & b.members, negated=True)
        if b.negated:
            a, b = b, a
        # a negated, b plain: (U \ A) | B = U \ (A \ B)
        return IndexSet(a.space, a.members - b.members, negated=True)

    def intersection(self, other: "IndexSet") -> "IndexSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "IndexSet") -> "IndexSet":
        return self.intersection(other.complement())

    def issubset(self, other: "IndexSet") -> bool:
        a, b = self, other
        if not a.negated and not b.negated:
            return a.members <= b.members
        if not a.negated and b.negated:
            return a.members.isdisjoint(b.members)
        if a.negated and b.negated:
            return b.members <= a.members
        # (U \ A) <= B  iff  U \ B <= A  iff  |A | B| = space
        return len(a.members | b.members) == a.space

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        if self.space != other.space:
            return False
        if self.negated == other.negated:
            return self.members == other.members
        return len(self.members) + len(other.members) == self.space and self.members.isdisjoint(
            other.members
        )

    def __hash__(self) -> int:  # weak but consistent with the semantic __eq__
        return hash((self.space, len(self)))

    def indices(self) -> Iterator[int]:
        """Ascending iteration; materializes complements (guarded)."""
        if not self.negated:
            yield from sorted(self.members)
            return
        _check_size(len(self), self.space)
        skip = self.members
        for i in range(self.space):
            if i not in skip:
                yield i

    def __repr__(self) -> str:
        sign = "~" if self.negated else ""
        return f"IndexSet({sign}{len(self.members)} of {self.space})"


def submasks(mask: int) -> Iterator[int]:
    """All submasks of a bitmask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _check_size(count: int, space: int) -> None:
    if count > MATERIALIZE_LIMIT:
        raise CapExceeded(
            f"materializing {count} of {space} indices exceeds the "
            f"enumeration limit ({MATERIALIZE_LIMIT})"
        )


def cylinder(space: int, keys: Collection[int], free_mask: int) -> IndexSet:
    """{k | f : k in keys, f a submask of free_mask}; keys are clear on free_mask.

    The would-be size is checked against the limit before anything is
    enumerated.
    """
    _check_size(len(keys) << free_mask.bit_count(), space)
    subs = list(submasks(free_mask))
    return IndexSet(space, [k | f for k in keys for f in subs])


def _classes(codes: Iterable[int], negated: bool, keep_mask: int, class_size: int) -> set[int]:
    """Keys (code & keep_mask) of the classes of codes that agree on keep_mask.

    For a positive set, `codes` are its members and the result keys the
    classes they meet. For a complemented set, `codes` are the removed codes
    and a class survives unless all `class_size` of its codes were removed:
    the result keys the dead classes, and the caller complements.
    """
    if not negated:
        return {c & keep_mask for c in codes}
    removed = Counter(c & keep_mask for c in codes)
    return {k for k, count in removed.items() if count == class_size}


def project(iset: IndexSet, free_mask: int) -> IndexSet:
    """{i : some j in iset agrees with i outside free_mask}."""
    keys = _classes(iset.members, iset.negated, ~free_mask, 1 << free_mask.bit_count())
    out = cylinder(iset.space, keys, free_mask)
    return out.complement() if iset.negated else out


def _half_bits(pair_space: int) -> int:
    return (pair_space.bit_length() - 1) // 2


def sources(pairs: IndexSet) -> IndexSet:
    """{i : (i, j) in pairs for some j}."""
    bits = _half_bits(pairs.space)
    keys = _classes(pairs.members, pairs.negated, -1 << bits, 1 << bits)
    return IndexSet(1 << bits, (k >> bits for k in keys), pairs.negated)


def targets(pairs: IndexSet) -> IndexSet:
    """{j : (i, j) in pairs for some i}."""
    bits = _half_bits(pairs.space)
    keys = _classes(pairs.members, pairs.negated, (1 << bits) - 1, 1 << bits)
    return IndexSet(1 << bits, keys, pairs.negated)


def preimage(pairs: IndexSet, states: IndexSet) -> IndexSet:
    """{i : (i, j) in pairs for some j in states}."""
    bits = _half_bits(pairs.space)
    if not states:
        return IndexSet.empty(1 << bits)
    low = (1 << bits) - 1
    hits = (c for c in pairs.members if (c & low) in states)
    keys = _classes(hits, pairs.negated, -1 << bits, len(states))
    return IndexSet(1 << bits, (k >> bits for k in keys), pairs.negated)


def diagonal(states: IndexSet) -> IndexSet:
    """{(i, i) : i in states}, over the pair space of the states' space."""
    bits = states.space.bit_length() - 1
    return IndexSet(states.space << bits, [(i << bits) | i for i in states.indices()])


def restrict(pairs: IndexSet, states: IndexSet, side: int) -> IndexSet:
    """Pairs whose side-th component (0 = source, 1 = target) lies in states."""
    bits = _half_bits(pairs.space)
    low = (1 << bits) - 1
    if not pairs.negated:
        if side == 0:
            return IndexSet(pairs.space, (c for c in pairs.members if (c >> bits) in states))
        return IndexSet(pairs.space, (c for c in pairs.members if (c & low) in states))
    # complemented: every pair with that side in states, less the removed ones
    if side == 0:
        side_pairs = cylinder(pairs.space, [s << bits for s in states.indices()], low)
    else:
        side_pairs = cylinder(pairs.space, list(states.indices()), low << bits)
    return side_pairs.intersection(pairs)


def compose(a: IndexSet, b: IndexSet) -> IndexSet:
    """{(i, k) : (i, j) in a and (j, k) in b for some j}."""
    bits = _half_bits(a.space)
    low = (1 << bits) - 1
    rows_into: dict[int, list[int]] = defaultdict(list)
    for code in a.indices():
        rows_into[code & low].append(code & ~low)
    members: set[int] = set()
    for code in b.indices():
        j = code & low
        for row in rows_into.get(code >> bits, ()):
            members.add(row | j)
        if len(members) > MATERIALIZE_LIMIT:
            raise CapExceeded(f"composition exceeds the enumeration limit ({MATERIALIZE_LIMIT})")
    return IndexSet(a.space, members)
