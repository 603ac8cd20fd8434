"""State sets as dense bitmaps, pair sets as sparse code sets, and the
operations on and between them.

A state set is a subset of {0, ..., space-1}, space = 2^bits, held in one int
whose bit i is set iff i is a member: union, intersection and complement are
single big-int operations, and projection is bit-parallel quantification over
per-bit column masks (Knuth, TAOCP 4A §7.1.3). A pair set lives over
2^(2*bits) codes, the pair (i, j) coded (i << bits) | j, too many for a
bitmap: it is an explicit member set or the complement of one, so complement
is O(1), unions and intersections go through De Morgan, and only enumeration
materializes. The code is known here alone: a pair set is built from and
read as (i, j) pairs, and its projection takes a state mask and applies it
to both components, as a state set's applies it to its one. Pair projection
and the image of a state set in either direction are existentials over some
bits of a code and share one complement rule (`_classes`).

Composition looks pairs up in an index of one operand (`PairSet.rows`),
built on first use, kept in the immutable set and dropped with it, so a
fixpoint or a power that meets the same operand every round indexes it
once. An index holds a dict of rows, one list per state that starts (or
ends) a pair, one list entry per pair and one int per distinct end: about
42 bytes per pair for 20,000 random pairs over 4,096 states (tracemalloc).
It is not charged to the budget, which counts the pairs themselves.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from typing import AbstractSet, Collection, Iterable, Iterator, Optional

from .errors import CapExceeded

# The one budget: how many indices an operation may materialize, and how many
# bytes a state bitmap may take (charged before it is built).
MATERIALIZE_LIMIT = 4_000_000

# _OFFSETS[b]: the positions of the set bits of the byte value b, ascending
_OFFSETS = tuple(tuple(k for k in range(8) if b >> k & 1) for b in range(256))


def _check_size(count: int, space: int) -> None:
    if count > MATERIALIZE_LIMIT:
        raise CapExceeded(
            f"materializing {count} of {space} indices exceeds the "
            f"enumeration limit ({MATERIALIZE_LIMIT})"
        )


def _bit_positions(mask: int) -> list[int]:
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


@functools.lru_cache(maxsize=1)
def _columns(bits: int) -> tuple[int, ...]:
    """cols[b] = the indices in range(2^bits) with bit b set, by doubling; for
    the last bit count only, bits * 2^bits / 8 bytes outside the budget."""
    cols = []
    for b in range(bits):
        col, width = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
        while width < 1 << bits:
            col |= col << width
            width <<= 1
        cols.append(col)
    return tuple(cols)


@functools.lru_cache(maxsize=1)
def _full_mask(space: int) -> int:
    """range(space) as a bitmap, for the last space only (space/8 bytes
    outside the budget): full sets and complements reuse it."""
    return (1 << space) - 1


class IndexSet:
    """Immutable subset of range(space): a state set, one bit per index."""

    __slots__ = ("space", "bitmap")

    def __init__(self, space: int, indices: Iterable[int] = ()):
        # the one charge for dense sets, made before any byte is allocated
        if space >> 3 > MATERIALIZE_LIMIT:
            raise CapExceeded(
                f"a state set over {space} indices takes {space >> 3} bytes, "
                f"over the limit ({MATERIALIZE_LIMIT})"
            )
        buf = None  # allocated at the first index, so an empty set costs none
        for i in indices:
            if buf is None:
                buf = bytearray((space + 7) >> 3)
            buf[i >> 3] |= 1 << (i & 7)
        self.space = space
        self.bitmap = 0 if buf is None else int.from_bytes(buf, "little")

    def _with(self, bitmap: int) -> "IndexSet":
        out = IndexSet.__new__(IndexSet)
        out.space = self.space
        out.bitmap = bitmap
        return out

    @classmethod
    def full(cls, space: int) -> "IndexSet":
        return cls(space)._with(_full_mask(space))

    def __len__(self) -> int:
        return self.bitmap.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.space and self.bitmap >> i & 1 == 1

    def __bool__(self) -> bool:
        return self.bitmap != 0

    def complement(self) -> "IndexSet":
        return self._with(self.bitmap ^ _full_mask(self.space))

    def union(self, other: "IndexSet") -> "IndexSet":
        return self._with(self.bitmap | other.bitmap)

    def intersection(self, other: "IndexSet") -> "IndexSet":
        return self._with(self.bitmap & other.bitmap)

    def difference(self, other: "IndexSet") -> "IndexSet":
        return self._with(self.bitmap & ~other.bitmap)

    def issubset(self, other: "IndexSet") -> bool:
        return self.bitmap & other.bitmap == self.bitmap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.space == other.space and self.bitmap == other.bitmap

    def __hash__(self) -> int:
        return hash((self.space, self.bitmap))

    def _bytes(self) -> bytes:
        """Byte view for membership tests in loops: index i is bit i & 7 of
        byte i >> 3. Testing `bitmap >> i` would cost O(space) per test."""
        return self.bitmap.to_bytes((self.space + 7) >> 3, "little")

    def indices(self) -> Iterator[int]:
        """Ascending iteration (guarded)."""
        _check_size(len(self), self.space)
        data = self._bytes()
        return iter([base + k for base, byte in zip(range(0, len(data) << 3, 8), data)
                     if byte for k in _OFFSETS[byte]])

    def project(self, free_mask: int) -> "IndexSet":
        """{i : some j in the set agrees with i outside free_mask}."""
        x, cols = self.bitmap, _columns(self.space.bit_length() - 1)
        for b in _bit_positions(free_mask):
            high = (x | x << (1 << b)) & cols[b]
            x = high | high >> (1 << b)
        return self._with(x)

    def __repr__(self) -> str:
        return f"IndexSet({len(self)} of {self.space})"


# a pair set's index before it is asked for: (rows as a left operand, as a right one)
_NO_ROWS: tuple[Optional[dict], Optional[dict]] = (None, None)


class PairSet:
    """Immutable set of pair codes, possibly stored complemented, with its
    composition index (see rows) once it is asked for."""

    __slots__ = ("space", "members", "negated", "index")

    def __init__(self, space: int, members: Iterable[int] = (), negated: bool = False):
        self.space = space
        self.members: AbstractSet[int] = frozenset(members)
        self.negated = negated
        self.index = _NO_ROWS

    @classmethod
    def _of(cls, space: int, members: AbstractSet[int], negated: bool = False) -> "PairSet":
        """A pair set over `members` as given, not copied: a set no one
        changes, shared by complements."""
        out = cls.__new__(cls)
        out.space, out.members, out.negated, out.index = space, members, negated, _NO_ROWS
        return out

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]] = ()) -> "PairSet":
        """The given (i, j) pairs over n = 2^bits states."""
        bits = n.bit_length() - 1
        return cls(n << bits, ((i << bits) | j for i, j in pairs))

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The (i, j) pairs in ascending order; materializes complements (guarded)."""
        bits = _half_bits(self.space)
        low = (1 << bits) - 1
        return ((c >> bits, c & low) for c in self.indices())

    def contains(self, i: int, j: int) -> bool:
        return ((i << _half_bits(self.space)) | j) in self

    def __len__(self) -> int:
        return self.space - len(self.members) if self.negated else len(self.members)

    def __contains__(self, code: int) -> bool:
        return (code in self.members) != self.negated

    def complement(self) -> "PairSet":
        return PairSet._of(self.space, self.members, not self.negated)

    def union(self, other: "PairSet") -> "PairSet":
        a, b = self, other
        if not a.negated and not b.negated:
            # `|` copies its left operand and adds the right one's members
            if len(a.members) < len(b.members):
                a, b = b, a
            return PairSet._of(a.space, a.members | b.members)
        if a.negated and b.negated:
            return PairSet._of(a.space, a.members & b.members, negated=True)
        if b.negated:
            a, b = b, a
        # a negated, b plain: (U \ A) | B = U \ (A \ B)
        return PairSet._of(a.space, a.members - b.members, negated=True)

    def intersection(self, other: "PairSet") -> "PairSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "PairSet") -> "PairSet":
        return self.intersection(other.complement())

    def issubset(self, other: "PairSet") -> bool:
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
        if not isinstance(other, PairSet):
            return NotImplemented
        return self.space == other.space and self.issubset(other) and other.issubset(self)

    def __hash__(self) -> int:  # weak but consistent with the semantic __eq__
        return hash((self.space, len(self)))

    def indices(self) -> Iterator[int]:
        """Ascending iteration; materializes complements (guarded)."""
        if not self.negated:
            yield from sorted(self.members)
            return
        _check_size(len(self), self.space)
        yield from (i for i in range(self.space) if i not in self.members)

    def codes(self) -> Iterable[int]:
        """The member codes in no order; materializes complements (guarded)."""
        return self.indices() if self.negated else self.members

    def rows(self, side: int) -> dict[int, list[int]]:
        """The index composition looks pairs up in, built on first use and
        kept as long as the set: for side 0 (the left operand) the sources
        of each target j, for side 1 (the right operand) the targets of each
        source j. Each end sits in its place in a code, so a composed code
        is one `|`."""
        rows = self.index[side]
        if rows is None:
            rows = _rows(self, side)
            self.index = (rows, self.index[1]) if side == 0 else (self.index[0], rows)
        return rows

    def project(self, free_mask: int) -> "PairSet":
        """{(i, j) : some (k, l) in the set agrees with (i, j) outside the
        state mask free_mask, in both components}."""
        free = (free_mask << _half_bits(self.space)) | free_mask
        keys = _classes(self.members, self.negated, ~free, 1 << free.bit_count())
        out = _pair_cylinder(self.space, keys, free)
        return out.complement() if self.negated else out

    def __repr__(self) -> str:
        sign = "~" if self.negated else ""
        return f"PairSet({sign}{len(self.members)} of {self.space})"


def submasks(mask: int) -> Iterator[int]:
    """All submasks of a bitmask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def cylinder(space: int, keys: Iterable[int], free_mask: int) -> IndexSet:
    """{k | f : k in keys, f a submask of free_mask}; keys are clear on free_mask.

    The keys' point set projected over the free bits: as the keys are clear
    there, the existential over bit b is one shift by 2^b.
    """
    out = IndexSet(space, keys)
    x = out.bitmap
    for b in _bit_positions(free_mask):
        x |= x << (1 << b)
    return out._with(x)


def _pair_cylinder(space: int, keys: Collection[int], free_mask: int) -> PairSet:
    """The sparse cylinder, refused by its would-be size before enumerating."""
    _check_size(len(keys) << free_mask.bit_count(), space)
    if keys and free_mask:  # with no free bit, the keys are the members
        subs = list(submasks(free_mask))
        keys = [k | f for k in keys for f in subs]
    return PairSet(space, keys)


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


def _half_bits(pair_space: int) -> int:
    return (pair_space.bit_length() - 1) // 2


def image(pairs: PairSet, states: IndexSet, side: int) -> IndexSet:
    """{i : (i, j) in pairs for some j in states} for side 0 (the sources),
    {j : (i, j) in pairs for some i in states} for side 1 (the targets)."""
    bits = _half_bits(pairs.space)
    if not states:
        return IndexSet(1 << bits)
    low, view = (1 << bits) - 1, states._bytes()
    tested = bits * side  # the shift of the component that must lie in states
    hits = [c for c in pairs.members if view[(k := c >> tested & low) >> 3] >> (k & 7) & 1]
    kept = bits - tested
    keys = _classes(hits, pairs.negated, low << kept, len(states))
    out = IndexSet(1 << bits, (k >> kept for k in keys))
    return out.complement() if pairs.negated else out


def restrict(pairs: PairSet, states: IndexSet, side: int) -> PairSet:
    """Pairs whose side-th component (0 = source, 1 = target) lies in states."""
    bits = _half_bits(pairs.space)
    low = (1 << bits) - 1
    shift = bits if side == 0 else 0
    if not pairs.negated:
        view = states._bytes()
        return PairSet(pairs.space, [c for c in pairs.members
                                     if view[(i := c >> shift & low) >> 3] >> (i & 7) & 1])
    # complemented: the cylinder of the smaller of states and its complement,
    # kept (intersection) or taken away (difference)
    small = states if len(states) << 1 <= states.space else states.complement()
    cyl = _pair_cylinder(pairs.space, [s << shift for s in small.indices()], low << (bits - shift))
    return pairs.intersection(cyl) if small is states else pairs.difference(cyl)


def inertia(ext: IndexSet, free_mask: int) -> PairSet:
    """{(i, j) : j in ext, i agrees with j outside free_mask}: the pairs of an
    action whose outputs are the free bits."""
    bits = ext.space.bit_length() - 1
    keys = [((j & ~free_mask) << bits) | j for j in ext.indices()]
    return _pair_cylinder(ext.space << bits, keys, free_mask << bits)


def compose(a: PairSet, b: PairSet) -> PairSet:
    """{(i, k) : (i, j) in a and (j, k) in b for some j}.

    One operand is read through its index (PairSet.rows): one that has the
    index it needs already, else the larger, so the fixed operand of a star
    or of a power is indexed once however many rounds meet it. The other
    operand's codes are walked once, in no order, and the result is refused
    as soon as it passes the budget, within one row.
    """
    bits = _half_bits(a.space)
    low = (1 << bits) - 1
    # side 1: b indexed, a code (i, j) of a meets the targets k of j;
    # side 0: a indexed, a code (j, k) of b meets the sources i of j
    side = 1 if b.index[1] is not None or (a.index[0] is None and len(b) >= len(a)) else 0
    indexed, walked = (b, a) if side else (a, b)
    rows, shift, keep = indexed.rows(side), bits * (1 - side), low << bits * side
    members: set[int] = set()
    add, get, none = members.add, rows.get, ()
    for code in walked.codes():
        end = code & keep
        for other in get(code >> shift & low, none):
            add(end | other)
        if len(members) > MATERIALIZE_LIMIT:
            raise CapExceeded(f"composition exceeds the enumeration limit ({MATERIALIZE_LIMIT})")
    return PairSet._of(a.space, members)


def _rows(pairs: PairSet, side: int) -> dict[int, list[int]]:
    """PairSet.rows(side), built in one walk of the codes. Equal ends are
    one int object, so the index adds no int per pair."""
    bits = _half_bits(pairs.space)
    low = (1 << bits) - 1
    shift, keep = bits * side, low << bits * (1 - side)
    rows: dict[int, list[int]] = defaultdict(list)
    shared: dict[int, int] = {}
    for code in pairs.codes():
        end = code & keep
        rows[code >> shift & low].append(shared.setdefault(end, end))
    return rows
