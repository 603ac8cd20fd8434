"""Dense state sets and sparse, possibly-complemented pair sets checked
against plain set semantics."""

import random

import pytest

from modalg.errors import CapExceeded
from modalg.indexsets import (
    MATERIALIZE_LIMIT,
    IndexSet,
    PairSet,
    compose,
    cylinder,
    image,
    inertia,
    restrict,
    submasks,
)


def model(iset):
    """The members of a state set (through indices()) or of a pair set."""
    if isinstance(iset, IndexSet):
        return set(iset.indices())
    return set(range(iset.space)) - iset.members if iset.negated else set(iset.members)


def state_samples(rng, n, space):
    """(state set, its members): random densities, plus empty and full."""
    out = []
    for _ in range(n):
        density = rng.choice([0.05, 0.4, 0.9])
        members = {i for i in range(space) if rng.random() < density}
        out.append((IndexSet(space, members), members))
    return out + [(IndexSet(space), set()), (IndexSet.full(space), set(range(space)))]


def pair_samples(rng, n, space):
    out = []
    for _ in range(n):
        density = rng.choice([0.1, 0.4, 0.9])
        members = {i for i in range(space) if rng.random() < density}
        out.append(PairSet(space, members, negated=rng.random() < 0.5))
    return out + [PairSet(space), PairSet(space).complement()]


def projected(members, free, space):
    keys = {j & ~free for j in members}
    return {i for i in range(space) if i & ~free in keys}


def test_operations_match_set_model():
    rng = random.Random(99)
    for bits in range(3, 13):
        space = 1 << bits
        sets = state_samples(rng, 10, space)
        for a, members in sets:
            assert list(a.indices()) == sorted(members)
            assert model(a.complement()) == set(range(space)) - members
            assert len(a) == len(members)
            assert bool(a) == bool(members)
            assert all((i in a) == (i in members) for i in range(-1, space + 1))
        for a, ma in sets:
            for b, mb in sets:
                assert model(a.union(b)) == ma | mb
                assert model(a.intersection(b)) == ma & mb
                assert model(a.difference(b)) == ma - mb
                assert a.issubset(b) == (ma <= mb)
                assert (a == b) == (ma == mb)
        masks = range(space) if bits == 3 else [0, space - 1] + [
            rng.randrange(space) for _ in range(4)]
        for free in masks:
            keys = {k & ~free for k in range(space) if rng.random() < 0.1}
            assert model(cylinder(space, keys, free)) == {
                k | f for k in keys for f in submasks(free)}
            for a, members in sets:
                assert model(a.project(free)) == projected(members, free, space)


def test_pair_operations_match_set_model():
    rng = random.Random(99)
    space = 1 << 12
    sets = pair_samples(rng, 40, space)
    models = [model(a) for a in sets]
    for a, ma in zip(sets, models):
        assert model(a.complement()) == set(range(space)) - ma
        assert len(a) == len(ma)
        assert list(a.indices()) == sorted(ma)
        assert all((i in a) == (i in ma) for i in range(space))
    for a, ma in zip(sets, models):
        for b, mb in zip(sets, models):
            assert (a == b) == (ma == mb)
            assert (a == b) <= (hash(a) == hash(b))
    few = list(zip(sets, models))[:20] + list(zip(sets, models))[-2:]
    for a, ma in few:
        for b, mb in few:
            assert model(a.union(b)) == ma | mb
            assert model(a.intersection(b)) == ma & mb
            assert a.issubset(b) == (ma <= mb)
    # every set of a few, plain and complemented, composed on both sides
    # with each of them, so each index is built once and read again
    reused = list(zip(sets, models))[:6] + list(zip(sets, models))[-2:]
    for a, ma in reused:
        for b, mb in reused:
            assert model(compose(a, b)) == joined(ma, mb, space)
    assert [model(a) for a, _ in reused] == [ma for _, ma in reused]


def joined(ma, mb, space):
    """The codes of {(i, k) : (i, j) coded in ma, (j, k) coded in mb}."""
    bits = (space.bit_length() - 1) // 2
    low = (1 << bits) - 1
    after = {}
    for c in mb:
        after.setdefault(c >> bits, []).append(c & low)
    return {c & ~low | k for c in ma for k in after.get(c & low, ())}


BITS = 3  # states 0..7; pairs (i, j) coded (i << BITS) | j
N = 1 << BITS


def pair_model(iset):
    return {(c >> BITS, c & (N - 1)) for c in model(iset)}


def test_state_and_pair_operations_match_set_model():
    rng = random.Random(7)
    states = [s for s, _ in state_samples(rng, 20, N)]
    pairs = pair_samples(rng, 20, N * N)
    for free in (0, 0b001, 0b101, 0b111):
        pair_free = (free << BITS) | free  # the state mask, in both components
        for p in pairs:
            assert model(p.project(free)) == projected(model(p), pair_free, N * N)
        for s in states:
            assert pair_model(inertia(s, free)) == {
                (i, j) for j in model(s) for i in range(N) if i & ~free == j & ~free}
    for s in states:
        assert pair_model(inertia(s, 0)) == {(i, i) for i in model(s)}
    full = IndexSet.full(N)
    for p in pairs:
        # from every state: the sources (side 0) and the targets (side 1)
        assert model(image(p, full, 0)) == {i for i, _ in pair_model(p)}
        assert model(image(p, full, 1)) == {j for _, j in pair_model(p)}
        for s in states:
            assert model(image(p, s, 0)) == {i for i, j in pair_model(p) if j in model(s)}
            assert model(image(p, s, 1)) == {j for i, j in pair_model(p) if i in model(s)}
            for side in (0, 1):
                got = restrict(p, s, side)
                assert pair_model(got) == {
                    pair for pair in pair_model(p) if pair[side] in model(s)
                }
                if p.negated:
                    # the smaller cylinder is listed: kept for few states,
                    # taken away (the result stays complemented) for many
                    assert got.negated == (2 * len(s) > N)
        for q in pairs:
            assert pair_model(p.union(q)) == pair_model(p) | pair_model(q)
            assert pair_model(p.intersection(q)) == pair_model(p) & pair_model(q)
            assert p.issubset(q) == (pair_model(p) <= pair_model(q))
            assert pair_model(compose(p, q)) == {
                (i, k) for i, j in pair_model(p) for j2, k in pair_model(q) if j == j2
            }


def test_equality_across_representations():
    pos = PairSet(4, {0, 1})
    neg = PairSet(4, {2, 3}, negated=True)
    assert pos == neg and neg == pos
    assert pos != PairSet(4, {0, 1, 2})
    assert IndexSet(4, {0, 1}) == IndexSet(4, {2, 3}).complement()
    assert IndexSet(4, {0, 1}) != IndexSet(8, {0, 1})


def test_materialization_guard():
    big = IndexSet.full(MATERIALIZE_LIMIT + 10)
    with pytest.raises(CapExceeded):
        list(big.indices())
    with pytest.raises(CapExceeded):
        list(PairSet(MATERIALIZE_LIMIT + 10).complement().indices())
    # a bitmap is refused by its bytes, whatever its members
    with pytest.raises(CapExceeded):
        IndexSet((MATERIALIZE_LIMIT + 1) << 3)
    # an action's pairs are refused by their would-be number, before any
    # enumeration
    free = (1 << MATERIALIZE_LIMIT.bit_length()) - 1
    with pytest.raises(CapExceeded):
        inertia(IndexSet(1 << 24, [0]), free)


def test_empty_action_lists_no_pattern(monkeypatch):
    # an action with an empty extension holds no pair, and building it must
    # not list the 2^24 patterns of its free bits
    import modalg.indexsets as indexsets

    def refuse(mask):
        raise AssertionError("free-bit patterns listed for no key")

    monkeypatch.setattr(indexsets, "submasks", refuse)
    assert len(inertia(IndexSet(1 << 24), (1 << 24) - 1)) == 0


def test_submasks_enumeration():
    assert set(submasks(0b101)) == {0b000, 0b001, 0b100, 0b101}
    assert list(submasks(0)) == [0]
