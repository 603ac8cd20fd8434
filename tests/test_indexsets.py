"""Possibly-complemented index sets checked against plain set semantics."""

import random

import pytest

from modalg.errors import CapExceeded
from modalg.indexsets import (
    MATERIALIZE_LIMIT,
    IndexSet,
    compose,
    cylinder,
    diagonal,
    preimage,
    project,
    restrict,
    sources,
    submasks,
    targets,
)

SPACE = 12


def model(iset):
    return set(range(iset.space)) - iset.members if iset.negated else set(iset.members)


def samples(rng, n=40, space=SPACE):
    out = []
    for _ in range(n):
        density = rng.choice([0.1, 0.4, 0.9])
        members = {i for i in range(space) if rng.random() < density}
        out.append(IndexSet(space, members, negated=rng.random() < 0.5))
    out += [IndexSet.empty(space), IndexSet.full(space)]
    return out


def test_operations_match_set_model():
    rng = random.Random(99)
    sets = samples(rng)
    for a in sets:
        assert model(a.complement()) == set(range(SPACE)) - model(a)
        assert len(a) == len(model(a))
        assert set(a.indices()) == model(a)
        for i in range(SPACE):
            assert (i in a) == (i in model(a))
    for a in sets[:20]:
        for b in sets[:20]:
            assert model(a.union(b)) == model(a) | model(b)
            assert model(a.intersection(b)) == model(a) & model(b)
            assert model(a.difference(b)) == model(a) - model(b)
            assert a.issubset(b) == (model(a) <= model(b))
            assert (a == b) == (model(a) == model(b))


BITS = 3  # states 0..7; pairs (i, j) coded (i << BITS) | j
N = 1 << BITS


def pair_model(iset):
    return {(c >> BITS, c & (N - 1)) for c in model(iset)}


def test_state_and_pair_operations_match_set_model():
    rng = random.Random(7)
    states = samples(rng, 20, N)
    pairs = samples(rng, 20, N * N)
    for free in (0, 0b001, 0b101, 0b111):
        keys = {k & ~free for k in range(N) if rng.random() < 0.5}
        assert model(cylinder(N, keys, free)) == {k | f for k in keys for f in submasks(free)}
        for s in states:
            assert model(project(s, free)) == {
                i for i in range(N) if any(j & ~free == i & ~free for j in model(s))
            }
        pair_free = (free << BITS) | free
        for p in pairs:
            assert model(project(p, pair_free)) == {
                c for c in range(N * N)
                if any(d & ~pair_free == c & ~pair_free for d in model(p))
            }
    for s in states:
        assert pair_model(diagonal(s)) == {(i, i) for i in model(s)}
    for p in pairs:
        assert model(sources(p)) == {i for i, _ in pair_model(p)}
        assert model(targets(p)) == {j for _, j in pair_model(p)}
        for s in states:
            assert model(preimage(p, s)) == {i for i, j in pair_model(p) if j in model(s)}
            for side in (0, 1):
                assert pair_model(restrict(p, s, side)) == {
                    pair for pair in pair_model(p) if pair[side] in model(s)
                }
        for q in pairs:
            assert pair_model(compose(p, q)) == {
                (i, k) for i, j in pair_model(p) for j2, k in pair_model(q) if j == j2
            }


def test_equality_across_representations():
    pos = IndexSet(4, {0, 1})
    neg = IndexSet(4, {2, 3}, negated=True)
    assert pos == neg and neg == pos
    assert pos != IndexSet(4, {0, 1, 2})


def test_materialization_guard():
    big = IndexSet.full(MATERIALIZE_LIMIT + 10)
    with pytest.raises(CapExceeded):
        list(big.indices())
    # a cylinder is refused by its would-be size, before any enumeration
    free = (1 << MATERIALIZE_LIMIT.bit_length()) - 1
    with pytest.raises(CapExceeded):
        cylinder(1 << 40, [0], free)


def test_submasks_enumeration():
    assert set(submasks(0b101)) == {0b000, 0b001, 0b100, 0b101}
    assert list(submasks(0)) == [0]
