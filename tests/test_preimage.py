"""Modalities by backward image: <a> and [a] evaluated through lmumu.image
(side 0) agree with the image of a's pairs, for every process operator, the
ones the image follows without pairs and the ones it hands to its pair
fallback alike."""

import random
from collections import Counter

import pytest

from _gen import KEEPS, SETP, SETQ_COPY, TEST_FULLP, random_any_proc, three_element_setup
from modalg import dynamic as D
from modalg import lmumu as S
from modalg.core import StructureSet, build_universe
from modalg.dynamic import eval_dyn
from modalg.errors import CapExceeded, ModalgError
from modalg.flat import Const, Var
from modalg.indexsets import IndexSet
from modalg.lmumu import eval_state
from modalg.syntax import walk

PROC_CLASSES = {cls for cls in vars(D).values()
                if isinstance(cls, type) and issubclass(cls, D.ProcExpr) and cls is not D.ProcExpr}


def image(pairs, n, targets):
    """{i : (i, j) in pairs for some j in targets}, from the stored codes
    (i * n + j) of a plain or complemented pair set."""
    if not pairs.negated:
        return {c // n for c in pairs.members if c % n in targets}
    removed = Counter(c // n for c in pairs.members if c % n in targets)
    return {i for i in range(n) if removed[i] < len(targets)}


# a selection of each kind: on the source, on the target, feedback, illegal
SELECTIONS = [
    D.Select(Var("P"), Const.of([("a",)]), TEST_FULLP),
    D.Select(Var("P"), Const.of([("a",)]), SETP),
    D.Select(Var("P"), Var("Q"), SETQ_COPY),
    D.Select(Var("Q"), Var("P"), SETQ_COPY),
]


def _universe(pq, name):
    """(universe, valuation, terms, depth, target densities, projections)"""
    if name == "pq":
        _, _, u, val = pq
        return u, val, 70, 3, (0.1, 0.5), KEEPS
    # each evaluation rebuilds the 4,096-state extensions, so fewer terms;
    # hiding the binary Q frees 18 bits of a pair, so keep Q
    domain, vocab, val = three_element_setup()
    return build_universe(domain, vocab), val, 16, 2, (0.3,), [k for k in KEEPS if "Q" in k]


@pytest.mark.parametrize("name", ["pq", "abc-binary"])
def test_diamond_and_box_match_image_of_pairs(pq, name):
    u, val, count, depth, densities, keeps = _universe(pq, name)
    n = u.size
    rng = random.Random(2024)
    terms = iter(SELECTIONS)
    seen, sides, checked, attempts = set(), set(), 0, 0
    while checked < count:
        attempts += 1
        assert attempts < 10 * count
        a = next(terms, None) or random_any_proc(rng, depth, keeps=keeps)
        try:
            pairs = eval_dyn(a, val, u).iset
        except CapExceeded:
            continue  # too many pairs for the reference; the image may not need them
        except ModalgError as exc:  # an illegal selection, a non-monotone body
            with pytest.raises(type(exc)):
                eval_state(S.Diamond(a, S.Prop("FullP", ("P",))), val, u)
            continue
        checked += 1
        nodes = walk(a, within_sort=True)
        seen.update(type(node) for node in nodes)
        sides.update(D.select_side(node) for node in nodes if isinstance(node, D.Select))
        for density in densities:
            targets = {i for i in range(n) if rng.random() < density}
            bound = val.bind("X", StructureSet(u, IndexSet(n, targets)))
            got = eval_state(S.Diamond(a, S.SetVar("X")), bound, u)
            assert set(got.iset.indices()) == image(pairs, n, targets), a
            got = eval_state(S.Box(a, S.SetVar("X")), bound, u)
            assert set(got.iset.indices()) == set(range(n)) - image(
                pairs, n, set(range(n)) - targets), a
    if name == "pq":
        assert seen == PROC_CLASSES
        assert sides == {0, 1, None}
