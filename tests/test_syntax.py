"""The field-derived traversal and the printer cover every node class."""

import pytest

from modalg import dynamic as D
from modalg import flat as F
from modalg import lmumu as S
from modalg.flat import Const, Var
from modalg.parser import parse_dyn, parse_flat, parse_state
from modalg.printer import to_text
from modalg.syntax import children, map_children, walk

FA = F.Atom("M", ("P",))
PT = D.Test("M", ("P",))
SP = S.Prop("M", ("P",))
ACT = D.Action("M", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))
A = Const.of([("a",)])

# one instance of every concrete node class, with its expected subterms
SAMPLES = [
    (F.Bottom(), ()),
    (FA, ()),
    (F.ModuleVar("Z"), ()),
    (F.Union(FA, F.Bottom()), (FA, F.Bottom())),
    (F.Complement(FA), (FA,)),
    (F.Project(frozenset({"P"}), FA), (FA,)),
    (F.Select(Var("P"), A, FA), (FA,)),
    (F.Lfp("Z", FA), (FA,)),
    (D.Bottom(), ()),
    (PT, ()),
    (ACT, ()),
    (D.ModuleVar("Z"), ()),
    (D.Union(PT, ACT), (PT, ACT)),
    (D.Complement(PT), (PT,)),
    (D.Project(frozenset({"P"}), ACT), (ACT,)),
    (D.Select(Var("P"), A, PT), (PT,)),
    (D.Lfp("Z", PT), (PT,)),
    (D.Down(ACT), (ACT,)),
    (D.Up(ACT), (ACT,)),
    (D.UnaryNeg(ACT), (ACT,)),
    (D.Diagonal(), ()),
    (D.Compose(ACT, PT), (ACT, PT)),
    (D.Count(ACT, 1, 2), (ACT,)),
    (D.Reverse(ACT), (ACT,)),
    (D.TestEq(ACT), (ACT,)),
    (D.TestNeq(ACT), (ACT,)),
    (D.ConstTest("P", A, False), ()),
    (D.StateTest(SP), (SP,)),
    (SP, ()),
    (S.SetVar("X"), ()),
    (S.Or(SP, S.SetVar("X")), (SP, S.SetVar("X"))),
    (S.Not(SP), (SP,)),
    (S.And(SP, S.SetVar("X")), (SP, S.SetVar("X"))),
    (S.Diamond(ACT, SP), (ACT, SP)),
    (S.Box(ACT, SP), (ACT, SP)),
    (S.Lfp("X", SP), (SP,)),
]

IDS = [f"{type(node).__module__.rsplit('.', 1)[-1]}.{type(node).__name__}"
       for node, _ in SAMPLES]

SORTS = [(F.FlatExpr, parse_flat, F.Bottom()),
         (D.ProcExpr, parse_dyn, D.Diagonal()),
         (S.StateExpr, parse_state, S.SetVar("Y"))]


def _concrete_subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _concrete_subclasses(sub)
    return out


def _sort_of(node):
    return next(sort for sort in SORTS if isinstance(node, sort[0]))


def test_samples_cover_every_node_class():
    expected = set().union(*(_concrete_subclasses(sort) for sort, _, _ in SORTS))
    assert {type(node) for node, _ in SAMPLES} == expected


@pytest.mark.parametrize("node, kids", SAMPLES, ids=IDS)
def test_traversal_sees_every_subterm(node, kids):
    assert children(node) == kids
    assert map_children(node, lambda child: child) == node
    stand_ins = tuple(_sort_of(child)[2] for child in kids)
    replaced = map_children(node, lambda child: _sort_of(child)[2])
    assert children(replaced) == stand_ins
    assert type(replaced) is type(node)
    assert list(walk(node))[-1] is node


@pytest.mark.parametrize("node, kids", SAMPLES, ids=IDS)
def test_print_parse_round_trip(node, kids):
    _, parse, _ = _sort_of(node)
    assert parse(to_text(node)) == node


def test_walk_is_postorder_and_stops_at_other_sorts():
    a = D.Compose(ACT, D.StateTest(S.Diamond(PT, SP)))
    assert list(walk(a, D.ProcExpr)) == [ACT, a.right, a]
    assert list(walk(a)) == [ACT, PT, SP, a.right.phi, a.right, a]
