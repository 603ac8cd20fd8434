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

FLAT = ("flat", F.FlatExpr, parse_flat, F.Bottom())
PROC = ("dynamic", D.ProcExpr, parse_dyn, D.Diagonal())
STATE = ("lmumu", S.StateExpr, parse_state, S.SetVar("Y"))
SORTS = [FLAT, PROC, STATE]
MODULES = {"flat": F, "dynamic": D, "lmumu": S}

# one instance of every concrete node class in each sort that has it (name,
# base class, parser, stand-in subterm), with its expected subterms
SAMPLES = [
    (FLAT, F.Bottom(), ()),
    (FLAT, FA, ()),
    (FLAT, F.ModuleVar("Z"), ()),
    (FLAT, F.Union(FA, F.Bottom()), (FA, F.Bottom())),
    (FLAT, F.Complement(FA), (FA,)),
    (FLAT, F.Project(frozenset({"P"}), FA), (FA,)),
    (FLAT, F.Select(Var("P"), A, FA), (FA,)),
    (FLAT, F.Lfp("Z", FA), (FA,)),
    (PROC, D.Bottom(), ()),
    (PROC, PT, ()),
    (PROC, ACT, ()),
    (PROC, D.ModuleVar("Z"), ()),
    (PROC, D.Union(PT, ACT), (PT, ACT)),
    (PROC, D.Complement(PT), (PT,)),
    (PROC, D.Project(frozenset({"P"}), ACT), (ACT,)),
    (PROC, D.Select(Var("P"), A, PT), (PT,)),
    (PROC, D.Lfp("Z", PT), (PT,)),
    (PROC, D.Down(ACT), (ACT,)),
    (PROC, D.Up(ACT), (ACT,)),
    (PROC, D.UnaryNeg(ACT), (ACT,)),
    (PROC, D.Diagonal(), ()),
    (PROC, D.Compose(ACT, PT), (ACT, PT)),
    (PROC, D.Count(ACT, 1, 2), (ACT,)),
    (PROC, D.Reverse(ACT), (ACT,)),
    (PROC, D.TestEq(ACT), (ACT,)),
    (PROC, D.TestNeq(ACT), (ACT,)),
    (PROC, D.ConstTest("P", A, False), ()),
    (PROC, D.StateTest(SP), (SP,)),
    (STATE, S.Bottom(), ()),
    (STATE, SP, ()),
    (STATE, S.SetVar("X"), ()),
    (STATE, S.Or(SP, S.SetVar("X")), (SP, S.SetVar("X"))),
    (STATE, S.Not(SP), (SP,)),
    (STATE, S.And(SP, S.SetVar("X")), (SP, S.SetVar("X"))),
    (STATE, S.Diamond(ACT, SP), (ACT, SP)),
    (STATE, S.Box(ACT, SP), (ACT, SP)),
    (STATE, S.Lfp("X", SP), (SP,)),
]


def _exported_name(sort, node):
    """The name of node's class in its sort's module: a shared class is
    exported under the sort's own name (lmumu.Or is flat.Union)."""
    return next(name for name, value in vars(MODULES[sort[0]]).items() if value is type(node))


IDS = [f"{sort[0]}.{_exported_name(sort, node)}" for sort, node, _ in SAMPLES]


def _concrete_subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _concrete_subclasses(sub)
    return out


def _stand_in(child, sort):
    """A stand-in of the child's sort: the node's own sort where the child
    belongs to it (a shared operator belongs to both), else the first that
    fits."""
    if not isinstance(child, sort[1]):
        sort = next(s for s in SORTS if isinstance(child, s[1]))
    return sort[3]


def test_samples_cover_every_node_class():
    expected = set().union(*(_concrete_subclasses(sort[1]) for sort in SORTS))
    assert {type(node) for _, node, _ in SAMPLES} == expected


@pytest.mark.parametrize("sort, node, kids", SAMPLES, ids=IDS)
def test_traversal_sees_every_subterm(sort, node, kids):
    assert children(node) == kids
    assert map_children(node, lambda child: child) == node
    stand_ins = tuple(_stand_in(child, sort) for child in kids)
    replaced = map_children(node, lambda child: _stand_in(child, sort))
    assert children(replaced) == stand_ins
    assert type(replaced) is type(node)
    assert list(walk(node))[-1] is node


@pytest.mark.parametrize("sort, node, kids", SAMPLES, ids=IDS)
def test_print_parse_round_trip(sort, node, kids):
    assert sort[2](to_text(node)) == node


# the canonical text of each sample, in SAMPLES order
TEXTS = [
    "bot", "M(P)", "Z", "M(P) | bot", "-M(P)", "pi{P} M(P)", "sel[P == '{(a)}'] M(P)",
    "mu Z . M(P)",
    "bot", "M(P)?", "M(in P; out Q)", "Z", "M(P)? | M(in P; out Q)", "-M(P)?",
    "pi{P} M(in P; out Q)", "sel[P == '{(a)}'] M(P)?", "mu Z . M(P)?", "dn M(in P; out Q)",
    "up M(in P; out Q)", "neg M(in P; out Q)", "diag", "M(in P; out Q) ; M(P)?",
    "M(in P; out Q)^{1,2}", "rev M(in P; out Q)", "M(in P; out Q)=?", "M(in P; out Q)!=?",
    "const[P != '{(a)}']", "(prop M(P))?",
    "bot", "prop M(P)", "X", "prop M(P) | X", "!prop M(P)", "prop M(P) & X",
    "<M(in P; out Q)> prop M(P)", "[M(in P; out Q)] prop M(P)", "mu X . prop M(P)",
]


@pytest.mark.parametrize("node, text", [(node, text) for (_, node, _), text
                                        in zip(SAMPLES, TEXTS, strict=True)], ids=IDS)
def test_printed_text(node, text):
    assert to_text(node) == text


def test_walk_is_postorder_and_stops_at_other_sorts():
    a = D.Compose(ACT, D.StateTest(S.Diamond(PT, SP)))
    assert list(walk(a, within_sort=True)) == [ACT, a.right, a]
    assert list(walk(a)) == [ACT, PT, SP, a.right.phi, a.right, a]
    # a shared operator across a sort boundary is of both sorts; the
    # boundary is the crossing field, not the class
    a = D.Union(ACT, D.StateTest(S.Or(SP, S.SetVar("X"))))
    assert list(walk(a, within_sort=True)) == [ACT, a.right, a]
    phi = S.Diamond(D.Union(PT, ACT), S.Or(SP, S.SetVar("X")))
    assert list(walk(phi, within_sort=True)) == [SP, S.SetVar("X"), phi.inner, phi]
