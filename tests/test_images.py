"""Images of state sets under a process, without its pairs: lmumu.image,
backward (side 0, for <a> and [a]) and forward (side 1, for reach), against
the pairs eval_dyn builds, the action normal form and the images of unions
and compositions of forms against the definitions, and the tasks that use
the images: they build no pair where the images follow the process, and
answer at the default 2^20 cap."""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from _gen import three_element_setup
from modalg import dynamic as D
from modalg import flat as F
from modalg import indexsets
from modalg import lmumu as S
from modalg.core import (
    AtomicModule,
    Domain,
    RelationValue,
    Structure,
    Valuation,
    Vocabulary,
    build_universe,
)
from modalg.errors import CapExceeded, IllegalSelect, ModalgError
from modalg.flat import Const, EvalContext, Var, intersect
from modalg.indexsets import IndexSet, inertia
from modalg.parser import parse_spec
from modalg.printer import to_text
from modalg.syntax import walk
from modalg.tasks import equivalence_check, reach, temp_mc


AB = Domain(("a", "b"))


def _hc2col_valuation():
    """The circuit and colouring builtins over {a,b}."""
    return Valuation(AB, {}, {
        "HC": AtomicModule.builtin("HC", [("V0", 1), ("X0", 2), ("Y0", 2)],
                                   "hamiltonian_circuit"),
        "TwoCol": AtomicModule.builtin("TwoCol", [("V0", 1), ("X0", 2), ("Z0", 1), ("T0", 1)],
                                       "two_col"),
    })


def _circuit_setup():
    """The circuit/colouring shape on 1,024 structures: {a,b} with V/1, X/2,
    Z/1, T/1, where HC(V,X,X) says X is itself a circuit through V."""
    return AB, Vocabulary((("V", 1), ("X", 2), ("Z", 1), ("T", 1))), _hc2col_valuation()


COPY_PQ = D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))
# fill P, then copy it into Q: the second power reaches states the first
# does not, so counting must not stop early
FILL_THEN_COPY = D.Union(D.Action("FullP", ("P",), frozenset(), frozenset({"P"})), COPY_PQ)

# setup -> (atoms (module, args), projection keeps, a selection on a unary
# symbol, fixed terms, random terms, deepest random term)
SETUPS = {
    "abc": (three_element_setup,
            [("FullP", ("P",)), ("EmptyQ", ("Q",)), ("NonemptyP", ("P",)), ("Copy", ("P", "Q"))],
            [frozenset({"Q"}), frozenset({"P", "Q"})], (Var("P"), Const.of([("a",)])),
            [D.Count(FILL_THEN_COPY, 1, 2), D.Count(FILL_THEN_COPY, 0, 3),
             D.Project(frozenset({"Q"}), intersect(COPY_PQ, D.Test("NonemptyP", ("P",)))),
             # the diagonals a forward image hands to its fallback
             D.Compose(D.Down(COPY_PQ), D.UnaryNeg(D.Test("NonemptyP", ("P",))))],
            15, 2),
    "circuit": (_circuit_setup,
                [("HC", ("V", "X", "X")), ("TwoCol", ("V", "X", "Z", "T"))],
                [frozenset({"V", "X", "Z"}), frozenset({"V", "X", "T"}), frozenset({"X", "Z", "T"})],
                (Var("Z"), Const.of([("a",)])), [], 40, 3),
}


def random_image_proc(rng, atoms, keeps, select, depth):
    """Processes of actions with random in/out splits and tests, combined by
    intersection, projection, union, composition, counting, reverse, star,
    up and a selection."""
    if depth <= 0:
        module, args = rng.choice(atoms)
        if rng.random() < 0.25:
            return D.Test(module, args)
        outs = frozenset(arg for arg in args if rng.random() < 0.5)
        return D.Action(module, args, frozenset(args) - outs, outs)

    def sub():
        return random_image_proc(rng, atoms, keeps, select, depth - 1)

    pick = rng.randrange(10)
    if pick in (0, 1):
        return intersect(sub(), sub())
    if pick == 2:
        return D.Project(rng.choice(keeps), sub())
    if pick == 3:
        return D.Union(sub(), sub())
    if pick == 4:
        return D.Compose(sub(), sub())
    if pick == 5:
        low = rng.randrange(2)
        return D.Count(sub(), low, low + rng.randrange(3))
    if pick == 6:
        return D.Reverse(sub())
    if pick == 7:
        return D.kleene_star(sub())
    if pick == 8:
        return D.Up(sub())
    return D.Select(*select, sub())


def _image_of_pairs(pairs, n, states, side):
    """{i : (i, j) in pairs, j in states} (side 0) or {j : (i, j) in pairs,
    i in states} (side 1), from the stored codes (i * n + j) of a plain or
    complemented pair set."""
    def ends(c):  # (the tested component, the collected one)
        return (c % n, c // n) if side == 0 else (c // n, c % n)

    if not pairs.negated:
        return {ends(c)[1] for c in pairs.members if ends(c)[0] in states}
    removed = Counter(ends(c)[1] for c in pairs.members if ends(c)[0] in states)
    return {k for k in range(n) if removed[k] < len(states)}


def _one_side(patch, side):
    """Wrap S.image so that a call for the other side raises."""
    image = S.image

    def guarded(a, ctx, val, states, asked):
        if asked != side:
            raise AssertionError("called across directions")
        return image(a, ctx, val, states, asked)

    patch.setattr(S, "image", guarded)


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_images_match_pairs(monkeypatch, name):
    setup, atoms, keeps, select, fixed, terms, deepest = SETUPS[name]
    domain, vocab, val = setup()
    u = build_universe(domain, vocab)
    n = u.size
    rng = random.Random(11)
    checked, kinds = 0, Counter()
    for k in range(len(fixed) + terms):
        a = fixed[k] if k < len(fixed) else random_image_proc(
            rng, atoms, keeps, select, rng.randrange(1, deepest + 1))
        ctx, ref_ctx = EvalContext(u), EvalContext(u)
        ref_ctx.ext_cache = ctx.ext_cache  # the extensions are not under test
        try:
            pairs = D._eval_dyn(a, ref_ctx, val)
        except CapExceeded:
            continue  # too many pairs for the reference
        except ModalgError as exc:  # an illegal selection
            with pytest.raises(type(exc)):
                S.image(a, ctx, val, IndexSet.full(n), 0)
            continue
        checked += 1
        kinds.update(type(node) for node in walk(a, within_sort=True))
        for members in (rng.sample(range(n), 1), [i for i in range(n) if rng.random() < 0.2]):
            states = IndexSet(n, members)
            for side in (0, 1):
                with monkeypatch.context() as patch:
                    _one_side(patch, side)
                    got = S.image(a, ctx, val, states, side)
                want = _image_of_pairs(pairs, n, set(members), side)
                assert set(got.indices()) == want, (side, to_text(a))
    assert checked >= terms * 3 // 4
    assert all(kinds[cls] for cls in (D.Complement, D.Project, D.Union, D.Compose, D.Count,
                                      D.Reverse, D.Lfp, D.Up, D.Select, D.Test, D.Action))


# ---------------------------------------------------------------------------
# The action normal form against the definitions


def random_form(rng, atoms, keeps, depth):
    """Actions with random in/out splits, tests of every kind, diag and bot,
    combined by intersection and projection."""
    if depth <= 0:
        module, args = rng.choice(atoms)
        pick = rng.randrange(5)
        if pick == 0:
            return D.Test(module, args)
        if pick == 1:
            return D.StateTest(S.Prop(module, args))
        if pick == 2:
            return rng.choice([D.Diagonal(), D.Bottom(),
                               D.ConstTest("P", Const.of([("a",)]), rng.random() < 0.5)])
        outs = frozenset(arg for arg in args if rng.random() < 0.5)
        return D.Action(module, args, frozenset(args) - outs, outs)
    if rng.random() < 0.6:
        return intersect(random_form(rng, atoms, keeps, depth - 1),
                         random_form(rng, atoms, keeps, depth - 1))
    return D.Project(rng.choice(keeps), random_form(rng, atoms, keeps, depth - 1))


class Definitions:
    """The targets of a source under a form, or a union or composition of
    forms, read off the paper's definitions on Structure objects: an action
    or test holds on the target (module membership) and the source agrees
    with it off the outputs, an intersection meets its parts' pairs, pi{K}
    takes the existential over the symbols off K in both components, a
    union joins its parts' targets, and a composition takes the targets of
    its left part's targets under its right part."""

    def __init__(self, universe, val):
        self.structures = list(universe)
        self.names = universe.vocabulary.names
        self.val = val
        self.groups = {}  # symbols -> (key -> the indices with that key)
        self.memo = {}

    def key(self, j, symbols):
        return tuple(self.structures[j].rel(x) for x in symbols)

    def agreeing(self, j, symbols):
        """The structures that agree with structure j on symbols."""
        symbols = tuple(sorted(symbols))
        if symbols not in self.groups:
            group = self.groups[symbols] = {}
            for k in range(len(self.structures)):
                group.setdefault(self.key(k, symbols), []).append(k)
        return self.groups[symbols][self.key(j, symbols)]

    def holds(self, a, j):
        s = self.structures[j]
        if isinstance(a, D.StateTest):
            a = a.phi
        return self.val.module(a.module).accepts(
            s.domain, [s.rel(self.val.symbol(x)) for x in a.args])

    def targets(self, a, i):
        if (a, i) not in self.memo:
            self.memo[a, i] = frozenset(self._targets(a, i))
        return self.memo[a, i]

    def _targets(self, a, i):
        if isinstance(a, D.Action):
            outs = {self.val.symbol(x) for x in a.outputs}
            return {j for j in self.agreeing(i, set(self.names) - outs) if self.holds(a, j)}
        if isinstance(a, (D.Test, D.StateTest)):
            return {i} if self.holds(a, i) else set()
        if isinstance(a, D.Diagonal):
            return {i}
        if isinstance(a, D.Bottom):
            return set()
        if isinstance(a, D.ConstTest):
            sym = self.val.symbol(a.var)
            rel = self.structures[i].rel(sym)
            return {i} if (rel.tuples == a.value.value(rel.arity).tuples) == a.equal else set()
        if isinstance(a, D.Project):
            keep = {self.val.symbol(x) for x in a.keep}
            keys = {self.key(j, sorted(keep)) for source in self.agreeing(i, keep)
                    for j in self.targets(a.inner, source)}
            return {j for j in range(len(self.structures)) if self.key(j, sorted(keep)) in keys}
        if isinstance(a, D.Union):
            return self.targets(a.left, i) | self.targets(a.right, i)
        if isinstance(a, D.Compose):
            return set().union(*(self.targets(a.right, j) for j in self.targets(a.left, i)))
        both = a.inner  # -(-l | -r)
        return self.targets(both.left.inner, i) & self.targets(both.right.inner, i)


def _definitions_setup(request, name):
    """(universe, valuation, projection keeps) on P/Q or on {a,b,c}."""
    if name == "pq":
        _, _, u, val = request.getfixturevalue("pq")
        return u, val, [frozenset(), frozenset({"P"}), frozenset({"Q"}), frozenset({"P", "Q"})]
    domain, vocab, val = three_element_setup()
    return build_universe(domain, vocab), val, SETUPS["abc"][2]


@pytest.mark.parametrize("name", ["pq", "abc"])
def test_action_forms_match_definitions(request, name):
    """dynamic.action_form and the pairs inertia builds from it, against the
    definitions: every pair on P/Q, a seeded sample of sources on {a,b,c}."""
    u, val, keeps = _definitions_setup(request, name)
    atoms = SETUPS["abc"][1]
    rng = random.Random(5)
    sources = range(u.size) if name == "pq" else rng.sample(range(u.size), 3)
    definitions, ctx, forms = Definitions(u, val), EvalContext(u), Counter()
    for _ in range(40):
        for node in walk(random_form(rng, atoms, keeps, rng.randrange(4)), within_sort=True):
            form = D.action_form(node, ctx, val)
            # the parts -a and -a | -b of an intersection have no form
            part = isinstance(node, D.Union) or (isinstance(node, D.Complement)
                                                 and not isinstance(node.inner, D.Union))
            assert (form is None) == part, to_text(node)
            if part:
                continue
            try:
                pairs = inertia(*form)
            except CapExceeded:
                continue  # too many pairs to list
            for i in sources:
                got = {j for j in range(u.size) if i * u.size + j in pairs}
                assert got == definitions.targets(node, i), (i, to_text(node))
            forms[type(node)] += 1
    assert all(forms[cls] for cls in (D.Complement, D.Project, D.Action, D.Test, D.StateTest,
                                      D.ConstTest, D.Diagonal, D.Bottom))


def random_union_compose(rng, atoms, keeps, depth):
    """Forms (of depth at most 1) combined by union and composition."""
    if depth <= 0:
        return random_form(rng, atoms, keeps, rng.randrange(2))
    left, right = (random_union_compose(rng, atoms, keeps, depth - 1) for _ in range(2))
    return D.Union(left, right) if rng.random() < 0.5 else D.Compose(left, right)


@pytest.mark.parametrize("name", ["pq", "abc"])
def test_images_match_definitions(request, name):
    """lmumu.image on both sides, for unions and compositions of forms,
    against the definitions: from every source on P/Q, from a seeded sample
    of sources on {a,b,c}."""
    u, val, keeps = _definitions_setup(request, name)
    rng = random.Random(8)
    definitions, kinds = Definitions(u, val), Counter()
    for _ in range(30):
        a = random_union_compose(rng, SETUPS["abc"][1], keeps, rng.randrange(1, 3))
        kinds.update(type(node) for node in walk(a, within_sort=True))
        ctx = EvalContext(u)
        sources = range(u.size) if name == "pq" else rng.sample(range(u.size), 3)
        # forward: the targets of a seeded set of sources
        starts = set(rng.sample(sources, max(1, len(sources) // 3)))
        want = set().union(*(definitions.targets(a, i) for i in starts))
        assert set(S.image(a, ctx, val, IndexSet(u.size, starts), 1).indices()) == want
        # backward: the sources with a target in a seeded set of states
        goal = {j for j in range(u.size) if rng.random() < 0.2}
        got = S.image(a, ctx, val, IndexSet(u.size, goal), 0)
        for i in sources:
            assert (i in got) == bool(definitions.targets(a, i) & goal), (i, to_text(a))
    assert kinds[D.Union] and kinds[D.Compose]


NONEMPTY_P = D.StateTest(S.Prop("NonemptyP", ("P",)))
COPY_TWICE = D.Compose(COPY_PQ, COPY_PQ)


def test_form_decided_before_evaluation(monkeypatch):
    """A mixed intersection has no form, and its form part is not evaluated
    to find that out: the diamond evaluates its state test once."""
    domain, vocab, val = three_element_setup()
    u = build_universe(domain, vocab)
    assert D.action_form(intersect(NONEMPTY_P, COPY_TWICE), EvalContext(u), val) is None
    tested = []
    for module in (F, D):  # flat's recursion, and the name dynamic calls
        monkeypatch.setattr(module, "_eval", lambda e, ctx, val, _fn=module._eval: (
            tested.append(e) or _fn(e, ctx, val)))
    S.eval_state(S.Diamond(intersect(NONEMPTY_P, COPY_TWICE), S.TOP), val, u)
    assert tested.count(NONEMPTY_P.phi) == 1


def test_intersected_projection_built_from_its_form():
    """A test meets a projection whose pairs alone are too many: eval_dyn
    builds the intersection's pairs from its one form, the diagonal of the
    states its diamond holds on."""
    domain, vocab, val = three_element_setup()
    u = build_universe(domain, vocab)
    proj = D.Project(frozenset(), D.Action("EmptyQ", ("Q",), frozenset(), frozenset({"Q"})))
    with pytest.raises(CapExceeded):
        D.eval_dyn(proj, val, u)
    a = intersect(D.Test("NonemptyP", ("P",)), proj)
    pairs = D.eval_dyn(a, val, u)
    states = S.eval_state(S.Diamond(a, S.TOP), val, u)
    assert len(pairs) == 3584
    assert set(pairs.pairs()) == {(i, i) for i in states.iset.indices()}


# ---------------------------------------------------------------------------
# The tasks on images

GRAPH = Path(__file__).resolve().parent.parent / "graph.mod"


def unary(elements):
    return RelationValue.of(1, [(e,) for e in elements])


def _graph_three_way():
    spec = parse_spec(GRAPH.read_text())
    d = spec.tasks["three_way"]
    sigma_vocab = Vocabulary(tuple((s, a) for s, a in spec.vocabulary.symbols if s in d.sigma))
    structure = Structure.make(spec.domain, sigma_vocab, {
        s: d.bindings.get(s, RelationValue.of(a)) for s, a in sigma_vocab.symbols})
    return (spec.flat_defs[d.formula], d.sigma, structure, dict(d.outputs), spec.valuation(),
            spec.vocabulary)


def _equivalence_instances():
    """(formula, sigma, input, outputs, valuation, vocabulary, verdict, rows)"""
    e, sigma, structure, outputs, val, vocab = _graph_three_way()
    yield e, sigma, structure, outputs, val, vocab, True, 4
    val = _hc2col_valuation()
    conj = intersect(F.Atom("HC", ("V", "X", "Y")), F.Atom("TwoCol", ("V", "Y", "Z", "T")))
    pipe = D.Project(frozenset({"V", "X", "Z", "T"}), conj)
    vocab = Vocabulary((("V", 1), ("X", 2), ("Y", 2), ("Z", 1), ("T", 1)))
    cycle = RelationValue.of(2, [("a", "b"), ("b", "a")])
    graph = Structure.make(AB, Vocabulary((("V", 1), ("X", 2))), {"V": unary("ab"), "X": cycle})
    for z, t, verdict in (("a", "b", True), ("ab", "", False)):
        yield (pipe, {"V", "X"}, graph, {"Z": unary(z), "T": unary(t)}, val, vocab, verdict, 4)
        yield (conj, {"V", "X"}, graph, {"Y": cycle, "Z": unary(z), "T": unary(t)}, val, vocab,
               verdict, 1)
    copy = AtomicModule.builtin("Copy", [("A", 1), ("B", 1)], fn=lambda d, r: r[0] == r[1])
    chain = D.Project(frozenset({"P", "R"}), intersect(F.Atom("Copy", ("P", "Q")),
                                                       F.Atom("Copy", ("Q", "R"))))
    source = Structure.make(AB, Vocabulary((("P", 1),)), {"P": unary("a")})
    for r, verdict in (("a", True), ("", False)):
        yield (chain, {"P"}, source, {"R": unary(r)}, Valuation(AB, {}, {"Copy": copy}),
               Vocabulary((("P", 1), ("Q", 1), ("R", 1))), verdict, 4)


def test_equivalence_check_builds_no_pairs(monkeypatch):
    built = []
    original = indexsets.PairSet.__init__
    monkeypatch.setattr(indexsets.PairSet, "__init__",
                        lambda self, *args, **kw: built.append(1) or original(self, *args, **kw))
    for e, sigma, structure, outputs, val, vocab, verdict, rows in _equivalence_instances():
        report = equivalence_check(e, sigma, structure, outputs, val, vocab)
        assert report.passed and len(report.rows) == rows, to_text(e)
        assert {(r.temp_mc, r.reach, r.ev) for r in report.rows} == {(verdict,) * 3}
    assert built == []


def test_reach_forward_modalities_backward(monkeypatch):
    """reach takes only forward images, and the modalities only backward
    ones, so equivalence_check's REACH and temp-MC rows stay independent."""
    domain, vocab, val = three_element_setup()
    u = build_universe(domain, vocab)
    rng = random.Random(3)
    start = u.structure_at(rng.randrange(u.size))
    checked = 0
    for _ in range(12):
        a = D.kleene_star(random_image_proc(rng, *SETUPS["abc"][1:4], 2))
        try:
            with monkeypatch.context() as patch:
                _one_side(patch, 1)
                forward = reach(a, start, {"P": unary("abc")}, val, u)
            with monkeypatch.context() as patch:
                _one_side(patch, 0)
                backward = temp_mc(S.Diamond(a, S.Prop("FullP", ("P",))), start, val, u)
                S.eval_state(S.Box(a, S.Prop("FullP", ("P",))), val, u)
        except IllegalSelect:
            continue
        assert forward == backward, to_text(a)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("step", [
    D.Complement(D.TestNeq(D.Compose(D.Test("FullP", ("P",)), D.Test("NonemptyP", ("P",))))),
    D.Complement(D.Project(frozenset({"P"}), D.Bottom())),
], ids=["complemented-testneq", "complemented-projection"])
def test_reach_through_complemented_pairs(step):
    """A star whose step falls back to a complemented pair set: its forward
    image counts the removed pairs per target, as the backward one counts
    them per source, instead of listing every pair from the states reached
    (16,773,120 of the 2^24 pairs)."""
    domain, vocab, val = three_element_setup()
    u = build_universe(domain, vocab)
    a, start = D.kleene_star(step), u.structure_at(5)
    assert reach(a, start, {"P": unary("abc")}, val, u) is True
    assert temp_mc(S.Diamond(a, S.Prop("FullP", ("P",))), start, val, u) is True


def test_star_at_the_cap():
    """<(3-action copy chain)*> on 10 unary symbols over {a,b}: 2^20 states,
    too many for the star's pairs, not for its images."""
    symbols = [f"P{i}" for i in range(10)]
    vocab = Vocabulary(tuple((s, 1) for s in symbols))
    u = build_universe(AB, vocab)
    assert u.size == 1 << 20
    val = Valuation(AB, {}, {
        "Copy": AtomicModule.builtin("Copy", [("A", 1), ("B", 1)], fn=lambda d, r: r[0] == r[1]),
        "HasA": AtomicModule.builtin("HasA", [("A", 1)], fn=lambda d, r: ("a",) in r[0].tuples),
    })
    steps = [D.Action("Copy", (s, t), frozenset({s}), frozenset({t}))
             for s, t in zip(symbols, symbols[1:4])]
    star = D.kleene_star(D.Union(D.Union(steps[0], steps[1]), steps[2]))
    relations = {s: unary("") for s in symbols}
    start = Structure.make(AB, vocab, {**relations, "P0": unary("a")})
    for goal, want in (("P3", True), ("P4", False)):
        for ask in (lambda: reach(star, start, {goal: unary("a")}, val, u),
                    lambda: temp_mc(S.Diamond(star, S.Prop("HasA", (goal,))), start, val, u)):
            began = time.perf_counter()
            assert ask() is want
            assert time.perf_counter() - began < 1.0
