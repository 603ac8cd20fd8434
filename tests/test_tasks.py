"""The reasoning-task suite: MC, MX, bounded SAT, EV, QE, temporal tasks,
reachability, and the equivalence report."""

import itertools
import random

import pytest

from conftest import rel, structure_pq
from _gen import PROP_FULLP, SETP, random_any_proc, random_flat, three_element_setup
from modalg import dynamic as D
from modalg import flat as F
from modalg import lmumu as S
from modalg.core import (
    AtomicModule,
    Domain,
    RelationValue,
    Structure,
    Valuation,
    Vocabulary,
    propositional_module,
)
from modalg.errors import (
    ArityMismatch,
    CapExceeded,
    ModalgError,
    NonPropositionalFormula,
    UnknownBuiltin,
    WellformednessError,
)
from modalg.flat import Const, Var
from modalg.printer import to_text
from modalg.syntax import walk
from modalg.tasks import (
    FOAtom,
    FOEq,
    FOExists,
    FOAnd,
    FONot,
    ev,
    equivalence_check,
    infer_arities,
    mc,
    mx,
    qe_answers,
    qe_encode,
    reach,
    sat_bounded,
    task_vocabulary,
    temp_mc,
    temp_mc_search,
    temp_sat_prop,
)

HC = AtomicModule.builtin("HC", [("V", 1), ("X", 2), ("Y", 2)], "hamiltonian_circuit")
TWO_COL = AtomicModule.builtin("TwoCol", [("V", 1), ("X", 2), ("Z", 1), ("T", 1)], "two_col")

C4_EDGES = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"),
            ("2", "1"), ("3", "2"), ("4", "3"), ("1", "4")]
K3_EDGES = [(a, b) for a in "123" for b in "123" if a != b]


def graph_input(elements, edges):
    domain = Domain(tuple(elements))
    vocab = Vocabulary((("V", 1), ("X", 2)))
    structure = Structure.make(
        domain, vocab, {"V": [(e,) for e in elements], "X": edges}
    )
    return domain, structure


class TestMc:
    def test_trivial(self, pq):
        domain, vocab, _, val = pq
        s = structure_pq(domain, vocab)
        assert mc(F.Complement(F.Bottom()), s, val) is True
        assert mc(F.Bottom(), s, val) is False

    def test_selection(self, pq):
        domain, vocab, _, val = pq
        e = F.Select(Var("P"), Var("Q"), F.Complement(F.Bottom()))
        assert mc(e, structure_pq(domain, vocab, p=("a",), q=("a",)), val)
        assert not mc(e, structure_pq(domain, vocab, p=("a",), q=("b",)), val)

    def test_matches_universe_evaluation(self, pq):
        domain, vocab, u, val = pq
        rng = random.Random(51)
        for _ in range(25):
            e = random_flat(rng, 3)
            sat = set(F.eval_flat(e, val, u).indices())
            for i in (0, 5, 9, 15):
                assert mc(e, u.structure_at(i), val) == (i in sat)


    @pytest.mark.parametrize("with_w", [False, True])
    def test_projection_keeping_unused_variable(self, with_w):
        domain = Domain(("a", "b"))
        ne = AtomicModule.builtin("Ne", [("A", 1)], fn=lambda d, rels: bool(rels[0].tuples))
        val = Valuation(domain, {}, {"Ne": ne})
        inner = F.Atom("Ne", ("X",))
        nested = F.Project(frozenset({"X"}), F.Project(frozenset({"X", "W"}), inner))
        symbols = (("X", 1), ("W", 1)) if with_w else (("X", 1),)
        for x in ([], [("a",)]):
            interpretation = {"X": x, "W": [("b",)]} if with_w else {"X": x}
            s = Structure.make(domain, Vocabulary(symbols), interpretation)
            assert mc(nested, s, val) == mc(F.Project(frozenset({"X"}), inner), s, val)
            assert mc(nested, s, val) == bool(x)


class TestMx:
    def test_two_col_on_c4(self):
        # oracle: brute force over all (Z, T) assignments
        domain, structure = graph_input("1234", C4_EDGES)
        val = Valuation(domain, {}, {"TwoCol": TWO_COL})
        e = F.Atom("TwoCol", ("V", "X", "Z", "T"))
        vocab = Vocabulary((("V", 1), ("X", 2), ("Z", 1), ("T", 1)))
        got = mx(e, {"V", "X"}, structure, val, vocab)
        expected = set()
        elements = tuple("1234")
        for z_bits in itertools.product((0, 1), repeat=4):
            for t_bits in itertools.product((0, 1), repeat=4):
                z = rel(1, *[(e_,) for e_, b in zip(elements, z_bits) if b])
                t = rel(1, *[(e_,) for e_, b in zip(elements, t_bits) if b])
                if TWO_COL.accepts(domain, [structure.rel("V"), structure.rel("X"), z, t]):
                    expected.add((z, t))
        assert {(s.rel("Z"), s.rel("T")) for s in got} == expected
        assert len(got) == 2

    def test_two_col_on_k3_unsat(self):
        domain, structure = graph_input("123", K3_EDGES)
        val = Valuation(domain, {}, {"TwoCol": TWO_COL})
        e = F.Atom("TwoCol", ("V", "X", "Z", "T"))
        vocab = Vocabulary((("V", 1), ("X", 2), ("Z", 1), ("T", 1)))
        assert mx(e, {"V", "X"}, structure, val, vocab) == []

    def test_full_sigma_collapses_to_mc(self, pq):
        domain, vocab, _, val = pq
        e = F.Atom("FullP", ("P",))
        good = structure_pq(domain, vocab, p=("a", "b"), q=("a",))
        bad = structure_pq(domain, vocab, p=("a",))
        assert mx(e, {"P", "Q"}, good, val, vocab) == [good]
        assert mx(e, {"P", "Q"}, bad, val, vocab) == []

    def test_requires_exact_sigma_structure(self, pq):
        domain, vocab, _, val = pq
        e = F.Atom("FullP", ("P",))
        with pytest.raises(WellformednessError):
            mx(e, {"P"}, structure_pq(domain, vocab), val, vocab)

    def test_canonical_order(self, pq):
        domain, vocab, u, val = pq
        sigma_vocab = Vocabulary((("P", 1),))
        structure = Structure.make(domain, sigma_vocab, {"P": [("a",), ("b",)]})
        got = mx(F.Atom("FullP", ("P",)), {"P"}, structure, val, vocab)
        indices = [u.index_of(s) for s in got]
        assert indices == sorted(indices) == [12, 13, 14, 15]


class TestMxMatchesUniverseFiltering:
    def test_differential(self, pq):
        # the pruned DFS and explicit universe filtering agree
        domain, vocab, u, val = pq
        rng = random.Random(52)
        for _ in range(30):
            e = random_flat(rng, 3)
            p_value = rng.choice([(), ("a",), ("b",), ("a", "b")])
            part = Structure.make(domain, Vocabulary((("P", 1),)),
                                  {"P": [(x,) for x in p_value]})
            got = {u.index_of(s) for s in mx(e, {"P"}, part, val, vocab)}
            sat = F.eval_flat(e, val, u)
            pmask = u.mask(["P"])
            target = u.encode_rel("P", rel(1, *[(x,) for x in p_value]))
            expected = {i for i in sat.indices() if (i & pmask) == target}
            assert got == expected


class TestSatBounded:
    def test_bottom_none(self, pq):
        _, _, _, val = pq
        assert sat_bounded(F.Bottom(), val, 2, Vocabulary((("P", 1),))) is None

    def test_top_finds_empty_structure_at_size_one(self, pq):
        _, _, _, val = pq
        witness = sat_bounded(F.Complement(F.Bottom()), val, 2, Vocabulary((("P", 1),)))
        assert witness is not None
        assert len(witness.domain) == 1
        assert witness.rel("P") == rel(1)

    def test_constant_selection(self):
        domain = Domain(("a",))
        val = Valuation(domain, {}, {})
        e = F.Select(Var("P"), Const.of([("a",)]), F.Complement(F.Bottom()))
        witness = sat_bounded(e, val, 1)
        assert witness is not None and witness.rel("P") == rel(1, ("a",))

    def test_cap_validation(self, pq):
        _, _, _, val = pq
        with pytest.raises(CapExceeded):
            sat_bounded(F.Bottom(), val, 5, Vocabulary((("P", 1),)))


class TestEv:
    def test_hc_on_k3(self):
        domain, structure = graph_input("123", K3_EDGES)
        val = Valuation(domain, {}, {"HC": HC})
        e = F.Atom("HC", ("V", "X", "Y"))
        vocab = Vocabulary((("V", 1), ("X", 2), ("Y", 2)))
        cycle = RelationValue.of(2, [("1", "2"), ("2", "3"), ("3", "1")])
        assert ev(e, {"V", "X"}, structure, {"Y": cycle}, val, vocab) is not None
        single = RelationValue.of(2, [("1", "2")])
        assert ev(e, {"V", "X"}, structure, {"Y": single}, val, vocab) is None

    def test_no_internals_reduces_to_mc(self, pq):
        domain, vocab, _, val = pq
        e = F.Atom("Copy", ("P", "Q"))
        sigma_vocab = Vocabulary((("P", 1),))
        structure = Structure.make(domain, sigma_vocab, {"P": [("a",)]})
        assert ev(e, {"P"}, structure, {"Q": rel(1, ("a",))}, val, vocab) is not None
        assert ev(e, {"P"}, structure, {"Q": rel(1, ("b",))}, val, vocab) is None

    def test_internal_search(self):
        # copy P -> Q -> R with Q internal (hidden by projection)
        domain = Domain(("a", "b"))
        copy = AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1]
        )
        val = Valuation(domain, {}, {"Copy": copy})
        chain = F.Project(
            frozenset({"P", "R"}),
            F.intersect(F.Atom("Copy", ("P", "Q")), F.Atom("Copy", ("Q", "R"))),
        )
        vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
        structure = Structure.make(domain, Vocabulary((("P", 1),)), {"P": [("a",)]})
        assert ev(chain, {"P"}, structure, {"R": rel(1, ("a",))}, val, vocab) is not None
        assert ev(chain, {"P"}, structure, {"R": rel(1, ("b",))}, val, vocab) is None


def fo_eval(formula, db, binding):
    if isinstance(formula, FOAtom):
        values = tuple(binding[a] for a in formula.args)
        return values in db.rel(formula.pred).tuples
    if isinstance(formula, FOEq):
        return binding[formula.left] == binding[formula.right]
    if isinstance(formula, FOAnd):
        return fo_eval(formula.left, db, binding) and fo_eval(formula.right, db, binding)
    if isinstance(formula, FONot):
        return not fo_eval(formula.inner, db, binding)
    if isinstance(formula, FOExists):
        return any(
            fo_eval(formula.body, db, {**binding, formula.var: el})
            for el in db.domain.elements
        )
    raise TypeError(formula)


class TestQe:
    def _edge_db(self, edges):
        domain = Domain(("a", "b"))
        vocab = Vocabulary((("E", 2),))
        return Structure.make(domain, vocab, {"E": edges})

    def test_reflexivity_query(self):
        instance = qe_encode(FOEq("x", "x"), self._edge_db([]))
        assert qe_answers(instance) == {("a",), ("b",)}

    def test_edge_query(self):
        instance = qe_encode(FOAtom("E", ("x", "y")), self._edge_db([("a", "b")]))
        assert qe_answers(instance) == {("a", "b")}

    def test_loop_query_empty(self):
        instance = qe_encode(FOAtom("E", ("x", "x")), self._edge_db([("a", "b")]))
        assert qe_answers(instance) == set()

    def test_against_direct_evaluator(self):
        db = self._edge_db([("a", "b"), ("b", "b")])
        queries = [
            FOAtom("E", ("x", "y")),
            FOAnd(FOAtom("E", ("x", "y")), FONot(FOEq("x", "y"))),
            FOExists("y", FOAtom("E", ("x", "y"))),
            FONot(FOExists("y", FOAtom("E", ("y", "x")))),
        ]
        from modalg.tasks import fo_free_vars

        for query in queries:
            instance = qe_encode(query, db)
            free = fo_free_vars(query)
            expected = {
                combo
                for combo in itertools.product(db.domain.elements, repeat=len(free))
                if fo_eval(query, db, dict(zip(free, combo)))
            }
            assert qe_answers(instance) == expected


class TestTemporal:
    def test_temp_mc_examples(self, pq):
        domain, vocab, u, val = pq
        top = S.Or(PROP_FULLP, S.Not(PROP_FULLP))
        nothing = S.Diamond(D.Bottom(), top)
        for i in (0, 7, 15):
            assert not temp_mc(nothing, u.structure_at(i), val, u)
        good = S.Diamond(SETP, PROP_FULLP)
        for i in (0, 7, 15):
            assert temp_mc(good, u.structure_at(i), val, u)
        assert not temp_mc(PROP_FULLP, structure_pq(domain, vocab, p=("a",)), val, u)

    def test_temp_mc_search(self, pq):
        _, _, u, val = pq
        top = S.Or(PROP_FULLP, S.Not(PROP_FULLP))
        assert temp_mc_search(S.Diamond(D.Bottom(), top), val, u) == []
        assert len(temp_mc_search(S.Diamond(SETP, PROP_FULLP), val, u)) == 16
        fulls = temp_mc_search(PROP_FULLP, val, u)
        assert [u.index_of(s) for s in fulls] == [12, 13, 14, 15]


class TestTempSat:
    def setup_method(self):
        self.domain = Domain(("a", "b"))
        self.m = propositional_module("M", ["p"], lambda bits: bits[0])
        self.val = Valuation(self.domain, {}, {"M": self.m})
        self.prop = S.Prop("M", ("p",))

    def test_tautology_satisfiable(self):
        assert temp_sat_prop(S.Or(self.prop, S.Not(self.prop)), self.val) is not None

    def test_contradiction_unsatisfiable(self):
        assert temp_sat_prop(S.And(self.prop, S.Not(self.prop)), self.val) is None

    def test_set_then_check(self):
        # <set p> p and not p: the empty one-element state is the witness
        act = D.Action("M", ("p",), frozenset(), frozenset({"p"}))
        phi = S.And(S.Diamond(act, self.prop), S.Not(self.prop))
        witness = temp_sat_prop(phi, self.val)
        assert witness is not None
        universe, state = witness
        assert len(universe.domain) == 1
        assert state.rel("p") == rel(1)

    def test_rejects_non_propositional(self, pq):
        _, _, _, val = pq
        with pytest.raises(NonPropositionalFormula):
            temp_sat_prop(S.Prop("FullP", ("P",)), val)


class TestReach:
    def test_bottom_never_reaches(self, pq):
        _, _, u, val = pq
        goal = {"P": rel(1, ("a",), ("b",))}
        for i in (0, 9, 15):
            assert not reach(D.Bottom(), u.structure_at(i), goal, val, u)

    def test_setp_reaches_full(self, pq):
        _, _, u, val = pq
        goal = {"P": rel(1, ("a",), ("b",))}
        for i in range(16):
            assert reach(SETP, u.structure_at(i), goal, val, u)

    def test_setp_never_reaches_empty(self, pq):
        _, _, u, val = pq
        goal = {"P": rel(1)}
        for i in range(16):
            assert not reach(SETP, u.structure_at(i), goal, val, u)

    def test_goal_with_two_symbols(self, pq):
        _, _, u, val = pq
        goal = {"P": rel(1, ("a",), ("b",)), "Q": rel(1, ("b",))}
        start = u.index_of(structure_pq(*pq[:2], p=(), q=("b",)))
        other = u.index_of(structure_pq(*pq[:2], p=(), q=("a",)))
        assert reach(SETP, u.structure_at(start), goal, val, u)
        assert not reach(SETP, u.structure_at(other), goal, val, u)

    def test_agrees_with_transition_system_label(self, pq):
        """reach reads a's own edges: the transition system's label for a."""
        _, _, u, val = pq
        rng = random.Random(41)
        goals = [{"P": rel(1, ("a",))}, {"Q": rel(1)},
                 {"P": rel(1, ("a",), ("b",)), "Q": rel(1, ("b",))}]
        checked = raised = 0
        for k in range(60):
            a = random_any_proc(rng, 3)
            if k % 3 == 0:
                a = D.kleene_star(a)
            try:
                edges = D.build_transition_system(a, val, u).edges[to_text(a)]
            except ModalgError:  # e.g. an illegal selection: no label to compare with
                raised += 1
                continue
            for goal in goals:
                targets = [j for j in range(16)
                           if all(u.structure_at(j).rel(var) == value
                                  for var, value in goal.items())]
                for i in rng.sample(range(16), 4):
                    expected = any(edges.contains(i, j) for j in targets)
                    assert reach(a, u.structure_at(i), goal, val, u) == expected
                    checked += 1
        assert checked >= 400 and raised < 20


class TestEquivalence:
    def test_bottom_all_false_pass(self, pq):
        domain, vocab, _, val = pq
        sigma_vocab = Vocabulary((("P", 1),))
        structure = Structure.make(domain, sigma_vocab, {"P": [("a",)]})
        e = F.intersect(F.Bottom(), F.Atom("Copy", ("P", "Q")))
        report = equivalence_check(e, {"P"}, structure, {"Q": rel(1, ("a",))}, val, vocab)
        assert report.passed
        assert all(not row.temp_mc and not row.reach and not row.ev for row in report.rows)

    def test_copy_chain_all_assignments(self):
        domain = Domain(("a", "b"))
        copy = AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1]
        )
        val = Valuation(domain, {}, {"Copy": copy})
        chain = F.Project(
            frozenset({"P", "R"}),
            F.intersect(F.Atom("Copy", ("P", "Q")), F.Atom("Copy", ("Q", "R"))),
        )
        vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
        structure = Structure.make(domain, Vocabulary((("P", 1),)), {"P": [("a",)]})
        good = equivalence_check(chain, {"P"}, structure, {"R": rel(1, ("a",))}, val, vocab)
        assert good.passed and len(good.rows) == 4
        assert all(row.temp_mc and row.reach and row.ev for row in good.rows)
        bad = equivalence_check(chain, {"P"}, structure, {"R": rel(1, ("b",))}, val, vocab)
        assert bad.passed
        assert all(not row.temp_mc and not row.reach and not row.ev for row in bad.rows)

    def test_no_outputs_under_identity_map(self):
        # with no outputs the goal is the tautology !bot; the only module's
        # formals A, B are no vocabulary symbols, and the goal names none
        domain = Domain(("a", "b"))
        copy = AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1]
        )
        val = Valuation(domain, {}, {"Copy": copy})
        e = F.Project(frozenset({"P"}), F.Atom("Copy", ("P", "Q")))
        structure = Structure.make(domain, Vocabulary((("P", 1),)), {"P": [("a",)]})
        report = equivalence_check(e, {"P"}, structure, {}, val)
        assert report.passed and len(report.rows) == 2
        assert all(row.temp_mc and row.reach and row.ev for row in report.rows)


class TestEquivalenceScope:
    """Feedback selections over internal variables genuinely separate the
    modal side from EV: the displayed case-3 semantics guesses the input,
    the flat selection conjoins it. Pinned so the boundary stays visible."""

    def test_internal_feedback_counterexample(self):
        domain = Domain(("a",))
        qf = AtomicModule.builtin(
            "QF", [("A", 1), ("B", 1)], fn=lambda d, rels: len(rels[1].tuples) == 1
        )
        val = Valuation(domain, {}, {"QF": qf})
        e = F.Project(frozenset({"P"}),
                      F.Select(Var("Q"), Var("P"), F.Atom("QF", ("P", "Q"))))
        vocab = Vocabulary((("P", 1), ("Q", 1)))
        empty_sigma = Structure.make(domain, Vocabulary(()), {})
        report = equivalence_check(e, frozenset(), empty_sigma, {"P": rel(1)}, val, vocab)
        by_label = {row.assignment.label(): row for row in report.rows}
        guessing = by_label["#0.Q=in"]   # Q feeds the case-3 guess
        assert guessing.temp_mc and guessing.reach and not guessing.ev
        agreeing = by_label["#0.Q=out"]  # both operands are outputs: case 2
        assert agreeing.agree
        assert not report.passed


class TestEquivalenceSweep:
    """Seeded random propagation-shaped instances with free selection
    operands: the three legs must agree under every internal assignment."""

    def test_random_instances(self):
        domain = Domain(("a",))
        modules = {
            "Copy": AtomicModule.builtin(
                "Copy", [("A", 1), ("B", 1)], fn=lambda d, r: r[0] == r[1]
            ),
            "NP": AtomicModule.builtin("NP", [("A", 1)], fn=lambda d, r: bool(r[0].tuples)),
            "QF": AtomicModule.builtin(
                "QF", [("A", 1), ("B", 1)], fn=lambda d, r: len(r[1].tuples) == 1
            ),
        }
        val = Valuation(domain, {}, modules)
        vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
        rng = random.Random(20260811)
        atoms = [
            F.Atom("Copy", ("P", "Q")), F.Atom("Copy", ("Q", "R")),
            F.Atom("Copy", ("P", "R")), F.Atom("NP", ("P",)), F.Atom("NP", ("Q",)),
            F.Atom("QF", ("P", "Q")), F.Atom("QF", ("Q", "R")),
        ]

        def gen(depth):
            if depth <= 0:
                return rng.choice(atoms)
            kind = rng.randrange(4)
            if kind == 0:
                return F.intersect(gen(depth - 1), gen(depth - 1))
            if kind == 1:
                return F.Union(gen(depth - 1), gen(depth - 1))
            inner = gen(depth - 1)
            occ = sorted(F.occurring_vars(inner))
            if kind == 2 and len(occ) > 1:
                return F.Project(frozenset(set(occ) - {rng.choice(occ)}), inner)
            return F.Select(Var(rng.choice(occ)), Var(rng.choice(occ)), inner)

        def selects_stay_free(e, free):
            if isinstance(e, F.Select):
                ops = {op.name for op in (e.left, e.right) if isinstance(op, Var)}
                if not ops <= free:
                    return False
            children = (
                [e.left, e.right] if isinstance(e, F.Union)
                else [e.inner] if isinstance(e, (F.Complement, F.Project, F.Select))
                else []
            )
            return all(selects_stay_free(c, free) for c in children)

        values = [rel(1), rel(1, ("a",))]
        from modalg.errors import ModalgError
        from modalg.flat import free_relational_vars

        checked = 0
        while checked < 60:
            e = gen(rng.randrange(1, 4))
            free = free_relational_vars(e)
            if not free or not selects_stay_free(e, free):
                continue
            ordered = sorted(free)
            split = rng.randrange(len(ordered))
            sigma = frozenset(ordered[:split])
            structure = Structure.make(
                domain, Vocabulary(tuple((s, 1) for s in sorted(sigma))),
                {s: rng.choice(values) for s in sorted(sigma)},
            )
            outputs = {v: rng.choice(values) for v in ordered[split:]}
            try:
                result = equivalence_check(e, sigma, structure, outputs, val, vocab)
            except ModalgError:
                continue
            assert result.passed, result.summary()
            checked += 1


class TestTaskLadder:
    def test_mc_implies_mx_implies_sat(self, pq):
        domain, vocab, u, val = pq
        rng = random.Random(61)
        checked = 0
        for _ in range(40):
            e = random_flat(rng, 3)
            structure = u.structure_at(rng.randrange(16))
            holds = mc(e, structure, val)
            expansions = mx(e, {"P", "Q"}, structure, val, vocab)
            assert (structure in expansions) == holds
            assert (expansions == [structure]) == holds  # sigma covers the vocabulary
            if holds:
                witness = sat_bounded(e, val, len(domain), vocab)
                assert witness is not None
                checked += 1
        assert checked > 0


class TestBranchesAgree:
    """A vacuous fixed point forces the universe branch of mc/mx/ev/
    sat_bounded; on fixpoint-free formulas both branches give one answer."""

    @pytest.mark.parametrize("universe", ["pq", "abc-binary"])
    def test_vacuous_fixpoint_changes_no_answer(self, pq, universe):
        if universe == "pq":
            domain, vocab, _, val = pq
            count, depth, samples = 12, 3, 4
        else:  # a hidden Q has 512 values: each projection searches them once per P
            domain, vocab, val = three_element_setup()
            count, depth, samples = 8, 3, 2
        rng = random.Random(83)
        formulas = []
        while len(formulas) < count:
            e = random_flat(rng, depth)
            nodes = walk(e)
            if any(isinstance(n, F.Lfp) for n in nodes):
                continue
            formulas.append(e)
        q_tuples = list(itertools.product(domain.elements, repeat=vocab.arity("Q")))
        for e in formulas:
            wrapped = F.Lfp("Zv", e)
            for _ in range(samples):
                p = [(x,) for x in domain.elements if rng.random() < 0.5]
                q = [t for t in q_tuples if rng.random() < 0.3]
                full = Structure.make(domain, vocab, {"P": p, "Q": q})
                part = Structure.make(domain, Vocabulary((("P", 1),)), {"P": p})
                assert mc(e, full, val) == mc(wrapped, full, val)
                assert mx(e, {"P"}, part, val, vocab) == mx(wrapped, {"P"}, part, val, vocab)
                outputs = {"Q": full.rel("Q")} if "Q" in F.free_relational_vars(e) else {}
                assert (ev(e, {"P"}, part, outputs, val, vocab)
                        == ev(wrapped, {"P"}, part, outputs, val, vocab))
            cap = len(domain)
            assert sat_bounded(e, val, cap, vocab) == sat_bounded(wrapped, val, cap, vocab)

    @pytest.mark.parametrize("given_vocabulary", [True, False])
    def test_selection_between_arities(self, given_vocabulary):
        """sel[P == Q] with P unary and Q binary holds iff both are empty;
        every task answers it, on both branches."""
        domain, vocab, val = three_element_setup()
        e = F.Select(Var("P"), Var("Q"), F.Atom("Copy", ("P", "Q")))
        voc = vocab if given_vocabulary else None
        for body in (e, F.Lfp("Zv", e)):
            for p, want in (([], True), ([("a",)], False)):
                full = Structure.make(domain, vocab, {"P": p, "Q": [(x, x) for (x,) in p]})
                part = Structure.make(domain, Vocabulary((("P", 1),)), {"P": p})
                assert mc(body, full, val) is want
                assert [m == full for m in mx(body, {"P"}, part, val, voc)] == [True] * want
                witness = ev(body, {"P"}, part, {"Q": full.rel("Q")}, val, voc)
                assert witness == (full if want else None)
            empty = Structure.make(Domain(("a",)), vocab, {"P": [], "Q": []})
            assert sat_bounded(body, val, len(domain), voc) == empty
        # an atom fixing Q's arity after the selection in the walk, either
        # side of a union: the formula holds iff Q is empty (a full P is not)
        sel = F.Select(Var("P"), Var("Q"), F.Atom("FullP", ("P",)))
        empty_q = F.Atom("EmptyQ", ("Q",))
        for u in (F.Union(sel, empty_q), F.Union(empty_q, sel)):
            assert infer_arities(u, val) == {"P": 1, "Q": 2}
            p = [("a",)]
            part = Structure.make(domain, Vocabulary((("P", 1),)), {"P": p})
            for q, want in (([], True), ([("a", "b")], False)):
                full = Structure.make(domain, vocab, {"P": p, "Q": q})
                assert mc(u, full, val) is want
                assert ev(u, {"P"}, part, {"Q": full.rel("Q")}, val, voc) == (
                    full if want else None)
            only = Structure.make(domain, vocab, {"P": p, "Q": []})
            assert list(mx(u, {"P"}, part, val, voc)) == [only]
            model = sat_bounded(u, val, len(domain), voc)
            assert model is not None and mc(u, model, val)

    def test_output_arity_taken_from_outputs(self):
        """Q occurs only in sel[P == Q], so the modules leave its arity open;
        without a vocabulary, ev takes it from the binary output given, as
        task_vocabulary does."""
        domain, vocab, val = three_element_setup()
        e = F.Select(Var("P"), Var("Q"), F.Complement(F.Atom("FullP", ("P",))))
        part = Structure.make(domain, Vocabulary((("P", 1),)), {"P": []})
        both_empty = Structure.make(domain, vocab, {"P": [], "Q": []})
        for q, want in (([], both_empty), ([("a", "b")], None)):
            outputs = {"Q": rel(2, *q)}
            assert ev(e, {"P"}, part, outputs, val) == want
            assert ev(e, {"P"}, part, outputs, val, vocab) == want
        assert task_vocabulary(e, val, part.vocabulary, {"Q": rel(2)}).symbols == (
            ("P", 1), ("Q", 2))


class TestCompiledSearch:
    """The structure-level search compiles its formula once per call."""

    def test_projection_searched_once_per_kept_value(self):
        """pi{P} (inner | Copy(P,Q) & EmptyQ(Q)), inner = pi{P} (Copy(P,Q) &
        EmptyQ(Q)): both hold iff P is empty. For P = {a} the outer search
        meets inner at its root and at each of Q's 512 values; inner's
        answer depends on P only, so it searches Q once per call. Each
        search calls Copy once per value and EmptyQ once more, where Copy
        holds: 2 * 513 oracle calls."""
        domain, vocab, val = three_element_setup()
        calls = []

        def counting(module):
            def fn(d, rels):
                calls.append(module.name)
                return module.oracle(d, rels)
            return AtomicModule.builtin(module.name, module.vvoc, fn=fn)

        val = Valuation(domain, {}, {name: counting(m) for name, m in val.modules.items()})
        body = F.intersect(F.Atom("Copy", ("P", "Q")), F.Atom("EmptyQ", ("Q",)))
        e = F.Project(frozenset({"P"}), F.Union(F.Project(frozenset({"P"}), body), body))
        # calls with other fixed values share no answers: each searches anew
        for p, want, count in (([], True, 2), ([("a",)], False, 2 * 513),
                               ([("a",)], False, 2 * 513)):
            calls.clear()
            assert mc(e, Structure.make(domain, vocab, {"P": p, "Q": []}), val) is want
            assert len(calls) == count

    def test_unreached_module_is_not_looked_up(self, pq):
        domain, vocab, _, val = pq
        e = F.Union(F.Complement(F.Bottom()), F.Atom("Nope", ("P",)))
        assert mc(e, structure_pq(domain, vocab), val) is True
        assert mx(e, {"P"}, Structure.make(domain, Vocabulary((("P", 1),)), {"P": []}),
                  val, vocab)

    def test_reached_module_errors(self, pq):
        domain, vocab, _, val = pq
        structure = structure_pq(domain, vocab)
        with pytest.raises(UnknownBuiltin, match="no atomic module named 'Nope'"):
            mc(F.Union(F.Atom("Nope", ("P",)), F.Complement(F.Bottom())), structure, val)
        # a fixed symbol of another arity than the module's variable
        binary = Vocabulary((("P", 1), ("Q", 2)))
        wide = Structure.make(domain, binary, {"P": [], "Q": [("a", "b")]})
        with pytest.raises(ArityMismatch, match="^atom EmptyQ: symbol Q has arity 2, expected 1$"):
            mc(F.Atom("EmptyQ", ("Q",)), wide, val)
