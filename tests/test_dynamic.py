"""Calculus of binary relations: actions, derived operations, selection
cases, fixed points, transition systems."""

import itertools
import random
from collections import defaultdict

import pytest

from conftest import rel
from _gen import PROP_FULLP, SETP, SETQ_COPY, random_any_proc, random_proc, three_element_setup
from modalg import dynamic as D
from modalg import lmumu as S
from modalg.core import (
    AtomicModule,
    Domain,
    Valuation,
    Vocabulary,
    build_universe,
)
from modalg.dynamic import (
    EdgeSet,
    build_transition_system,
    eval_dyn,
    io_vocab,
    kleene_star,
)
from modalg.errors import CapExceeded, IllegalSelect, ModalgError
from modalg.flat import Const, EvalStats, Var
from modalg.indexsets import compose
from modalg.printer import to_text


def pairs_of(edge_set):
    return set(edge_set.pairs())


def brute_compose(a, b):
    """{(i, k) : (i, j) in a and (j, k) in b for some j}, on sets of pairs."""
    after = defaultdict(set)
    for j, k in b:
        after[j].add(k)
    return {(i, k) for i, j in a for k in after[j]}


# {a,b,c}, P/1, Q/2: a function (Copy), many sources per target (EmptyQ
# frees Q's nine bits), many targets per source (NonemptyP frees P's three,
# after a test keeps 8 of the 4,096 sources), and a union
ABC_OPERANDS = [
    SETQ_COPY,
    D.Action("EmptyQ", ("Q",), frozenset(), frozenset({"Q"})),
    D.Compose(D.Test("EmptyQ", ("Q",)), D.Action("NonemptyP", ("P",), frozenset(), frozenset({"P"}))),
    D.Union(SETP, SETQ_COPY),
]


@pytest.fixture(scope="module")
def abc():
    """three_element_setup's universe and valuation, and ABC_OPERANDS with
    four random_any_proc terms of at most 6,000 pairs, none complemented
    (a complemented pair set over 4,096 states is over the budget)."""
    domain, vocab, val = three_element_setup()
    u = build_universe(domain, vocab)
    rng = random.Random(26)
    procs = list(ABC_OPERANDS)
    while len(procs) < len(ABC_OPERANDS) + 4:
        a = random_any_proc(rng, 2)
        try:
            iset = eval_dyn(a, val, u).iset
        except ModalgError:
            continue
        if not iset.negated and 0 < len(iset) <= 6000:
            procs.append(a)
    return u, val, procs


class TestIoVocab:
    def test_action(self):
        hc = D.Action("HC", ("V", "X", "Y"), frozenset({"V", "X"}), frozenset({"Y"}))
        assert io_vocab(hc) == ({"V", "X"}, {"Y"})

    def test_projection_hides(self):
        hc = D.Action("HC", ("V", "X", "Y"), frozenset({"V", "X"}), frozenset({"Y"}))
        col = D.Action("TwoCol", ("V", "Y", "Z", "T"), frozenset({"V", "Y"}),
                       frozenset({"Z", "T"}))
        piped = D.Project(frozenset({"V", "X", "Z", "T"}), D.intersect(hc, col))
        sigma, epsilon = io_vocab(piped)
        assert "Y" not in sigma and "Y" not in epsilon
        assert epsilon == {"Z", "T"}

    def test_bottom(self):
        assert io_vocab(D.Bottom()) == (frozenset(), frozenset())

    def test_reverse_swaps(self):
        hc = D.Action("HC", ("V", "X", "Y"), frozenset({"V", "X"}), frozenset({"Y"}))
        assert io_vocab(D.Reverse(hc)) == ({"Y"}, {"V", "X"})


class TestEvalDyn:
    def test_bottom(self, pq):
        _, _, u, val = pq
        assert len(eval_dyn(D.Bottom(), val, u)) == 0

    def test_diagonal(self, pq):
        _, _, u, val = pq
        assert pairs_of(eval_dyn(D.Diagonal(), val, u)) == {(i, i) for i in range(16)}

    def test_action_inertia_oracle(self, pq):
        # filter all 256 pairs by inertia + membership, by hand
        _, _, u, val = pq
        got = pairs_of(eval_dyn(SETP, val, u))
        full_p = rel(1, ("a",), ("b",))
        expected = set()
        for i in range(16):
            for j in range(16):
                s1, s2 = u.structure_at(i), u.structure_at(j)
                if s2.rel("P") == full_p and s1.rel("Q") == s2.rel("Q"):
                    expected.add((i, j))
        assert got == expected and len(got) == 16

    def test_action_self_loops(self, pq):
        _, _, u, val = pq
        got = pairs_of(eval_dyn(SETP, val, u))
        assert sum(1 for i, j in got if i == j) == 4

    def test_test_node_is_diagonal_on_extension(self, pq):
        _, _, u, val = pq
        got = pairs_of(eval_dyn(D.Test("FullP", ("P",)), val, u))
        assert got == {(i, i) for i in range(12, 16)}

    def test_const_test(self, pq):
        _, _, u, val = pq
        got = pairs_of(eval_dyn(D.ConstTest("P", Const.of([("a",)]), True), val, u))
        assert len(got) == 4 and all(i == j for i, j in got)
        for i, _ in got:
            assert u.structure_at(i).rel("P") == rel(1, ("a",))

    def test_const_test_negative(self, pq):
        _, _, u, val = pq
        eq = pairs_of(eval_dyn(D.ConstTest("P", Const.of([("a",)]), True), val, u))
        ne = pairs_of(eval_dyn(D.ConstTest("P", Const.of([("a",)]), False), val, u))
        assert ne == {(i, i) for i in range(16)} - eq

    def test_count_zero_one(self, pq):
        _, _, u, val = pq
        count = eval_dyn(D.Count(SETP, 0, 1), val, u)
        union = eval_dyn(D.Union(D.Diagonal(), SETP), val, u)
        assert count == union

    def test_union_size(self, pq):
        _, _, u, val = pq
        assert len(eval_dyn(D.Union(D.Diagonal(), SETP), val, u)) == 28


class TestDerivedOperations:
    def _catalogue(self, rng, n=12):
        return [random_proc(rng, rng.randrange(3)) for _ in range(n)]

    def test_unary_neg_twice_is_down(self, pq):
        _, _, u, val = pq
        rng = random.Random(21)
        for a in self._catalogue(rng):
            assert eval_dyn(D.UnaryNeg(D.UnaryNeg(a)), val, u) == eval_dyn(D.Down(a), val, u)

    def test_neg_bottom_is_diagonal(self, pq):
        _, _, u, val = pq
        assert eval_dyn(D.UnaryNeg(D.Bottom()), val, u) == eval_dyn(D.Diagonal(), val, u)

    def test_down_up_semantics(self, pq):
        _, _, u, val = pq
        rng = random.Random(22)
        for a in self._catalogue(rng, 8):
            edges = pairs_of(eval_dyn(a, val, u))
            down = pairs_of(eval_dyn(D.Down(a), val, u))
            up = pairs_of(eval_dyn(D.Up(a), val, u))
            assert down == {(i, i) for i, _ in edges}
            assert up == {(j, j) for _, j in edges}

    def test_compose_is_brute_force_join(self, pq, abc):
        _, _, u, val = pq
        rng = random.Random(23)
        for _ in range(8):
            a, b = random_proc(rng, 2), random_proc(rng, 2)
            got = pairs_of(eval_dyn(D.Compose(a, b), val, u))
            expected = brute_compose(pairs_of(eval_dyn(a, val, u)),
                                     pairs_of(eval_dyn(b, val, u)))
            assert got == expected
        # Each pair set below is an operand of many compositions, on both
        # sides, so its index is built once and read again: every result is
        # still the join, and no set changes. On P/Q some are complemented.
        pq_sets = [eval_dyn(random_proc(rng, 2), val, u).iset for _ in range(10)]
        assert any(s.negated for s in pq_sets)
        u_abc, val_abc, procs = abc
        abc_sets = [eval_dyn(a, val_abc, u_abc).iset for a in procs]
        for u, sets in ((u, pq_sets), (u_abc, abc_sets)):
            pairs = [pairs_of(EdgeSet(u, s)) for s in sets]
            for a, pa in zip(sets, pairs):
                for b, pb in zip(sets, pairs):
                    assert pairs_of(EdgeSet(u, compose(a, b))) == brute_compose(pa, pb)
            assert [pairs_of(EdgeSet(u, s)) for s in sets] == pairs
        # over 4,096 states a complemented operand is refused as it
        # materializes, on either side, whichever operand is indexed
        everything = eval_dyn(D.Complement(D.Bottom()), val_abc, u_abc).iset
        for a in abc_sets[:2]:
            for left, right in ((a, everything), (everything, a)):
                with pytest.raises(CapExceeded):
                    compose(left, right)

    def test_count_is_union_of_powers(self, pq, abc):
        _, _, u, val = pq
        rng = random.Random(24)
        for a in [SETP, SETQ_COPY, D.Union(SETP, D.Diagonal()), random_proc(rng, 2)]:
            base = pairs_of(eval_dyn(a, val, u))
            for low, high in ((0, 1), (1, 2), (2, 3)):
                power = {(i, i) for i in range(16)}
                union_of_powers = set()
                for k in range(high + 1):
                    if low <= k:
                        union_of_powers |= power
                    power = brute_compose(power, base)
                got = pairs_of(eval_dyn(D.Count(a, low, high), val, u))
                assert got == union_of_powers
        # on {a,b,c}, A bound to one pair set, which each count reads again
        u, val, procs = abc
        for proc in procs:
            edges = eval_dyn(proc, val, u)
            bound, base = val.bind("A", edges), pairs_of(edges)
            powers = [{(i, i) for i in range(u.size)}]
            while len(powers) < 4:
                powers.append(brute_compose(powers[-1], base))
            for low, high in ((0, 2), (1, 3), (2, 2)):
                got = pairs_of(eval_dyn(D.Count(D.ModuleVar("A"), low, high), bound, u))
                assert got == set().union(*powers[low:high + 1]), to_text(proc)

    def test_count_builds_diagonal_only_for_power_zero(self, monkeypatch):
        # a^{n,m} takes its powers from the body on: m - 1 compositions, and
        # the diagonal (a third inertia call) only for n = 0
        domain = Domain(("a", "b"))
        u = build_universe(domain, Vocabulary(tuple((s, 1) for s in "PQR")))
        val = Valuation(domain, {}, {"Copy": AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1])})
        body = D.Union(D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"})),
                       D.Action("Copy", ("Q", "R"), frozenset({"Q"}), frozenset({"R"})))
        base = pairs_of(eval_dyn(body, val, u))
        built = {"inertia": 0, "compose": 0}
        for name in built:
            monkeypatch.setattr(D, name, lambda *args, _name=name, _fn=getattr(D, name): (
                built.__setitem__(_name, built[_name] + 1) or _fn(*args)))
        for low, high, calls in ((1, 3, (2, 2)), (2, 2, (2, 1)), (0, 2, (3, 1)), (0, 0, (3, 0))):
            built.update(dict.fromkeys(built, 0))
            got = pairs_of(eval_dyn(D.Count(body, low, high), val, u))
            assert (built["inertia"], built["compose"]) == calls, (low, high)
            power, want = {(i, i) for i in range(u.size)}, set()
            for k in range(high + 1):
                want |= power if k >= low else set()
                power = brute_compose(power, base)
            assert got == want

    def test_star_examples(self, pq):
        _, _, u, val = pq
        assert eval_dyn(kleene_star(D.Bottom()), val, u) == eval_dyn(D.Diagonal(), val, u)
        # SetP is idempotent, so its closure is D | SetP
        assert eval_dyn(kleene_star(SETP), val, u) == eval_dyn(
            D.Union(D.Diagonal(), SETP), val, u
        )

    def test_star_is_reflexive_transitive_closure(self, pq, abc):
        # diag | Z ; a and diag | a ; Z; on {a,b,c} the step is A, bound to
        # one pair set, which both fixpoints read
        _, _, u, val = pq
        rng = random.Random(25)
        cases = [(u, val, a) for a in self._catalogue(rng, 6)]
        u_abc, val_abc, procs = abc
        cases += [(u_abc, val_abc.bind("A", eval_dyn(a, val_abc, u_abc)), D.ModuleVar("A"))
                  for a in procs]
        for u, val, a in cases:
            base = pairs_of(eval_dyn(a, val, u))
            closure = {(i, i) for i in range(u.size)}
            while True:
                bigger = closure | brute_compose(closure, base)
                if bigger == closure:
                    break
                closure = bigger
            mirrored = D.Lfp("Z", D.Union(D.Diagonal(), D.Compose(a, D.ModuleVar("Z"))))
            for star in (kleene_star(a), mirrored):
                assert pairs_of(eval_dyn(star, val, u)) == closure, to_text(star)

    def test_star_of_three_state_chain(self):
        # chain s00 -> s10 -> s11 over two unary symbols on one element
        domain = Domain(("a",))
        vocab = Vocabulary((("P", 1), ("Q", 1)))
        u = build_universe(domain, vocab)
        full = AtomicModule.builtin("Full", [("A", 1)],
                                    fn=lambda d, rels: len(rels[0].tuples) == 1)
        val = Valuation(domain, {}, {"Full": full})
        empty = Const.of([])
        loop_a = Const.of([("a",)])
        step1 = D.Compose(
            D.Compose(D.ConstTest("P", empty, True), D.ConstTest("Q", empty, True)),
            D.Action("Full", ("P",), frozenset(), frozenset({"P"})),
        )
        step2 = D.Compose(
            D.Compose(D.ConstTest("P", loop_a, True), D.ConstTest("Q", empty, True)),
            D.Action("Full", ("Q",), frozenset(), frozenset({"Q"})),
        )
        chain = D.Union(step1, step2)
        star = pairs_of(eval_dyn(kleene_star(chain), val, u))

        def state(p, q):
            return u.index_of(u.structure_at(0).with_rel("P", rel(1, *p)).with_rel("Q", rel(1, *q)))

        s00, s10, s11 = state((), ()), state((("a",),), ()), state((("a",),), (("a",),))
        sub = {s00, s10, s11}
        in_sub = {(i, j) for i, j in star if i in sub and j in sub}
        assert in_sub == {(s00, s00), (s10, s10), (s11, s11),
                          (s00, s10), (s10, s11), (s00, s11)}
        assert len(in_sub) == 6

    def test_reverse_involution(self, pq):
        _, _, u, val = pq
        rng = random.Random(26)
        for a in self._catalogue(rng):
            assert eval_dyn(D.Reverse(D.Reverse(a)), val, u) == eval_dyn(a, val, u)

    def test_reverse_flips_action(self, pq):
        _, _, u, val = pq
        flipped = D.Reverse(SETP)
        expected = D.Action("FullP", ("P",), frozenset({"P"}), frozenset())
        assert eval_dyn(flipped, val, u) == eval_dyn(expected, val, u)

    def test_subexpression_tests(self, pq):
        _, _, u, val = pq
        rng = random.Random(27)
        diag = {(i, i) for i in range(16)}
        for a in self._catalogue(rng):
            edges = pairs_of(eval_dyn(a, val, u))
            eq = pairs_of(eval_dyn(D.TestEq(a), val, u))
            ne = pairs_of(eval_dyn(D.TestNeq(a), val, u))
            assert eq == edges & diag
            assert ne == edges - eq

    def test_inertia_invariant(self, pq):
        _, _, u, val = pq
        for action, eps in ((SETP, {"P"}), (SETQ_COPY, {"Q"})):
            preserved = [s for s in u.vocabulary.names if s not in eps]
            for i, j in eval_dyn(action, val, u).pairs():
                s1, s2 = u.structure_at(i), u.structure_at(j)
                assert s1.agrees_with(s2, preserved)


class TestSelect:
    """The three selection cases against brute-force oracles."""

    def setup_method(self):
        self.domain = Domain(("a", "b"))
        self.vocab = Vocabulary((("P", 1), ("Q", 1)))
        self.u = build_universe(self.domain, self.vocab)
        # membership: Q part is full (reads P too, so P can be an input)
        m2 = AtomicModule.builtin(
            "M2", [("A", 1), ("B", 1)],
            fn=lambda d, rels: len(rels[1].tuples) == 2,
        )
        self.val = Valuation(self.domain, {}, {"M2": m2})
        self.act = D.Action("M2", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))

    def test_case1_inputs_checked_on_source(self):
        both_in = D.Action("M2", ("P", "Q"), frozenset({"P", "Q"}), frozenset())
        sel = D.Select(Var("P"), Var("Q"), both_in)
        got = pairs_of(eval_dyn(sel, self.val, self.u))
        inner = pairs_of(eval_dyn(both_in, self.val, self.u))
        expected = {
            (i, j) for i, j in inner
            if self.u.structure_at(i).rel("P") == self.u.structure_at(i).rel("Q")
        }
        assert got == expected

    def test_case2_outputs_checked_on_target(self):
        both_out = D.Action("M2", ("P", "Q"), frozenset(), frozenset({"P", "Q"}))
        sel = D.Select(Var("P"), Var("Q"), both_out)
        got = pairs_of(eval_dyn(sel, self.val, self.u))
        inner = pairs_of(eval_dyn(both_out, self.val, self.u))
        expected = {
            (i, j) for i, j in inner
            if self.u.structure_at(j).rel("P") == self.u.structure_at(j).rel("Q")
        }
        assert got == expected

    @staticmethod
    def feedback_oracle(u, val, sel, inner):
        """The displayed semantics on Structure objects: (B1, B2) for a pair
        (C, B2) of the body, where B1 agrees with the witness C off L1 and L1
        at B1 equals L2 at B2, as tuple sets (as a selection compiled by
        tasks._compile compares them)."""
        l1, l2 = val.symbol(sel.left.name), val.symbol(sel.right.name)
        structures = list(u)
        rest = [x for x in u.vocabulary.names if x != l1]
        agreeing = {}  # the structures by their relations off L1
        for b, s in enumerate(structures):
            agreeing.setdefault(tuple(s.rel(x) for x in rest), []).append(b)
        return {(b1, b2) for c, b2 in inner
                for b1 in agreeing[tuple(structures[c].rel(x) for x in rest)]
                if structures[b1].rel(l1).tuples == structures[b2].rel(l2).tuples}

    def test_case3_feedback_oracle(self):
        # P/Q; {a,b,c} with L1 = P/1 and L2 = Q/2, where only empty relations
        # are equal; {a,b} with binary and unary L1, L2 on both sides of
        # each other in the vocabulary
        copy = D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))
        nonempty = D.Action("NonemptyP", ("P",), frozenset({"P"}), frozenset())
        domain, vocab, val = three_element_setup()
        one = {"One": AtomicModule.builtin("One", [("A", 2), ("B", 2)],
                                           fn=lambda d, r: r[1].tuples == {("a", "b")}),
               "Two": AtomicModule.builtin("Two", [("A", 1), ("B", 1)],
                                           fn=lambda d, r: r[1].tuples == {("b",)})}
        mixed = Vocabulary((("R", 1), ("P", 2), ("S", 1), ("Q", 2)))
        cases = [
            (self.u, self.val, D.Select(Var("P"), Var("Q"), self.act)),
            (build_universe(domain, vocab), val,
             D.Select(Var("P"), Var("Q"), D.Union(copy, nonempty))),
            (build_universe(self.domain, mixed), Valuation(self.domain, {}, one),
             D.Select(Var("P"), Var("Q"), D.Action("One", ("P", "Q"), frozenset({"P"}),
                                                   frozenset({"Q"})))),
            (build_universe(self.domain, mixed), Valuation(self.domain, {}, one),
             D.Select(Var("S"), Var("R"), D.Action("Two", ("S", "R"), frozenset({"S"}),
                                                   frozenset({"R"})))),
        ]
        for u, val, sel in cases:
            inner = pairs_of(eval_dyn(sel.inner, val, u))
            got = pairs_of(eval_dyn(sel, val, u))
            assert got and got == self.feedback_oracle(u, val, sel, inner), to_text(sel)
        # against a constant, the input P selects on the source (case 1)
        sel = D.Select(Var("P"), Const.of([("a",)]), self.act)
        inner = pairs_of(eval_dyn(self.act, self.val, self.u))
        assert D.select_side(sel) == 0
        assert pairs_of(eval_dyn(sel, self.val, self.u)) == {
            (i, j) for i, j in inner if self.u.structure_at(i).rel("P").tuples == {("a",)}}

    def test_illegal_select(self):
        # operand outside both vocabularies
        sel = D.Select(Var("Q"), Var("P"), self.act)  # Q in eps, P in sigma: no case
        with pytest.raises(IllegalSelect):
            eval_dyn(sel, self.val, self.u)

    def test_case1_over_complemented_body(self):
        # the body is stored as a complement; the restriction stays exact
        both_in = D.Action("M2", ("P", "Q"), frozenset({"P", "Q"}), frozenset())
        sel = D.Select(Var("P"), Var("Q"), D.Complement(both_in))
        got = pairs_of(eval_dyn(sel, self.val, self.u))
        inner = pairs_of(eval_dyn(both_in, self.val, self.u))
        expected = {
            (i, j)
            for i in range(16)
            for j in range(16)
            if (i, j) not in inner
            and self.u.structure_at(i).rel("P") == self.u.structure_at(i).rel("Q")
        }
        assert got == expected

    def test_case2_over_complemented_body(self):
        both_out = D.Action("M2", ("P", "Q"), frozenset(), frozenset({"P", "Q"}))
        sel = D.Select(Var("P"), Var("Q"), D.Complement(both_out))
        got = pairs_of(eval_dyn(sel, self.val, self.u))
        inner = pairs_of(eval_dyn(both_out, self.val, self.u))
        expected = {
            (i, j)
            for i in range(16)
            for j in range(16)
            if (i, j) not in inner
            and self.u.structure_at(j).rel("P") == self.u.structure_at(j).rel("Q")
        }
        assert got == expected

    @pytest.mark.parametrize("sel, size, sources", [
        # nearly every source is kept: the pairs of the other sources are
        # taken away, and the result stays complemented
        (D.Select(Var("P"), Var("P"), D.Complement(D.Test("FullP", ("P",)))), (1 << 24) - 512,
         1 << 12),
        # few sources are kept: their 8 x 4,096 pairs are listed
        (D.Select(Var("Q"), Const.of([("a", "a")]), D.Complement(D.Test("EmptyQ", ("Q",)))),
         8 << 12, 8),
    ], ids=["many-sources", "few-sources"])
    def test_select_over_complemented_body_at_scale(self, sel, size, sources):
        domain, vocab, val = three_element_setup()
        u = build_universe(domain, vocab)
        got = eval_dyn(sel, val, u)
        assert len(got) == size
        assert len(S.eval_state(S.Diamond(sel, S.TOP), val, u)) == sources


class TestComplementedProjection:
    def test_projection_of_complemented_diagonal_is_full(self, pq):
        # classes hold 4 structures each, so no P-class product is fully
        # removed by deleting the diagonal: the projection is everything
        _, _, u, val = pq
        e = D.Project(frozenset({"P"}), D.Complement(D.Diagonal()))
        assert len(eval_dyn(e, val, u)) == 256

    def test_projection_of_complement_matches_brute_force(self, pq):
        _, _, u, val = pq
        inner = D.Complement(D.Union(SETP, D.Diagonal()))
        got = pairs_of(eval_dyn(D.Project(frozenset({"Q"}), inner), val, u))
        base = pairs_of(eval_dyn(inner, val, u))
        qmask = u.mask(["Q"])
        keys = {(i & qmask, j & qmask) for i, j in base}
        expected = {
            (i, j) for i in range(16) for j in range(16)
            if (i & qmask, j & qmask) in keys
        }
        assert got == expected


class TestCompositionProposition:
    """Intersection vs sequential composition under the corrected side
    conditions (eps1 meets sigma2, eps2 disjoint from sigma1, outputs
    disjoint). With replica-based action semantics both sides are still
    different; this pins the observed counterexample (see decisions ledger).
    """

    def test_pinned_mismatch(self):
        domain = Domain(("a",))
        vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
        u = build_universe(domain, vocab)
        copy = AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1]
        )
        val = Valuation(domain, {}, {"Copy": copy})
        a1 = D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))
        a2 = D.Action("Copy", ("Q", "R"), frozenset({"Q"}), frozenset({"R"}))
        s1, e1 = io_vocab(a1)
        s2, e2 = io_vocab(a2)
        assert e1 & s2 and not (e2 & s1) and not (e1 & e2)
        inter = eval_dyn(D.intersect(a1, a2), val, u)
        comp = eval_dyn(D.Compose(a1, a2), val, u)
        assert len(inter) == 2 and len(comp) == 8
        assert inter != comp  # the identity fails; composition moves both outputs


class TestBinaryLfp:
    def test_least_prefixpoint_two_states(self):
        domain = Domain(("a",))
        vocab = Vocabulary((("P", 1),))
        u = build_universe(domain, vocab)
        full = AtomicModule.builtin("Full", [("A", 1)],
                                    fn=lambda d, rels: len(rels[0].tuples) == 1)
        val = Valuation(domain, {}, {"Full": full})
        act = D.Action("Full", ("P",), frozenset(), frozenset({"P"}))
        for body in (
            D.Union(act, D.ModuleVar("Z")),
            D.Union(D.Diagonal(), D.Compose(D.ModuleVar("Z"), act)),
        ):
            got = set(eval_dyn(D.Lfp("Z", body), val, u).pairs())
            prefix = None
            codes = [(i, j) for i in range(2) for j in range(2)]
            for bits in itertools.product((0, 1), repeat=4):
                candidate = {p for p, b in zip(codes, bits) if b}
                bound = val.bind("Z", EdgeSet.from_pairs(u, candidate))
                image = set(eval_dyn(body, bound, u).pairs())
                if image <= candidate:
                    prefix = candidate if prefix is None else (prefix & candidate)
            assert got == prefix

    def test_least_prefixpoint_four_states(self):
        domain = Domain(("a",))
        vocab = Vocabulary((("P", 1), ("Q", 1)))
        u = build_universe(domain, vocab)
        full = AtomicModule.builtin("Full", [("A", 1)],
                                    fn=lambda d, rels: len(rels[0].tuples) == 1)
        val = Valuation(domain, {}, {"Full": full})
        act = D.Action("Full", ("P",), frozenset(), frozenset({"P"}))
        body = D.Union(D.Diagonal(), D.Compose(D.ModuleVar("Z"), act))
        got = set(eval_dyn(D.Lfp("Z", body), val, u).pairs())
        codes = [(i, j) for i in range(4) for j in range(4)]
        prefix = None
        for bits in itertools.product((0, 1), repeat=16):
            candidate = {p for p, b in zip(codes, bits) if b}
            bound = val.bind("Z", EdgeSet.from_pairs(u, candidate))
            image = set(eval_dyn(body, bound, u).pairs())
            if image <= candidate:
                prefix = candidate if prefix is None else (prefix & candidate)
        assert got == prefix


class TestTransitionSystem:
    def test_bottom_single_entry(self, pq):
        _, _, u, val = pq
        ts = build_transition_system(D.Bottom(), val, u)
        assert list(ts.order) == ["bot"]
        assert len(ts.edges["bot"]) == 0

    def test_compose_collapses_repeated_atom(self, pq):
        # two occurrences of SetP share one canonical key; plus the composite
        _, _, u, val = pq
        ts = build_transition_system(D.Compose(SETP, SETP), val, u)
        assert len(ts.order) == 2
        assert set(ts.order) == {to_text(SETP), to_text(D.Compose(SETP, SETP))}

    def test_union_entries_and_sizes(self, pq):
        _, _, u, val = pq
        a = D.Union(D.Diagonal(), SETP)
        ts = build_transition_system(a, val, u)
        assert len(ts.order) == 3
        assert len(ts.edges[to_text(D.Diagonal())]) == 16
        assert len(ts.edges[to_text(SETP)]) == 16
        assert len(ts.edges[to_text(a)]) == 28

    def test_edges_match_eval(self, pq):
        _, _, u, val = pq
        rng = random.Random(31)
        for _ in range(6):
            a = random_proc(rng, 3)
            ts = build_transition_system(a, val, u)
            assert ts.edges[to_text(a)] == eval_dyn(a, val, u)

    def test_fixpoint_subformulas_labelled_at_convergence(self, pq):
        _, _, u, val = pq
        star = kleene_star(SETP)
        ts = build_transition_system(star, val, u)
        closure = eval_dyn(star, val, u)
        body_key = to_text(star.body)
        assert ts.edges[to_text(star)] == closure
        assert ts.edges[body_key] == closure  # body at the converged variable

    def test_each_label_printed_once(self, monkeypatch):
        # a star over a two-action union iterates its fixpoint; every distinct
        # subformula is still printed exactly once per build
        from modalg import printer

        domain = Domain(("a",))
        u = build_universe(domain, Vocabulary((("P", 1), ("Q", 1), ("R", 1))))
        val = Valuation(domain, {}, {"Copy": AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1])})
        star = kleene_star(D.Union(
            D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"})),
            D.Action("Copy", ("Q", "R"), frozenset({"Q"}), frozenset({"R"})),
        ))
        calls = []
        original = printer.to_text
        monkeypatch.setattr(printer, "to_text", lambda e: calls.append(e) or original(e))
        ts = build_transition_system(star, val, u)
        assert len(ts.order) == 8
        assert len(calls) == len(ts.order)

    def test_closed_subterms_built_once_per_fixpoint(self, monkeypatch):
        # the star's body, diag | Zs ; (Copy(P->Q) | Copy(Q->R)), runs 4
        # rounds; its closed subterms (the diagonal and the action union, three
        # inertia calls) are built in the first only, with or without a
        # transition-system record
        domain = Domain(("a", "b"))
        u = build_universe(domain, Vocabulary(tuple((s, 1) for s in "PQRS")))
        val = Valuation(domain, {}, {"Copy": AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1])})
        star = kleene_star(D.Union(
            D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"})),
            D.Action("Copy", ("Q", "R"), frozenset({"Q"}), frozenset({"R"})),
        ))
        built = []
        monkeypatch.setattr(D, "inertia", lambda *args, _fn=D.inertia: (
            built.append(1) or _fn(*args)))
        stats = EvalStats()
        eval_dyn(star, val, u, stats)
        assert stats.fixpoint_iterations == {to_text(star): 4}
        assert len(built) == 3
        built.clear()
        build_transition_system(star, val, u)
        assert len(built) == 3

    def test_part_over_the_budget_is_unlabelled(self):
        # eval_dyn builds NonemptyP(P)? & pi{} EmptyQ(out Q) from its one
        # form; the projection alone has 2^24 pairs, over the budget, so it
        # and the parts of the intersection built on it get no label
        domain, vocab, val = three_element_setup()
        u = build_universe(domain, vocab)
        test = D.Test("NonemptyP", ("P",))
        action = D.Action("EmptyQ", ("Q",), frozenset(), frozenset({"Q"}))
        proj = D.Project(frozenset(), action)
        a = D.intersect(test, proj)
        ts = build_transition_system(a, val, u)
        assert list(ts.order) == [to_text(test), to_text(D.Complement(test)), to_text(action),
                                  to_text(a)]
        assert ts.edges[to_text(a)] == eval_dyn(a, val, u)
        assert len(ts.edges[to_text(a)]) == 3584

    def test_operand_legal_only_reversed_is_unlabelled(self, pq):
        # sel[Q == P] is a feedback selection of the reversed copy only; as
        # written it is illegal, so it and neg of it get no label
        _, _, u, val = pq
        sel = D.Select(Var("Q"), Var("P"), SETQ_COPY)
        a = D.Reverse(D.UnaryNeg(sel))
        with pytest.raises(IllegalSelect):
            eval_dyn(sel, val, u)
        ts = build_transition_system(a, val, u)
        assert list(ts.order) == [to_text(SETQ_COPY), to_text(a)]
        assert ts.edges[to_text(a)] == eval_dyn(a, val, u)

    @pytest.mark.parametrize("phi", [
        S.Or(PROP_FULLP, S.SetVar("X")),
        S.Lfp("X", S.Or(PROP_FULLP, S.Diamond(SETP, S.SetVar("X")))),
    ], ids=["or", "mu"])
    def test_state_test_formula_not_labelled(self, pq, phi):
        # the state formula's or and mu are the process sort's classes too;
        # the walk still stops at the state test
        _, _, u, val = pq
        val = val.bind("X", S.eval_state(S.Prop("EmptyQ", ("Q",)), val, u))
        a = D.Compose(SETP, D.StateTest(phi))
        ts = build_transition_system(a, val, u)
        assert list(ts.order) == [to_text(SETP), to_text(a.right), to_text(a)]
        assert ts.edges[to_text(a)] == eval_dyn(a, val, u)
