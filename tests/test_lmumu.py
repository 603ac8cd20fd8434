"""State formulae, the two-sorted translation, and the equality test."""

import itertools
import random

import pytest

from _gen import PROP_EMPTYQ, PROP_FULLP, SETP, random_proc_with_tests, random_state
from modalg import dynamic as D
from modalg import lmumu as S
from modalg.core import (
    AtomicModule,
    Domain,
    StructureSet,
    Valuation,
    Vocabulary,
    build_universe,
)
from modalg.dynamic import eval_dyn
from modalg.errors import UnboundSetVar
from modalg.parser import parse_spec
from modalg.lmumu import (
    eval_equality_test,
    eval_state,
    translate_two_sorted,
)


def diag_states(edge_set):
    return {i for i, j in edge_set.pairs() if i == j}


STAR_OVER_STATE_TEST = """
domain {a};
vocab {P/1, Q/1};
module FullP(P0/1) = structures { {P0: {(a)}} };
module Copy(A/1, B/1) = structures { {A: {}, B: {}}, {A: {(a)}, B: {(a)}} };
dyn copyq = Copy(in P; out Q);
state s = mu %s . prop FullP(P) | <((%s)? ; copyq)*> prop FullP(Q);
"""


class TestEvalState:
    @pytest.mark.parametrize("var", ["W", "Zs"])
    def test_star_does_not_capture_state_test_variable(self, var):
        # the star's fresh variable must avoid set variables inside state tests
        spec = parse_spec(STAR_OVER_STATE_TEST % (var, var))
        u = build_universe(spec.domain, spec.vocabulary)
        val = Valuation(spec.domain, {}, spec.modules)
        assert len(eval_state(spec.state_defs["s"], val, u)) == 3

    def test_tautology(self, pq):
        _, _, u, val = pq
        assert len(eval_state(S.Or(PROP_FULLP, S.Not(PROP_FULLP)), val, u)) == 16

    def test_diamond_setp_fullp(self, pq):
        _, _, u, val = pq
        assert len(eval_state(S.Diamond(SETP, PROP_FULLP), val, u)) == 16

    def test_diamond_bottom(self, pq):
        _, _, u, val = pq
        assert len(eval_state(S.Diamond(D.Bottom(), PROP_FULLP), val, u)) == 0

    def test_prop_extension(self, pq):
        _, _, u, val = pq
        assert set(eval_state(PROP_FULLP, val, u).indices()) == {12, 13, 14, 15}

    def test_mu_identity(self, pq):
        _, _, u, val = pq
        assert len(eval_state(S.Lfp("X", S.SetVar("X")), val, u)) == 0

    def test_unbound_set_var(self, pq):
        _, _, u, val = pq
        with pytest.raises(UnboundSetVar):
            eval_state(S.SetVar("X"), val, u)

    def test_box_diamond_duality(self, pq):
        _, _, u, val = pq
        rng = random.Random(41)
        for _ in range(15):
            alpha = random_proc_with_tests(rng, 2)
            phi = random_state(rng, 2)
            box = eval_state(S.Box(alpha, phi), val, u)
            dual = eval_state(S.Not(S.Diamond(alpha, S.Not(phi))), val, u)
            assert box == dual

    def test_diamond_over_complemented_edges(self, pq):
        # <-SetP> FullP: a complemented edge set behind the modality
        _, _, u, val = pq
        phi = S.Diamond(D.Complement(SETP), PROP_FULLP)
        got = set(eval_state(phi, val, u).indices())
        edges = set(eval_dyn(SETP, val, u).pairs())
        fullp = set(range(12, 16))
        expected = {
            i for i in range(16)
            if any((i, j) not in edges and j in fullp for j in range(16))
        }
        assert got == expected

    def test_box_over_complemented_edges(self, pq):
        _, _, u, val = pq
        phi = S.Box(D.Complement(SETP), PROP_FULLP)
        got = set(eval_state(phi, val, u).indices())
        edges = set(eval_dyn(SETP, val, u).pairs())
        fullp = set(range(12, 16))
        expected = {
            i for i in range(16)
            if all(j in fullp for j in range(16) if (i, j) not in edges)
        }
        assert got == expected

    def test_state_lfp_minimality_brute_force(self):
        domain = Domain(("a",))
        vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
        u = build_universe(domain, vocab)
        nonempty = AtomicModule.builtin(
            "NP", [("A", 1)], fn=lambda d, rels: bool(rels[0].tuples)
        )
        val = Valuation(domain, {}, {"NP": nonempty})
        act = D.Action("NP", ("Q",), frozenset(), frozenset({"Q"}))
        bodies = [
            S.Or(S.Prop("NP", ("P",)), S.SetVar("X")),
            S.Or(S.Prop("NP", ("R",)), S.Diamond(act, S.SetVar("X"))),
        ]
        for body in bodies:
            got = set(eval_state(S.Lfp("X", body), val, u).indices())
            prefix = None
            for bits in itertools.product((0, 1), repeat=u.size):
                candidate = {i for i, b in enumerate(bits) if b}
                bound = val.bind("X", StructureSet.of_indices(u, candidate))
                image = set(eval_state(body, bound, u).indices())
                if image <= candidate:
                    prefix = candidate if prefix is None else prefix & candidate
            assert got == prefix


class TestTranslation:
    def test_or_rule(self):
        got = translate_two_sorted(S.Or(PROP_FULLP, PROP_EMPTYQ))
        assert got == D.Union(D.Test("FullP", ("P",)), D.Test("EmptyQ", ("Q",)))

    def test_not_rule(self):
        got = translate_two_sorted(S.Not(PROP_FULLP))
        assert got == D.UnaryNeg(D.Test("FullP", ("P",)))

    def test_diamond_rule(self):
        got = translate_two_sorted(S.Diamond(SETP, PROP_FULLP))
        assert got == D.Compose(SETP, D.Test("FullP", ("P",)))

    def test_mu_rule(self):
        got = translate_two_sorted(S.Lfp("X", S.SetVar("X")))
        assert got == D.Lfp("X", D.Down(D.ModuleVar("X")))

    def test_state_test_rule(self):
        alpha = D.StateTest(S.Not(PROP_FULLP))
        got = translate_two_sorted(S.Diamond(alpha, PROP_EMPTYQ))
        assert got == D.Compose(
            D.Down(D.UnaryNeg(D.Test("FullP", ("P",)))), D.Test("EmptyQ", ("Q",))
        )

    def test_contract_on_catalogue(self, pq):
        # T, B |= phi  iff  T, (B,B) |= dn(translation)
        _, _, u, val = pq
        rng = random.Random(42)
        for _ in range(60):
            phi = random_state(rng, 3)
            lhs = set(eval_state(phi, val, u).indices())
            rhs = diag_states(eval_dyn(D.Down(translate_two_sorted(phi)), val, u))
            assert lhs == rhs

    def test_contract_with_non_identity_variable_map(self, pq):
        # same contract with v swapping the expression variables P and Q
        domain, _, u, val = pq
        swapped = Valuation(
            domain,
            {"P0": "P", "Q0": "Q", "N0": "P", "P": "Q", "Q": "P"},
            val.modules,
        )
        rng = random.Random(43)
        for _ in range(40):
            phi = random_state(rng, 3)
            lhs = set(eval_state(phi, swapped, u).indices())
            rhs = diag_states(eval_dyn(D.Down(translate_two_sorted(phi)), swapped, u))
            assert lhs == rhs


class TestEqualityTest:
    def test_same_action(self, pq):
        _, _, u, val = pq
        assert len(eval_equality_test(SETP, SETP, val, u)) == 16

    def test_bottom_never(self, pq):
        _, _, u, val = pq
        assert len(eval_equality_test(SETP, D.Bottom(), val, u)) == 0

    def test_against_nil(self, pq):
        # D's successor is the state itself, so agreement needs P already full
        _, _, u, val = pq
        got = set(eval_equality_test(SETP, D.Diagonal(), val, u).indices())
        assert got == {12, 13, 14, 15}

    def test_under_identity_map(self):
        # the only module's formals A, B are no vocabulary symbols; the
        # tautology the diamond reaches for is !bot, which names none
        domain = Domain(("a",))
        u = build_universe(domain, Vocabulary((("P", 1), ("Q", 1))))
        copy = AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1]
        )
        val = Valuation(domain, {}, {"Copy": copy})
        copy_pq = D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))
        assert len(eval_equality_test(copy_pq, copy_pq, val, u)) == 4
        assert len(eval_equality_test(copy_pq, D.Diagonal(), val, u)) == 2
