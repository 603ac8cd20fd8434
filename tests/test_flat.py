"""Flat algebra: well-formedness, free variables, evaluation, fixed points."""

import itertools
import random
import time

import pytest

from conftest import rel
from _gen import random_flat
from modalg import flat as F
from modalg.core import (
    AtomicModule,
    Domain,
    StructureSet,
    Valuation,
    Vocabulary,
    build_universe,
)
from modalg.errors import NonMonotoneDetected, WellformednessError
from modalg.flat import (
    Const,
    Var,
    check_wellformed,
    eval_flat,
    free_relational_vars,
    lfp_iterate,
)

PIPE = F.Project(
    frozenset({"V", "X", "Z", "T"}),
    F.intersect(F.Atom("HC", ("V", "X", "Y")), F.Atom("TwoCol", ("V", "Y", "Z", "T"))),
)


class TestWellformed:
    def test_positive_fixpoint_ok(self):
        assert check_wellformed(F.Lfp("Z", F.ModuleVar("Z"))) == []

    def test_negative_fixpoint_flagged(self):
        violations = check_wellformed(F.Lfp("Z", F.Complement(F.ModuleVar("Z"))))
        assert len(violations) == 1
        assert "odd" in violations[0].message

    def test_double_negation_is_positive(self):
        body = F.Complement(F.Complement(F.ModuleVar("Z")))
        assert check_wellformed(F.Lfp("Z", body)) == []

    def test_projection_scope_flagged(self):
        violations = check_wellformed(F.Project(frozenset({"W"}), F.Bottom()))
        assert len(violations) == 1
        assert "W" in violations[0].message

    def test_projection_scope_ok(self):
        assert check_wellformed(F.Project(frozenset({"P"}), F.Atom("M", ("P",)))) == []

    def test_variable_at_two_arities_flagged(self):
        inner = F.Select(Var("X"), Const.of([("a", "b")]), F.Atom("M", ("X",)))
        violations = check_wellformed(F.Select(Var("X"), Const.of([("a",)]), inner))
        assert len(violations) == 1
        assert "arities" in violations[0].message


class TestFreeVars:
    def test_atom(self):
        assert free_relational_vars(F.Atom("HC", ("V", "X", "Y"))) == {"V", "X", "Y"}

    def test_pipeline_projection_keeps_vxzt(self):
        assert free_relational_vars(PIPE) == {"V", "X", "Z", "T"}

    def test_bottom(self):
        assert free_relational_vars(F.Bottom()) == frozenset()

    def test_select_operands_are_free(self):
        e = F.Select(Var("P"), Var("Q"), F.Bottom())
        assert free_relational_vars(e) == {"P", "Q"}


class TestEvalFlat:
    def test_bottom_empty(self, pq):
        _, _, u, val = pq
        assert len(eval_flat(F.Bottom(), val, u)) == 0

    def test_complement_of_bottom_full(self, pq):
        _, _, u, val = pq
        assert len(eval_flat(F.Complement(F.Bottom()), val, u)) == 16

    def test_select_p_equals_q(self, pq):
        # oracle: enumerate all 16 and compare P and Q slots
        domain, vocab, u, val = pq
        got = set(eval_flat(F.Select(Var("P"), Var("Q"), F.Complement(F.Bottom())), val, u).indices())
        expected = {
            i for i in range(16)
            if u.structure_at(i).rel("P") == u.structure_at(i).rel("Q")
        }
        assert got == expected and len(got) == 4

    def test_select_with_constant(self, pq):
        _, _, u, val = pq
        e = F.Select(Var("P"), Const.of([("a",)]), F.Complement(F.Bottom()))
        got = {u.structure_at(i).rel("P") for i in eval_flat(e, val, u).indices()}
        assert got == {rel(1, ("a",))}

    def test_select_two_constants(self, pq):
        _, _, u, val = pq
        same = F.Select(Const.of([("a",)]), Const.of([("a",)]), F.Complement(F.Bottom()))
        diff = F.Select(Const.of([("a",)]), Const.of([("b",)]), F.Complement(F.Bottom()))
        assert len(eval_flat(same, val, u)) == 16
        assert len(eval_flat(diff, val, u)) == 0

    def test_lfp_identity_empty(self, pq):
        _, _, u, val = pq
        assert len(eval_flat(F.Lfp("Z", F.ModuleVar("Z")), val, u)) == 0

    def test_lfp_union_module(self, pq):
        _, _, u, val = pq
        m = F.Atom("FullP", ("P",))
        lfp = eval_flat(F.Lfp("Z", F.Union(m, F.ModuleVar("Z"))), val, u)
        assert set(lfp.indices()) == set(eval_flat(m, val, u).indices())

    def test_projection_example(self, pq):
        # project FullP onto Q: P becomes free, so any structure whose Q part
        # matches some FullP structure qualifies: all 16
        _, _, u, val = pq
        e = F.Project(frozenset({"Q"}), F.Atom("FullP", ("P",)))
        assert len(eval_flat(e, val, u)) == 16

    def test_non_injective_valuation_flagged(self, pq):
        domain, _, u, val = pq
        squashed = Valuation(domain, {"P0": "P", "Q0": "P"}, val.modules)
        e = F.intersect(F.Atom("FullP", ("P0",)), F.Atom("EmptyQ", ("Q0",)))
        with pytest.raises(WellformednessError):
            eval_flat(e, squashed, u)


def _operand_tuples(op, structure):
    return structure.rel(op.name).tuples if isinstance(op, Var) else op.tuples


# (left, right) of every operand shape, over {a,b} with P/1, R/1, Q/2
SELECT_SHAPES = [
    (Var("P"), Var("P")),  # the same symbol on both sides
    (Var("P"), Var("R")),
    (Var("P"), Var("Q")),  # two arities: equal only when both are empty
    (Var("Q"), Var("P")),
    (Var("P"), Const.of([])),  # '{}', its arity taken from the symbol
    (Const.of([]), Var("Q")),
    (Var("P"), Const.of([("a",)])),
    (Const.of([("a", "b"), ("b", "b")]), Var("Q")),
    (Var("P"), Const.of([("a", "b")])),  # a constant of another arity
    (Var("P"), Const(frozenset(), 2)),
    (Var("P"), Const.of([("c",)])),  # off the domain
    (Const.of([("a",)]), Const.of([("a",)])),
    (Const.of([("a",)]), Const.of([("b",)])),
    (Const.of([]), Const.of([])),
    # a binary constant against a unary symbol, the constant on the left;
    # the id keeps the tuples in the order written, not the sorted one
    pytest.param(Const.of([("b", "b"), ("a", "b")]), Var("P"),
                 id="Const(tuples=frozenset({('b', 'b'), ('a', 'b')}), arity=2)-Var(name='P')"),
]


def _operand_id(op):
    """The operand's repr with a constant's tuples in sorted order: a
    frozenset's repr follows the hash seed, and so would the test ids."""
    if isinstance(op, Const) and len(op.tuples) > 1:
        tuples = ", ".join(map(repr, sorted(op.tuples)))
        return f"Const(tuples=frozenset({{{tuples}}}), arity={op.arity})"
    return str(op)


@pytest.mark.parametrize("left,right", SELECT_SHAPES, ids=_operand_id)
def test_select_filter_matches_brute_force(left, right):
    """The selection filter is the set of structures whose two operands
    denote the same tuples, decoded structure by structure."""
    domain = Domain(("a", "b"))
    u = build_universe(domain, Vocabulary((("P", 1), ("R", 1), ("Q", 2))))
    got = F._select_filter(left, right, Valuation(domain, {}, {}), u)
    want = {i for i in range(u.size)
            if _operand_tuples(left, u.structure_at(i)) == _operand_tuples(right, u.structure_at(i))}
    assert set(got.indices()) == want


def test_select_filter_two_binary_symbols():
    """P == Q for two binary symbols over {a,b,c}: 512 of 2^18 structures,
    one per value, found without decoding the 2^18 slot patterns."""
    domain = Domain(("a", "b", "c"))
    u = build_universe(domain, Vocabulary((("P", 2), ("Q", 2))))
    began = time.perf_counter()
    got = F._select_filter(Var("P"), Var("Q"), Valuation(domain, {}, {}), u)
    assert time.perf_counter() - began < 0.5
    assert len(got) == 512
    rng = random.Random(5)
    for i in list(got.indices()) + rng.sample(range(u.size), 500):
        structure = u.structure_at(i)
        assert (i in got) == (structure.rel("P").tuples == structure.rel("Q").tuples)


class TestInvariants:
    def _catalogue(self, rng, n=25):
        return [random_flat(rng, rng.randrange(4)) for _ in range(n)]

    def test_double_complement(self, pq):
        _, _, u, val = pq
        rng = random.Random(7)
        for e in self._catalogue(rng):
            assert eval_flat(F.Complement(F.Complement(e)), val, u) == eval_flat(e, val, u)

    def test_select_shrinks(self, pq):
        _, _, u, val = pq
        rng = random.Random(8)
        for e in self._catalogue(rng):
            sel = F.Select(Var("P"), Var("Q"), e)
            assert eval_flat(sel, val, u).issubset(eval_flat(e, val, u))

    def test_projection_grows_and_is_idempotent(self, pq):
        _, _, u, val = pq
        rng = random.Random(9)
        for e in self._catalogue(rng, 15):
            for keep in (frozenset({"P"}), frozenset({"P", "Q"})):
                p1 = eval_flat(F.Project(keep, e), val, u)
                assert eval_flat(e, val, u).issubset(p1)
                assert eval_flat(F.Project(keep, F.Project(keep, e)), val, u) == p1

    def test_monotone_in_positive_variable(self, pq):
        _, _, u, val = pq
        rng = random.Random(10)
        body = F.Union(F.Atom("FullP", ("P",)), F.ModuleVar("Z"))
        for _ in range(20):
            small = {i for i in range(16) if rng.random() < 0.3}
            big = small | {i for i in range(16) if rng.random() < 0.3}
            lo = eval_flat(body, val.bind("Z", StructureSet.of_indices(u, small)), u)
            hi = eval_flat(body, val.bind("Z", StructureSet.of_indices(u, big)), u)
            assert lo.issubset(hi)

    def test_lfp_minimality_brute_force(self):
        # universe of 8 structures: intersection of all prefixpoints
        domain = Domain(("a",))
        vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
        u = build_universe(domain, vocab)
        m = AtomicModule.builtin("NP", [("A", 1)], fn=lambda d, rels: bool(rels[0].tuples))
        val = Valuation(domain, {"A": "P"}, {"NP": m})
        bodies = [
            F.Union(F.Atom("NP", ("P",)), F.ModuleVar("Z")),
            F.Union(F.Atom("NP", ("Q",)), F.Project(frozenset({"P"}), F.ModuleVar("Z"))),
            F.intersect(F.Complement(F.Bottom()), F.ModuleVar("Z")),
        ]
        for body in bodies:
            got = set(eval_flat(F.Lfp("Z", body), val, u).indices())
            prefix = None
            for bits in itertools.product((0, 1), repeat=u.size):
                candidate = {i for i, b in enumerate(bits) if b}
                image = set(
                    eval_flat(body, val.bind("Z", StructureSet.of_indices(u, candidate)), u).indices()
                )
                if image <= candidate:
                    prefix = candidate if prefix is None else (prefix & candidate)
            assert got == prefix


class TestLfpIterate:
    def test_identity(self, pq):
        _, _, u, _ = pq
        assert len(lfp_iterate(lambda s: s, u)) == 0

    def test_constant(self, pq):
        _, _, u, _ = pq
        fixed = StructureSet.of_indices(u, {3, 5})
        assert lfp_iterate(lambda s: fixed, u) == fixed

    def test_three_element_chain_closure(self):
        # singleton states a -> b -> c; closure from {a} reaches all three
        domain = Domain(("a", "b", "c"))
        vocab = Vocabulary((("P", 1),))
        u = build_universe(domain, vocab)

        def state(x):
            return u.index_of(u.structure_at(0).with_rel("P", rel(1, (x,))))

        succ = {state("a"): state("b"), state("b"): state("c")}
        start = StructureSet.of_indices(u, {state("a")})

        steps = []

        def f(current):
            image = {succ[i] for i in current.indices() if i in succ}
            out = current.union(start).union(StructureSet.of_indices(u, image))
            steps.append(len(out))
            return out

        closure = lfp_iterate(f, u)
        assert set(closure.indices()) == {state("a"), state("b"), state("c")}
        assert steps[:3] == [1, 2, 3]

    def test_non_monotone_detected(self, pq):
        _, _, u, _ = pq
        with pytest.raises(NonMonotoneDetected, match="body is not monotone") as caught:
            lfp_iterate(lambda s: s.complement(), u, label="flip")
        assert caught.value.node is None
        assert str(caught.value).count("flip") == 1


class TestFoLfpCollapse:
    """With unary vocabulary and singleton interpretations the algebra
    behaves first-order: compare against a direct evaluator on a fixed
    catalogue of hand-translated sentences."""

    def setup_method(self):
        self.domain = Domain(("a", "b"))
        self.vocab = Vocabulary((("U", 1), ("x", 1), ("y", 1)))
        self.u = build_universe(self.domain, self.vocab)
        holds1 = AtomicModule.builtin(
            "holds1", [("R", 1), ("A", 1)],
            fn=lambda d, r: len(r[1].tuples) == 1 and next(iter(r[1].tuples)) in r[0].tuples,
        )
        eq1 = AtomicModule.builtin(
            "eq1", [("A", 1), ("B", 1)],
            fn=lambda d, r: len(r[0].tuples) == 1 and r[0].tuples == r[1].tuples,
        )
        sing = AtomicModule.builtin(
            "sing", [("A", 1)], fn=lambda d, r: len(r[0].tuples) == 1
        )
        self.val = Valuation(self.domain, {}, {"holds1": holds1, "eq1": eq1, "sing": sing})

    def _exists(self, var, body):
        keep = (F.occurring_vars(body) | {"U"}) - {var}
        return F.Project(frozenset(keep), F.intersect(body, F.Atom("sing", (var,))))

    def _fo_eval(self, sentence, u_set):
        kind = sentence[0]
        if kind == "exists":
            _, var, body = sentence
            return any(self._fo_eval(self._subst(body, var, el), u_set)
                       for el in self.domain.elements)
        if kind == "not":
            return not self._fo_eval(sentence[1], u_set)
        if kind == "and":
            return self._fo_eval(sentence[1], u_set) and self._fo_eval(sentence[2], u_set)
        if kind == "U":
            return sentence[1] in u_set
        if kind == "eq":
            return sentence[1] == sentence[2]
        raise ValueError(sentence)

    def _subst(self, sentence, var, el):
        kind = sentence[0]
        if kind == "exists":
            _, v, body = sentence
            return sentence if v == var else ("exists", v, self._subst(body, var, el))
        if kind == "not":
            return ("not", self._subst(sentence[1], var, el))
        if kind == "and":
            return ("and", self._subst(sentence[1], var, el), self._subst(sentence[2], var, el))
        if kind in ("U", "eq"):
            return tuple(el if t == var else t for t in sentence)
        raise ValueError(sentence)

    def test_catalogue(self):
        u_atom_x = F.Atom("holds1", ("U", "x"))
        u_atom_y = F.Atom("holds1", ("U", "y"))
        catalogue = [
            # exists x U(x)
            (self._exists("x", u_atom_x), ("exists", "x", ("U", "x"))),
            # exists x not U(x)
            (self._exists("x", F.intersect(F.Complement(u_atom_x), F.Atom("sing", ("x",)))),
             ("exists", "x", ("not", ("U", "x")))),
            # exists x exists y (U(x) and not U(y))
            (self._exists("x", self._exists("y", F.intersect(
                u_atom_x, F.intersect(F.Complement(u_atom_y), F.Atom("sing", ("y",)))))),
             ("exists", "x", ("exists", "y", ("and", ("U", "x"), ("not", ("U", "y")))))),
            # exists x x = x
            (self._exists("x", F.Atom("eq1", ("x", "x"))),
             ("exists", "x", ("eq", "x", "x"))),
            # exists x exists y not (x = y)
            (self._exists("x", self._exists("y", F.intersect(
                F.intersect(F.Complement(F.Atom("eq1", ("x", "y"))), F.Atom("sing", ("x",))),
                F.Atom("sing", ("y",))))),
             ("exists", "x", ("exists", "y", ("not", ("eq", "x", "y"))))),
        ]
        from modalg.tasks import mc
        from modalg.core import Structure

        for flat_sentence, fo_sentence in catalogue:
            for u_bits in itertools.product((0, 1), repeat=2):
                u_set = {el for el, b in zip(self.domain.elements, u_bits) if b}
                structure = Structure.make(
                    self.domain, self.vocab,
                    {"U": [(e,) for e in u_set], "x": [], "y": []},
                )
                assert mc(flat_sentence, structure, self.val) == self._fo_eval(fo_sentence, u_set)
