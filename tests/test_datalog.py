"""Existential-rule embedding: the worked translation and the bounded chase."""

import itertools

import pytest

from modalg import dynamic as D
from modalg import lmumu as S
from modalg.core import Domain, Structure, Vocabulary
from modalg.errors import UnsafeRule
from modalg.lmumu import (
    UNKNOWN,
    DatalogAtom,
    DatalogProgram,
    DatalogRule,
    datalog_certain_bounded,
    datalog_translate,
)


def atom(pred, *args):
    return DatalogAtom(pred, tuple(args))


def worked_program():
    return DatalogProgram(
        (
            DatalogRule(
                body=(atom("emp", "X"),),
                head=(atom("hasMgr", "X", "Y"), atom("emp", "Y")),
                exist_vars=frozenset({"Y"}),
            ),
            DatalogRule(
                body=(atom("person", "P"),),
                head=(atom("fatherOf", "F", "P"),),
                exist_vars=frozenset({"F"}),
            ),
            DatalogRule(
                body=(atom("fatherOf", "F", "P"),),
                head=(atom("person", "F"),),
            ),
        )
    )


class TestTranslate:
    def test_worked_program_fixture(self):
        got = datalog_translate(worked_program())
        has_mgr = D.Action("hasMgr", ("X", "Y"), frozenset({"X"}), frozenset({"Y"}))
        father = D.Action("fatherOf", ("F", "P"), frozenset({"P"}), frozenset({"F"}))
        person_p = S.Prop("person", ("P",))
        rule1 = S.Or(S.Not(S.Prop("emp", ("X",))),
                     S.Diamond(has_mgr, S.Prop("emp", ("Y",))))
        rule2 = S.Or(S.Not(person_p), S.Diamond(father, S.TOP))
        rule3 = S.Box(father, S.Prop("person", ("F",)))
        assert got == S.And(S.And(rule1, rule2), rule3)

    def test_existential_position_becomes_output(self):
        got = datalog_translate(worked_program())
        # second rule: existential F sits in the first position of fatherOf
        rule2 = got.left.right
        action = rule2.right.process
        assert action.inputs == {"P"} and action.outputs == {"F"}

    def test_guard_rule_reuses_predicate_split(self):
        got = datalog_translate(worked_program())
        rule3 = got.right
        assert isinstance(rule3, S.Box)
        assert rule3.process.inputs == {"P"} and rule3.process.outputs == {"F"}

    def test_rejects_ternary_predicates(self):
        program = DatalogProgram(
            (DatalogRule(body=(atom("t", "X", "Y", "Z"),), head=(atom("p", "X"),)),)
        )
        with pytest.raises(UnsafeRule):
            datalog_translate(program)

    def test_rejects_unary_to_unary_shape(self):
        program = DatalogProgram(
            (DatalogRule(body=(atom("p", "X"),), head=(atom("q", "X"),)),)
        )
        with pytest.raises(UnsafeRule):
            datalog_translate(program)

    def test_rule_safety(self):
        with pytest.raises(UnsafeRule):
            DatalogRule(body=(atom("p", "X"),), head=(atom("q", "W"),))
        with pytest.raises(UnsafeRule):
            DatalogRule(
                body=(atom("p", "X"),),
                head=(atom("q", "X", "Y"),),
                exist_vars=frozenset({"X"}),
            )


def db_over(preds, domain_elements, facts):
    domain = Domain(tuple(domain_elements))
    vocab = Vocabulary(tuple(preds))
    interp = {name: [] for name, _ in preds}
    for pred, args in facts:
        interp[pred].append(args)
    return Structure.make(domain, vocab, interp)


class TestChase:
    def test_one_step_closure(self):
        program = DatalogProgram(
            (DatalogRule(body=(atom("p", "X"),), head=(atom("q", "X"),)),)
        )
        db = db_over([("p", 1), ("q", 1)], ["a"], [("p", ("a",))])
        assert datalog_certain_bounded(program, db, atom("q", "a"), 0) is True

    def test_empty_program_derives_nothing(self):
        program = DatalogProgram(())
        db = db_over([("p", 1), ("q", 1)], ["a"], [("p", ("a",))])
        assert datalog_certain_bounded(program, db, atom("q", "a"), 0) is False

    def test_alice_gets_a_father_with_budget_one(self):
        db = db_over(
            [("emp", 1), ("hasMgr", 2), ("person", 1), ("fatherOf", 2)],
            ["alice"],
            [("person", ("alice",))],
        )
        result = datalog_certain_bounded(worked_program(), db, atom("fatherOf", "n1", "alice"), 1)
        assert result is True

    def test_budget_exhaustion_is_unknown(self):
        db = db_over(
            [("emp", 1), ("hasMgr", 2), ("person", 1), ("fatherOf", 2)],
            ["alice"],
            [("person", ("alice",))],
        )
        # the chase never terminates; an underivable query stays unknown
        result = datalog_certain_bounded(worked_program(), db, atom("person", "bob"), 3)
        assert result is UNKNOWN

    def test_transitive_closure_terminates(self):
        program = DatalogProgram(
            (
                DatalogRule(
                    body=(atom("e", "X", "Y"), atom("e", "Y", "Z")),
                    head=(atom("e", "X", "Z"),),
                ),
            )
        )
        db = db_over([("e", 2)], ["a", "b", "c"],
                     [("e", ("a", "b")), ("e", ("b", "c"))])
        assert datalog_certain_bounded(program, db, atom("e", "a", "c"), 0) is True
        assert datalog_certain_bounded(program, db, atom("e", "c", "a"), 0) is False


def all_models_certain(program, db, query, extra_elements=()):
    """Oracle: the query holds in every model of the rules over the active
    domain (db constants plus the chase's nulls)."""
    active = list(db.domain.elements) + list(extra_elements)
    preds = {name: db.vocabulary.arity(name) for name in db.vocabulary.names}
    base = set()
    for name in db.vocabulary.names:
        for t in db.rel(name).tuples:
            base.add((name, t))
    candidates = [
        (pred, combo)
        for pred, arity in sorted(preds.items())
        for combo in itertools.product(active, repeat=arity)
        if (pred, combo) not in base
    ]

    def is_model(facts):
        for rule in program.rules:
            body_vars = sorted(frozenset().union(*(a.variables() for a in rule.body)))
            for values in itertools.product(active, repeat=len(body_vars)):
                binding = dict(zip(body_vars, values))
                if not all(
                    (a.pred, tuple(binding.get(x, x) for x in a.args)) in facts
                    for a in rule.body
                ):
                    continue
                exist = sorted(rule.exist_vars)
                ok = any(
                    all(
                        (a.pred, tuple({**binding, **dict(zip(exist, ev))}.get(x, x)
                                       for x in a.args)) in facts
                        for a in rule.head
                    )
                    for ev in itertools.product(active, repeat=len(exist))
                )
                if not ok:
                    return False
        return True

    certain = True
    for bits in itertools.product((0, 1), repeat=len(candidates)):
        facts = set(base) | {c for c, b in zip(candidates, bits) if b}
        if is_model(facts) and (query.pred, query.args) not in facts:
            certain = False
            break
    return certain


class TestChaseAgainstAllModels:
    def _instances(self):
        tc = DatalogProgram(
            (
                DatalogRule(
                    body=(atom("e", "X", "Y"), atom("e", "Y", "Z")),
                    head=(atom("e", "X", "Z"),),
                ),
            )
        )
        promote = DatalogProgram(
            (DatalogRule(body=(atom("p", "X"),), head=(atom("q", "X"),)),)
        )
        both = DatalogProgram(
            (
                DatalogRule(body=(atom("p", "X"),), head=(atom("q", "X"),)),
                DatalogRule(body=(atom("q", "X"),), head=(atom("r", "X"),)),
            )
        )
        return [
            (tc, db_over([("e", 2)], ["a", "b"], [("e", ("a", "b"))]), atom("e", "a", "b")),
            (tc, db_over([("e", 2)], ["a", "b"], [("e", ("a", "b"))]), atom("e", "b", "a")),
            (promote, db_over([("p", 1), ("q", 1)], ["a", "b"], [("p", ("a",))]),
             atom("q", "a")),
            (promote, db_over([("p", 1), ("q", 1)], ["a", "b"], [("p", ("a",))]),
             atom("q", "b")),
            (both, db_over([("p", 1), ("q", 1), ("r", 1)], ["a"], [("p", ("a",))]),
             atom("r", "a")),
            (both, db_over([("p", 1), ("q", 1), ("r", 1)], ["a"], []), atom("r", "a")),
        ]

    def test_agreement(self):
        for program, db, query in self._instances():
            chased = datalog_certain_bounded(program, db, query, 0)
            assert chased is not UNKNOWN
            assert chased == all_models_certain(program, db, query)
