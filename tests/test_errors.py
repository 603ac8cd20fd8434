"""Error paths promised by the module contracts."""

import re
import time
import tracemalloc

import pytest

from conftest import structure_pq
from modalg import dynamic as D
from modalg import flat as F
from modalg import indexsets
from modalg import lmumu as S
from modalg.core import AtomicModule, Domain, Structure, Valuation, Vocabulary, build_universe
from modalg.errors import (
    ArityMismatch,
    CapExceeded,
    IncompleteStructure,
    NonSingletonEncoding,
    UnboundModuleVar,
    UnmappedVariable,
)
from modalg.flat import eval_flat
from modalg.dynamic import eval_dyn
from modalg.lmumu import eval_state
from modalg.printer import to_text
from modalg.tasks import FOAtom, equivalence_check, mc, mx, qe_encode


def test_unbound_module_var_flat(pq):
    _, _, u, val = pq
    with pytest.raises(UnboundModuleVar):
        eval_flat(F.ModuleVar("Z"), val, u)


def test_unbound_module_var_dyn(pq):
    _, _, u, val = pq
    with pytest.raises(UnboundModuleVar):
        eval_dyn(D.ModuleVar("Z"), val, u)


def test_module_var_needs_matching_shape(pq):
    _, _, u, val = pq
    edge_bound = val.bind("Z", eval_dyn(D.Diagonal(), val, u))
    with pytest.raises(UnboundModuleVar):
        eval_flat(F.ModuleVar("Z"), edge_bound, u)


def test_incomplete_structure(pq):
    domain, _, _, val = pq
    partial = Structure.make(domain, Vocabulary((("P", 1),)), {"P": []})
    with pytest.raises(IncompleteStructure):
        mc(F.Atom("Copy", ("P", "Q")), partial, val)


def test_unmapped_variable(pq):
    from modalg.core import module_membership

    domain, vocab, _, val = pq
    s = structure_pq(domain, vocab)
    with pytest.raises(UnmappedVariable):
        module_membership(val.module("Copy"), {"A": "P"}, s)  # B unmapped


@pytest.mark.parametrize("given", [False, True], ids=["inferred-vocabulary", "given-vocabulary"])
def test_equivalence_check_rejects_variable_at_two_arities(given):
    """A(P) | B(P) with A over X/1 and B over X/2 uses P at arities 1 and 2;
    the check runs before evaluation also when the vocabulary is given."""
    domain = Domain(("a", "b"))
    vocab = Vocabulary((("P", 1),))
    modules = {name: AtomicModule.builtin(name, [("X", arity)], fn=lambda d, rels: True)
               for name, arity in (("A", 1), ("B", 2))}
    val = Valuation(domain, {}, modules)
    structure = Structure.make(domain, vocab, {"P": [("a",)]})
    e = F.Union(F.Atom("A", ("P",)), F.Atom("B", ("P",)))
    with pytest.raises(ArityMismatch, match="variable P used at arities 1 and 2"):
        equivalence_check(e, {"P"}, structure, {}, val, vocab if given else None)


def test_qe_rejects_variable_symbol_clash():
    domain = Domain(("a",))
    db = Structure.make(domain, Vocabulary((("x", 1),)), {"x": []})
    with pytest.raises(NonSingletonEncoding):
        qe_encode(FOAtom("x", ("x",)), db)


def test_mx_expansion_limit(pq):
    domain, vocab, _, val = pq
    sigma_vocab = Vocabulary(())
    empty = Structure.make(domain, sigma_vocab, {})
    with pytest.raises(CapExceeded):
        mx(F.Complement(F.Bottom()), frozenset(), empty, val, vocab, limit=3)


def _unary_universe_24():
    """12 unary symbols over {a,b}: 2^24 structures."""
    domain = Domain(("a", "b"))
    vocab = Vocabulary(tuple((f"P{k}", 1) for k in range(12)))
    return domain, build_universe(domain, vocab, cap=24)


def _ne_valuation(domain):
    ne = AtomicModule.builtin("Ne", [("A", 1)], fn=lambda d, rels: bool(rels[0].tuples))
    return Valuation(domain, {}, {"Ne": ne})


def test_oversized_extension_refused_before_enumeration():
    # Ne(P0) holds 3 << 22 = 12,582,912 structures: a 2 MiB bitmap, but too
    # many to enumerate
    domain, u = _unary_universe_24()
    val = _ne_valuation(domain)
    start = time.perf_counter()
    result = eval_flat(F.Atom("Ne", ("P0",)), val, u)
    assert len(result) == 12_582_912
    assert time.perf_counter() - start < 1.0
    yielded = []
    with pytest.raises(CapExceeded):
        for i in result.indices():
            yielded.append(i)
    assert yielded == []
    test = D.Test("Ne", ("P0",))
    with pytest.raises(CapExceeded) as info:
        eval_dyn(test, val, u)
    assert str(info.value).endswith(f"(in: {to_text(test)})")


def test_state_set_over_byte_budget_refused():
    """A bitmap over 2^25 structures takes 4 MiB whatever its members, over
    the budget: the first state set, even an empty one, raises and names its
    node, and none of it is allocated."""
    domain = Domain(tuple("abcde"))
    u = build_universe(domain, Vocabulary(tuple((f"P{k}", 1) for k in range(5))), cap=25)
    val = _ne_valuation(domain)
    tracemalloc.start()
    try:
        for node in (F.Bottom(), F.Atom("Ne", ("P0",))):
            with pytest.raises(CapExceeded) as info:
                eval_flat(node, val, u)
            assert str(info.value).endswith(f"(in: {to_text(node)})")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u.size >> 6  # an eighth of the bitmap's 4 MiB


# Empty accepts only six empty relations, so its extension holds 2^12
# structures; an action that frees five of them (10 bits) would hold 2^22 pairs.
EMPTY6 = D.Action("Empty", tuple(f"P{k}" for k in range(6)), frozenset({"P0"}),
                  frozenset(f"P{k}" for k in range(1, 6)))
EMPTY6_LABEL = "Empty(in P0; out P1, P2, P3, P4, P5)"
PROP_EMPTY6 = S.Prop("Empty", EMPTY6.args)


def _empty6_valuation(domain):
    empty = AtomicModule.builtin("Empty", [(f"A{k}", 1) for k in range(6)],
                                 fn=lambda d, rels: not any(r.tuples for r in rels))
    return Valuation(domain, {}, {"Empty": empty})


# A diamond over the action itself needs no pairs (see the next test); one
# over its complement still materializes the action's pairs.
@pytest.mark.parametrize("evaluate, node", [
    (eval_dyn, EMPTY6),
    (eval_state, S.Diamond(D.Complement(EMPTY6), PROP_EMPTY6)),
], ids=["action", "diamond"])
def test_oversized_pair_set_names_innermost_node(evaluate, node):
    domain, u = _unary_universe_24()
    val = _empty6_valuation(domain)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        evaluate(node, val, u)
    assert str(info.value).endswith(f"(in: {EMPTY6_LABEL})")
    assert info.value.node == EMPTY6
    assert time.perf_counter() - start < 1.0


def test_diamond_over_oversized_action_needs_no_pairs():
    """<EMPTY6> Empty is a preimage: the states whose P0 is empty, 2^22 of
    them, with none of the action's 2^22 pairs built."""
    domain, u = _unary_universe_24()
    val = _empty6_valuation(domain)
    start = time.perf_counter()
    result = eval_state(S.Diamond(EMPTY6, PROP_EMPTY6), val, u)
    assert len(result) == 1 << 22
    assert time.perf_counter() - start < 1.0


def test_composition_stops_at_the_budget(pq, monkeypatch):
    """Any(out P) ; Any(out Q) on P/Q: each operand holds 64 pairs, their
    composition all 256. Under a budget of 255 the composition raises and
    names its node; under 256 it answers."""
    domain, _, u, _ = pq
    val = Valuation(domain, {}, {"Any": AtomicModule.builtin("Any", [("A", 1)],
                                                             fn=lambda d, rels: True)})
    node = D.Compose(D.Action("Any", ("P",), frozenset(), frozenset({"P"})),
                     D.Action("Any", ("Q",), frozenset(), frozenset({"Q"})))
    monkeypatch.setattr(indexsets, "MATERIALIZE_LIMIT", 255)
    with pytest.raises(CapExceeded) as info:
        eval_dyn(node, val, u)
    assert str(info.value) == f"composition exceeds the enumeration limit (255) (in: {to_text(node)})"
    assert info.value.node == node
    monkeypatch.setattr(indexsets, "MATERIALIZE_LIMIT", 256)
    assert len(eval_dyn(node, val, u)) == 256
