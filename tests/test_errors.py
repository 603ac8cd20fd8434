"""Error paths promised by the module contracts."""

import time

import pytest

from conftest import structure_pq
from modalg import dynamic as D
from modalg import flat as F
from modalg.core import AtomicModule, Domain, Structure, Valuation, Vocabulary, build_universe
from modalg.errors import (
    CapExceeded,
    IncompleteStructure,
    NonSingletonEncoding,
    UnboundModuleVar,
    UnmappedVariable,
)
from modalg.flat import eval_flat
from modalg.dynamic import eval_dyn
from modalg.tasks import FOAtom, mc, mx, qe_encode


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


def test_oversized_extension_refused_before_enumeration():
    # 24 bits: Ne(P0) would hold 3 << 22 = 12,582,912 members
    domain = Domain(("a", "b"))
    vocab = Vocabulary(tuple((f"P{k}", 1) for k in range(12)))
    u = build_universe(domain, vocab, cap=24)
    ne = AtomicModule.builtin("Ne", [("A", 1)], fn=lambda d, rels: bool(rels[0].tuples))
    val = Valuation(domain, {}, {"Ne": ne})
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        eval_flat(F.Atom("Ne", ("P0",)), val, u)
    assert time.perf_counter() - start < 1.0
