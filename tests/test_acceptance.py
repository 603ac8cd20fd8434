"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

from conftest import rel
from _gen import (
    propositional_setup,
    random_prop_state,
    random_proc,
    random_flat,
    random_state,
)
from modalg import dynamic as D
from modalg import flat as F
from modalg import lmumu as S
from modalg.core import (
    AtomicModule,
    Domain,
    Structure,
    Valuation,
    Vocabulary,
    build_universe,
)
from modalg.dynamic import eval_dyn, kleene_star
from modalg.flat import Var, eval_flat
from modalg.lmumu import (
    UNKNOWN,
    datalog_certain_bounded,
    datalog_translate,
    eval_state,
    translate_two_sorted,
)
from modalg.tasks import equivalence_check, mc, mx, sat_bounded
from modalg.core import StructureSet


def report(name, ok, started, budget, detail=""):
    elapsed = time.time() - started
    line = f"[{'PASS' if ok and elapsed < budget else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s / budget {budget}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


HC = AtomicModule.builtin("HC", [("V", 1), ("X", 2), ("Y", 2)], "hamiltonian_circuit")
TWO_COL = AtomicModule.builtin("TwoCol", [("V", 1), ("X", 2), ("Z", 1), ("T", 1)], "two_col")
PIPE_VOCAB = Vocabulary((("V", 1), ("X", 2), ("Y", 2), ("Z", 1), ("T", 1)))
CONJ = F.intersect(F.Atom("HC", ("V", "X", "Y")), F.Atom("TwoCol", ("V", "Y", "Z", "T")))
PIPE = F.Project(frozenset({"V", "X", "Z", "T"}), CONJ)


def graph_input(elements, edges):
    domain = Domain(tuple(elements))
    vocab = Vocabulary((("V", 1), ("X", 2)))
    structure = Structure.make(domain, vocab, {"V": [(e,) for e in elements], "X": edges})
    return domain, structure


# independent oracles for criterion 1 (no engine code involved)


def oracle_hc(vertices, x_edges, y_edges):
    if not vertices or len(y_edges) != len(vertices):
        return False
    if not y_edges <= x_edges:
        return False
    succ = {}
    for a, b in y_edges:
        if a not in vertices or b not in vertices or a in succ:
            return False
        succ[a] = b
    if set(succ) != vertices:
        return False
    start = sorted(vertices)[0]
    node, seen = start, set()
    for _ in vertices:
        if node in seen:
            return False
        seen.add(node)
        node = succ[node]
    return node == start and seen == vertices


def oracle_two_col(vertices, edges, z, t):
    if z | t != vertices or z & t:
        return False
    return all(not ((a in z and b in z) or (a in t and b in t)) for a, b in edges)


def brute_force_pipeline(elements, x_edges):
    """All (Y, Z, T) triples: every Y subset of V x V, every (Z, T)."""
    vertices = set(elements)
    all_pairs = [(a, b) for a in elements for b in elements]
    x_set = set(x_edges)
    triples = set()
    for y_bits in range(1 << len(all_pairs)):
        y = {all_pairs[k] for k in range(len(all_pairs)) if y_bits >> k & 1}
        if not oracle_hc(vertices, x_set, y):
            continue
        for z_bits in itertools.product((0, 1), repeat=len(elements)):
            for t_bits in itertools.product((0, 1), repeat=len(elements)):
                z = {e for e, b in zip(elements, z_bits) if b}
                t = {e for e, b in zip(elements, t_bits) if b}
                if oracle_two_col(vertices, x_set, z, t):
                    triples.add((frozenset(y), frozenset(z), frozenset(t)))
    return triples


C4_EDGES = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"),
            ("2", "1"), ("3", "2"), ("4", "3"), ("1", "4")]
K3_EDGES = [(a, b) for a in "123" for b in "123" if a != b]


def test_criterion_1_hc_two_col_pipeline():
    started = time.time()
    domain4, c4 = graph_input("1234", C4_EDGES)
    val4 = Valuation(domain4, {}, {"HC": HC, "TwoCol": TWO_COL})
    got = mx(CONJ, {"V", "X"}, c4, val4, PIPE_VOCAB)
    got_triples = {
        (frozenset(s.rel("Y").tuples), frozenset(t[0] for t in s.rel("Z").tuples),
         frozenset(t[0] for t in s.rel("T").tuples))
        for s in got
    }
    expected = brute_force_pipeline(tuple("1234"), C4_EDGES)
    ok = got_triples == expected and len(got) == 4
    domain3, k3 = graph_input("123", K3_EDGES)
    val3 = Valuation(domain3, {}, {"HC": HC, "TwoCol": TWO_COL})
    got_k3 = mx(CONJ, {"V", "X"}, k3, val3, PIPE_VOCAB)
    ok = ok and got_k3 == [] and brute_force_pipeline(tuple("123"), K3_EDGES) == set()
    report("criterion 1 (HC-2Col pipeline MX)", ok, started, 10,
           f"C4: {len(got)} expansions, K3: {len(got_k3)}")


def _copy_module():
    return AtomicModule.builtin(
        "Copy", [("A", 1), ("B", 1)], fn=lambda d, rels: rels[0] == rels[1]
    )


def _equivalence_catalogue():
    """(name, formula, sigma, input structure, outputs, valuation, vocabulary)."""
    instances = []

    # HC-2Col pair on one- and two-element graphs
    for elements, edges in ((("a", "b"), [("a", "b"), ("b", "a")]),
                            (("a",), [("a", "a")]),
                            (("a",), [])):
        domain, structure = graph_input(elements, edges)
        val = Valuation(domain, {}, {"HC": HC, "TwoCol": TWO_COL})
        half = len(elements) // 2 or 1
        colours = [
            ({"Z": rel(1, *[(e,) for e in elements[:half]]),
              "T": rel(1, *[(e,) for e in elements[half:]])}),
            ({"Z": rel(1, *[(e,) for e in elements]), "T": rel(1)}),
            ({"Z": rel(1), "T": rel(1)}),
        ]
        for k, outs in enumerate(colours):
            instances.append(
                (f"hc2col-{''.join(elements)}-{len(edges)}edges-{k}",
                 PIPE, {"V", "X"}, structure, outs, val, PIPE_VOCAB)
            )

    # copy chains with a hidden middle variable
    domain = Domain(("a", "b"))
    copy = _copy_module()
    val = Valuation(domain, {}, {"Copy": copy})
    chain = F.Project(
        frozenset({"P", "R"}),
        F.intersect(F.Atom("Copy", ("P", "Q")), F.Atom("Copy", ("Q", "R"))),
    )
    chain_vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
    for p in ((), ("a",), ("a", "b")):
        for r in ((), ("a",)):
            structure = Structure.make(domain, Vocabulary((("P", 1),)), {"P": [(x,) for x in p]})
            instances.append(
                (f"copychain-P{len(p)}-R{len(r)}", chain, {"P"}, structure,
                 {"R": rel(1, *[(x,) for x in r])}, val, chain_vocab)
            )

    # selection with feedback from output to input (case 3)
    qfull = AtomicModule.builtin(
        "QFull", [("A", 1), ("B", 1)], fn=lambda d, rels: len(rels[1].tuples) == 2
    )
    val_q = Valuation(domain, {}, {"QFull": qfull})
    feedback = F.Select(Var("P"), Var("Q"), F.Atom("QFull", ("P", "Q")))
    fb_vocab = Vocabulary((("P", 1), ("Q", 1)))
    for p in ((), ("a",), ("a", "b")):
        for q in (("a", "b"), ("a",)):
            structure = Structure.make(domain, Vocabulary((("P", 1),)), {"P": [(x,) for x in p]})
            instances.append(
                (f"feedback-P{len(p)}-Q{len(q)}", feedback, {"P"}, structure,
                 {"Q": rel(1, *[(x,) for x in q])}, val_q, fb_vocab)
            )

    # selection on two inputs (case 1)
    reader = AtomicModule.builtin(
        "Reader", [("A", 1), ("B", 1), ("C", 1)],
        fn=lambda d, rels: rels[2].tuples == rels[0].tuples,
    )
    val_r = Valuation(domain, {}, {"Reader": reader})
    case1 = F.Select(Var("P"), Var("P2"), F.Atom("Reader", ("P", "P2", "Q")))
    c1_vocab = Vocabulary((("P", 1), ("P2", 1), ("Q", 1)))
    for p, p2 in ((("a",), ("a",)), (("a",), ("b",))):
        structure = Structure.make(
            domain, Vocabulary((("P", 1), ("P2", 1))),
            {"P": [(x,) for x in p], "P2": [(x,) for x in p2]},
        )
        instances.append(
            (f"case1-{p}-{p2}", case1, {"P", "P2"}, structure,
             {"Q": rel(1, *[(x,) for x in p])}, val_r, c1_vocab)
        )

    # selection on two outputs (case 2)
    twin = AtomicModule.builtin(
        "Twin", [("A", 1), ("B", 1), ("C", 1)],
        fn=lambda d, rels: rels[1] == rels[0] and rels[2] == rels[0],
    )
    val_t = Valuation(domain, {}, {"Twin": twin})
    case2 = F.Select(Var("Q"), Var("Q2"), F.Atom("Twin", ("P", "Q", "Q2")))
    c2_vocab = Vocabulary((("P", 1), ("Q", 1), ("Q2", 1)))
    for p, q, q2 in ((("a",), ("a",), ("a",)), (("a",), ("a",), ("b",))):
        structure = Structure.make(domain, Vocabulary((("P", 1),)), {"P": [(x,) for x in p]})
        instances.append(
            (f"case2-{q}-{q2}", case2, {"P"}, structure,
             {"Q": rel(1, *[(x,) for x in q]), "Q2": rel(1, *[(x,) for x in q2])},
             val_t, c2_vocab)
        )

    # unions of output-only atoms
    fullp = AtomicModule.extensional("FullP", [("P0", 1)], [(rel(1, ("a",), ("b",)),)])
    emptyp = AtomicModule.extensional("EmptyP", [("P0", 1)], [(rel(1),)])
    val_u = Valuation(domain, {}, {"FullP": fullp, "EmptyP": emptyp})
    union = F.Union(F.Atom("FullP", ("P",)), F.Atom("EmptyP", ("P",)))
    u_vocab = Vocabulary((("P", 1),))
    empty_sigma = Structure.make(domain, Vocabulary(()), {})
    for p in ((), ("a",), ("a", "b")):
        instances.append(
            (f"union-P{len(p)}", union, frozenset(), empty_sigma,
             {"P": rel(1, *[(x,) for x in p])}, val_u, u_vocab)
        )

    # conjunction without projection: all free variables designated
    domain_k2 = Domain(("a", "b"))
    _, k2 = graph_input(("a", "b"), [("a", "b"), ("b", "a")])
    val_k2 = Valuation(domain_k2, {}, {"HC": HC, "TwoCol": TWO_COL})
    cycle = rel(2, ("a", "b"), ("b", "a"))
    for y, z, t in ((cycle, rel(1, ("a",)), rel(1, ("b",))),
                    (cycle, rel(1), rel(1)),
                    (rel(2, ("a", "b")), rel(1, ("a",)), rel(1, ("b",)))):
        instances.append(
            (f"conj-{len(y.tuples)}y-{len(z.tuples)}z", CONJ, {"V", "X"}, k2,
             {"Y": y, "Z": z, "T": t}, val_k2, PIPE_VOCAB)
        )
    return instances


def test_criterion_2_equivalence_theorem():
    started = time.time()
    instances = _equivalence_catalogue()
    assert len(instances) >= 20
    rows = 0
    failures = []
    for name, e, sigma, structure, outputs, val, vocab in instances:
        result = equivalence_check(e, sigma, structure, outputs, val, vocab)
        rows += len(result.rows)
        if not result.passed:
            failures.append((name, result.summary()))
    ok = not failures
    report("criterion 2 (temp-MC = EV = REACH)", ok, started, 60,
           f"{len(instances)} instances, {rows} assignments"
           + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_translation_theorem(pq):
    started = time.time()
    _, _, u, val = pq
    rng = random.Random(20260810)
    agreements = 0
    for _ in range(200):
        phi = random_state(rng, 4)
        lhs = set(eval_state(phi, val, u).indices())
        down = eval_dyn(D.Down(translate_two_sorted(phi)), val, u)
        rhs = {i for i, j in down.pairs() if i == j}
        assert lhs == rhs, f"translation mismatch for {phi}"
        agreements += 1
    report("criterion 3 (two-sorted translation)", agreements == 200, started, 30,
           f"{agreements}/200 formulas agree")


def test_criterion_4_derived_operation_identities(pq):
    started = time.time()
    _, _, u, val = pq
    rng = random.Random(404)
    formulas = [random_proc(rng, 3) for _ in range(12)]
    diag = {(i, i) for i in range(16)}

    def compose_pairs(a, b):
        return {(i, j) for i, m1 in a for m2, j in b if m1 == m2}

    for a in formulas:
        base = set(eval_dyn(a, val, u).pairs())
        assert eval_dyn(D.UnaryNeg(D.UnaryNeg(a)), val, u) == eval_dyn(D.Down(a), val, u)
        for low, high in ((0, 1), (1, 2), (2, 3)):
            power, union = diag, set()
            for k in range(high + 1):
                if k >= low:
                    union |= power
                power = compose_pairs(power, base)
            assert set(eval_dyn(D.Count(a, low, high), val, u).pairs()) == union
        closure = set(diag)
        while True:
            bigger = closure | compose_pairs(closure, base)
            if bigger == closure:
                break
            closure = bigger
        assert set(eval_dyn(kleene_star(a), val, u).pairs()) == closure
    assert eval_dyn(D.UnaryNeg(D.Bottom()), val, u) == eval_dyn(D.Diagonal(), val, u)
    report("criterion 4 (derived-operation identities)", True, started, 10,
           f"{len(formulas)} formulas, counting bounds (0,1),(1,2),(2,3)")


def test_criterion_5_lfp_minimality():
    started = time.time()
    domain = Domain(("a",))
    vocab = Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
    u = build_universe(domain, vocab)  # 8 structures <= 12
    nonempty = AtomicModule.builtin("NP", [("A", 1)], fn=lambda d, rels: bool(rels[0].tuples))
    copy = _copy_module()
    val = Valuation(domain, {}, {"NP": nonempty, "Copy": copy})
    act = D.Action("NP", ("Q",), frozenset(), frozenset({"Q"}))

    flat_bodies = [
        F.Union(F.Atom("NP", ("P",)), F.ModuleVar("Z")),
        F.Union(F.Atom("NP", ("Q",)), F.Project(frozenset({"P"}), F.ModuleVar("Z"))),
        F.intersect(F.Complement(F.Bottom()), F.ModuleVar("Z")),
        F.Union(F.Atom("Copy", ("P", "Q")), F.ModuleVar("Z")),
        F.Union(F.Bottom(), F.ModuleVar("Z")),
    ]
    state_bodies = [
        S.Or(S.Prop("NP", ("P",)), S.SetVar("X")),
        S.Or(S.Prop("NP", ("R",)), S.Diamond(act, S.SetVar("X"))),
        S.Or(S.Prop("Copy", ("P", "Q")), S.Diamond(D.Diagonal(), S.SetVar("X"))),
        S.Or(S.And(S.Prop("NP", ("P",)), S.Prop("NP", ("Q",))), S.SetVar("X")),
        S.SetVar("X"),
    ]
    checked = 0
    for body in flat_bodies:
        got = set(eval_flat(F.Lfp("Z", body), val, u).indices())
        prefix = None
        for bits in itertools.product((0, 1), repeat=u.size):
            candidate = {i for i, b in enumerate(bits) if b}
            image = set(
                eval_flat(body, val.bind("Z", StructureSet.of_indices(u, candidate)), u).indices()
            )
            if image <= candidate:
                prefix = candidate if prefix is None else prefix & candidate
        assert got == prefix, f"flat fixpoint is not the least prefixpoint: {body}"
        checked += 1
    for body in state_bodies:
        got = set(eval_state(S.Lfp("X", body), val, u).indices())
        prefix = None
        for bits in itertools.product((0, 1), repeat=u.size):
            candidate = {i for i, b in enumerate(bits) if b}
            image = set(
                eval_state(body, val.bind("X", StructureSet.of_indices(u, candidate)), u).indices()
            )
            if image <= candidate:
                prefix = candidate if prefix is None else prefix & candidate
        assert got == prefix, f"state fixpoint is not the least prefixpoint: {body}"
        checked += 1
    report("criterion 5 (least-fixpoint minimality)", checked == 10, started, 60,
           f"{checked} bodies, brute force over 2^{u.size} subsets")


def test_criterion_6_datalog_embedding():
    from test_datalog import TestChaseAgainstAllModels, all_models_certain, worked_program

    started = time.time()
    got = datalog_translate(worked_program())
    has_mgr = D.Action("hasMgr", ("X", "Y"), frozenset({"X"}), frozenset({"Y"}))
    father = D.Action("fatherOf", ("F", "P"), frozenset({"P"}), frozenset({"F"}))
    person_p = S.Prop("person", ("P",))
    fixture = S.And(
        S.And(
            S.Or(S.Not(S.Prop("emp", ("X",))), S.Diamond(has_mgr, S.Prop("emp", ("Y",)))),
            S.Or(S.Not(person_p), S.Diamond(father, S.TOP)),
        ),
        S.Box(father, S.Prop("person", ("F",))),
    )
    ok = got == fixture
    instances = TestChaseAgainstAllModels()._instances()
    assert len(instances) >= 5
    for program, db, query in instances:
        chased = datalog_certain_bounded(program, db, query, 0)
        ok = ok and chased is not UNKNOWN and chased == all_models_certain(program, db, query)
    report("criterion 6 (existential-rule embedding)", ok, started, 5,
           f"fixture AST match + {len(instances)} chase instances")


def test_criterion_7_propositional_collapse():
    from modalg.tasks import temp_sat_prop

    started = time.time()
    rng = random.Random(777)
    agree = 0
    total = 55
    for k in range(total):
        variables, modules, val = propositional_setup(rng)
        phi = random_prop_state(rng, modules, 3)
        one_elt = temp_sat_prop(phi, val)
        # exhaustive two-element-domain search
        from modalg.lmumu import state_vars

        symbols = sorted({val.symbol(v) for v in state_vars(phi)})
        vocab2 = Vocabulary(tuple((s, 1) for s in symbols))
        u2 = build_universe(Domain(("a", "b")), vocab2)
        sat2 = len(eval_state(phi, Valuation(Domain(("a", "b")), {}, modules), u2)) > 0
        assert (one_elt is not None) == sat2, f"collapse mismatch for {phi}"
        agree += 1
    report("criterion 7 (propositional one-element collapse)", agree == total, started, 20,
           f"{agree}/{total} formulas agree with the 2-element search")


def test_criterion_8_task_ladder(pq):
    started = time.time()
    domain, vocab, u, val = pq
    rng = random.Random(88)
    total = 110
    held = 0
    for _ in range(total):
        e = random_flat(rng, 3)
        structure = u.structure_at(rng.randrange(16))
        verdict = mc(e, structure, val)
        # sigma = vocabulary: expansion equals the model-checking verdict
        full_sigma = mx(e, {"P", "Q"}, structure, val, vocab)
        assert (full_sigma == [structure]) == verdict
        if verdict:
            # proper sigma: the expansion set is non-empty...
            p_part = Structure.make(domain, Vocabulary((("P", 1),)), {"P": structure.rel("P")})
            expansions = mx(e, {"P"}, p_part, val, vocab)
            assert structure in expansions
            # ... and a bounded-SAT witness exists at this domain size
            witness = sat_bounded(e, val, len(domain), vocab)
            assert witness is not None
            held += 1
    report("criterion 8 (MC => MX => SAT ladder)", True, started, 10,
           f"{total} pairs, {held} satisfiable")
