"""Workload `pair-closure`: process and state queries on a 12-bit universe
(domain {a,b}, unary symbols P0..P5, 4,096 states) and equivalence checks on
the 2^14-structure Hamiltonian-circuit/2-colouring universe.

Composition, pair fixpoints, diamonds and labelled transition systems
dominate. The processes are unions of copy actions `Copy(in Pi; out Pj)`
along a chain of symbols; the seed permutes the symbols, so each round's
processes are isomorphic and cost the same. References: breadth-first search
over the explicit successor function of the copy actions, and verdicts of
the equivalence instances from the definitions of their modules.
"""

from __future__ import annotations

from types import SimpleNamespace

import reference as ref
from common import Query, UnaryLayout, nonempty, read_spec, same, unary

NAME = "pair-closure"
SYMBOLS = tuple(f"P{i}" for i in range(6))
ELEMENTS = ("a", "b")
TAIL_PERCENTILE = 75
MIN_ROUNDS = 2  # 46 samples, so p75 has 11 beyond it
NOMINAL_ROUND_S = 6.0


def _qfull(domain, rels):
    return len(rels[1].tuples) == 2


def _reader(domain, rels):
    return rels[2].tuples == rels[0].tuples


def _twin(domain, rels):
    return rels[1] == rels[0] and rels[2] == rels[0]


def setup(eng) -> SimpleNamespace:
    core = eng.core
    domain = core.Domain(ELEMENTS)
    modules = {
        "Nonempty": core.AtomicModule.builtin("Nonempty", [("N", 1)], fn=nonempty),
        "Copy": core.AtomicModule.builtin("Copy", [("A", 1), ("B", 1)], fn=same),
    }
    ctx = SimpleNamespace(
        eng=eng,
        domain=domain,
        vocab=core.Vocabulary(tuple((s, 1) for s in SYMBOLS)),
        layout=UnaryLayout(ELEMENTS, SYMBOLS),
        valuation=core.Valuation(domain, {}, modules),
    )
    ctx.universe = core.build_universe(domain, ctx.vocab)
    ctx.catalogue = _catalogue(eng)
    spec = eng.parser.parse_spec(read_spec("graph.mod"))
    directive = spec.tasks["three_way"]
    sigma_vocab = core.Vocabulary(tuple(
        (n, a) for n, a in spec.vocabulary.symbols if n in directive.sigma))
    structure = core.Structure.make(spec.domain, sigma_vocab, {
        n: directive.bindings.get(n, core.RelationValue.of(a)) for n, a in sigma_vocab.symbols})
    ctx.graph_three_way = (spec.flat_defs[directive.formula], directive.sigma, structure,
                           dict(directive.outputs), spec.valuation(), spec.vocabulary)
    return ctx


def _catalogue(eng) -> dict[str, list]:
    """Equivalence instances by shape: (formula, sigma, input structure,
    outputs, valuation, vocabulary, expected verdict, expected rows)."""
    core, F = eng.core, eng.flat
    rel = core.RelationValue.of
    domain = core.Domain(ELEMENTS)
    shapes: dict[str, list] = {}

    hc = core.AtomicModule.builtin("HC", [("V", 1), ("X", 2), ("Y", 2)], "hamiltonian_circuit")
    two = core.AtomicModule.builtin("TwoCol", [("V", 1), ("X", 2), ("Z", 1), ("T", 1)], "two_col")
    pipe_vocab = core.Vocabulary((("V", 1), ("X", 2), ("Y", 2), ("Z", 1), ("T", 1)))
    conj = F.intersect(F.Atom("HC", ("V", "X", "Y")), F.Atom("TwoCol", ("V", "Y", "Z", "T")))
    pipe = F.Project(frozenset({"V", "X", "Z", "T"}), conj)
    x_edges = frozenset({("a", "b"), ("b", "a")})
    graph = core.Structure.make(domain, core.Vocabulary((("V", 1), ("X", 2))),
                                {"V": unary(ELEMENTS), "X": x_edges})
    val_hc = core.Valuation(domain, {}, {"HC": hc, "TwoCol": two})
    triples = ref.circuit_colourings(ELEMENTS, x_edges)
    shapes["hc2col"] = [
        (pipe, {"V", "X"}, graph, {"Z": rel(1, z), "T": rel(1, t)}, val_hc, pipe_vocab,
         any(zz == frozenset(e for (e,) in z) and tt == frozenset(e for (e,) in t)
             for _, zz, tt in triples), 4)
        for z, t in ((unary("a"), unary("b")), (unary("ab"), unary("")),
                     (unary(""), unary("")))
    ]
    cycle = x_edges
    shapes["conj"] = [
        (conj, {"V", "X"}, graph, {"Y": rel(2, y), "Z": rel(1, unary(z)), "T": rel(1, unary(t))},
         val_hc, pipe_vocab, (y, frozenset(z), frozenset(t)) in triples, 1)
        for y, z, t in ((cycle, "a", "b"), (cycle, "", ""), (frozenset({("a", "b")}), "a", "b"))
    ]

    p_only = core.Vocabulary((("P", 1),))
    values = ("", "a", "ab")
    val_copy = core.Valuation(domain, {}, {"Copy": core.AtomicModule.builtin(
        "Copy", [("A", 1), ("B", 1)], fn=same)})
    chain = F.Project(frozenset({"P", "R"}), F.intersect(F.Atom("Copy", ("P", "Q")),
                                                         F.Atom("Copy", ("Q", "R"))))
    chain_vocab = core.Vocabulary((("P", 1), ("Q", 1), ("R", 1)))
    shapes["copychain"] = [
        (chain, {"P"}, core.Structure.make(domain, p_only, {"P": unary(p)}),
         {"R": rel(1, unary(r))}, val_copy, chain_vocab, p == r, 4)
        for p in values for r in ("", "a")
    ]

    val_q = core.Valuation(domain, {}, {"QFull": core.AtomicModule.builtin(
        "QFull", [("A", 1), ("B", 1)], fn=_qfull)})
    feedback = F.Select(F.Var("P"), F.Var("Q"), F.Atom("QFull", ("P", "Q")))
    shapes["feedback"] = [
        (feedback, {"P"}, core.Structure.make(domain, p_only, {"P": unary(p)}),
         {"Q": rel(1, unary(q))}, val_q, core.Vocabulary((("P", 1), ("Q", 1))),
         q == "ab" and p == q, 1)
        for p in values for q in ("ab", "a")
    ]

    val_r = core.Valuation(domain, {}, {"Reader": core.AtomicModule.builtin(
        "Reader", [("A", 1), ("B", 1), ("C", 1)], fn=_reader)})
    case1 = F.Select(F.Var("P"), F.Var("P2"), F.Atom("Reader", ("P", "P2", "Q")))
    val_t = core.Valuation(domain, {}, {"Twin": core.AtomicModule.builtin(
        "Twin", [("A", 1), ("B", 1), ("C", 1)], fn=_twin)})
    case2 = F.Select(F.Var("Q"), F.Var("Q2"), F.Atom("Twin", ("P", "Q", "Q2")))
    p_p2 = core.Vocabulary((("P", 1), ("P2", 1)))
    shapes["select-case"] = [
        (case1, {"P", "P2"}, core.Structure.make(domain, p_p2, {"P": unary("a"), "P2": unary(p2)}),
         {"Q": rel(1, unary("a"))}, val_r, core.Vocabulary((("P", 1), ("P2", 1), ("Q", 1))),
         p2 == "a", 1)
        for p2 in ("a", "b")
    ] + [
        (case2, {"P"}, core.Structure.make(domain, p_only, {"P": unary("a")}),
         {"Q": rel(1, unary("a")), "Q2": rel(1, unary(q2))}, val_t,
         core.Vocabulary((("P", 1), ("Q", 1), ("Q2", 1))), q2 == "a", 1)
        for q2 in ("a", "b")
    ]

    val_u = core.Valuation(domain, {}, {
        "FullP": core.AtomicModule.extensional("FullP", [("P0", 1)], [(rel(1, unary("ab")),)]),
        "EmptyP": core.AtomicModule.extensional("EmptyP", [("P0", 1)], [(rel(1),)]),
    })
    union = F.Union(F.Atom("FullP", ("P",)), F.Atom("EmptyP", ("P",)))
    empty_sigma = core.Structure.make(domain, core.Vocabulary(()), {})
    shapes["union"] = [
        (union, frozenset(), empty_sigma, {"P": rel(1, unary(p))}, val_u, p_only,
         p in ("", "ab"), 1)
        for p in values
    ]
    return shapes


def _equiv_query(ctx, name, instance) -> Query:
    e, sigma, structure, outputs, val, vocab, verdict, rows = instance

    def answer(report):
        return (report.passed, len(report.rows),
                frozenset(r.temp_mc for r in report.rows),
                frozenset(r.reach for r in report.rows),
                frozenset(r.ev for r in report.rows))

    return Query(
        f"equiv-{name}",
        lambda: ctx.eng.tasks.equivalence_check(e, sigma, structure, outputs, val, vocab),
        answer,
        lambda: (True, rows, frozenset({verdict}), frozenset({verdict}), frozenset({verdict})),
    )


def make_round(ctx, rng) -> list[Query]:
    D, S, tasks = ctx.eng.dynamic, ctx.eng.lmumu, ctx.eng.tasks
    u, val, layout = ctx.universe, ctx.valuation, ctx.layout
    core = ctx.eng.core

    def chain(length):
        """A copy chain over a seeded order of the symbols: the engine's
        process and the reference's successor table."""
        order = rng.sample(SYMBOLS, len(SYMBOLS))
        steps = list(zip(order, order[1:]))[:length]
        proc = None
        for s, t in steps:
            action = D.Action("Copy", (s, t), frozenset({s}), frozenset({t}))
            proc = action if proc is None else D.Union(proc, action)
        table = ref.successors(layout.size, lambda state: [
            layout.with_value(state, t, layout.value(state, s)) for s, t in steps])
        return proc, table, order

    def source():
        index = rng.randrange(layout.size)
        structure = core.Structure.make(ctx.domain, ctx.vocab, {
            s: layout.tuples(layout.value(index, s)) for s in SYMBOLS})
        return index, structure

    def pairs_query(name, proc, expected):
        return Query(name, lambda: D.eval_dyn(proc, val, u),
                     lambda edges: frozenset(edges.pairs()), expected)

    def states_query(name, phi, expected):
        return Query(name, lambda: S.eval_state(phi, val, u),
                     lambda states: frozenset(states.indices()), expected)

    def reach_query(name, proc, table, closure):
        index, structure = source()
        sym = rng.choice(SYMBOLS)
        value = rng.randrange(1 << layout.width)
        goal = {sym: core.RelationValue.of(1, layout.tuples(value))}
        targets = ref.reachable(index, table) if closure else table[index]
        return Query(name, lambda: tasks.reach(proc, structure, goal, val, u), bool,
                     lambda: any(layout.value(t, sym) == value for t in targets))

    def nonempty_states(sym):
        return frozenset(s for s in range(layout.size) if layout.value(s, sym) != 0)

    # A round, cheapest first: 7 queries under 30 ms, 6 of ~0.1 s, 5 of
    # ~0.25 s, 4 of 0.3-1 s, then the five-action star. The median and p75
    # fall inside the ~0.1 s and ~0.25 s groups.
    queries = []
    shapes = ctx.catalogue
    for shape, count in (("copychain", 2), ("feedback", 1), ("select-case", 1), ("union", 1)):
        for _ in range(count):
            queries.append(_equiv_query(ctx, shape, rng.choice(shapes[shape])))

    proc, table, order = chain(5)
    queries.append(states_query(
        "box-chain5", S.Box(proc, S.Prop("Nonempty", (order[2],))),
        lambda table=table, goal=nonempty_states(order[2]): frozenset(
            s for s, succs in enumerate(table) if goal.issuperset(succs))))
    proc, table, _ = chain(5)
    queries.append(reach_query("reach-chain5", proc, table, closure=False))

    proc, table, _ = chain(3)
    queries.append(pairs_query("count-chain3-1to3", D.Count(proc, 1, 3),
                               lambda table=table: ref.step_pairs(table, 1, 3)))
    for kind in ("eval-state", "temp-mc"):
        for _ in range(3):
            proc, table, order = chain(5)
            goal = order[5]
            phi = S.Lfp("X", S.Or(S.Prop("Nonempty", (goal,)), S.Diamond(proc, S.SetVar("X"))))
            if kind == "eval-state":
                queries.append(states_query(
                    "mu-diamond-chain5", phi,
                    lambda table=table, goal=goal: ref.can_reach(table, nonempty_states(goal))))
            else:
                index, structure = source()
                queries.append(Query(
                    "temp-mc-chain5",
                    lambda phi=phi, structure=structure: tasks.temp_mc(phi, structure, val, u),
                    bool,
                    lambda table=table, goal=goal, index=index: bool(
                        ref.reachable(index, table) & nonempty_states(goal))))

    for _ in range(2):
        proc, table, _ = chain(3)
        queries.append(pairs_query("star-chain3", D.kleene_star(proc),
                                   lambda table=table: ref.star_pairs(table)))
    for _ in range(2):
        proc, table, _ = chain(3)
        star3 = D.kleene_star(proc)
        queries.append(Query(
            "stats-star-chain3",
            lambda star3=star3: ctx.eng.export.collect_stats(star3, val, u),
            lambda out: out[1].edge_counts[out[0].order[-1]],
            lambda table=table: len(ref.star_pairs(table))))

    queries.append(_equiv_query(ctx, "conj", rng.choice(shapes["conj"])))
    proc, table, _ = chain(3)
    queries.append(reach_query("reach-star-chain3", D.kleene_star(proc), table, closure=True))
    e, sigma, structure, outputs, gval, vocab = ctx.graph_three_way
    queries.append(_equiv_query(ctx, "graph-three-way",
                                (e, sigma, structure, outputs, gval, vocab, True, 4)))
    queries.append(_equiv_query(ctx, "hc2col", rng.choice(shapes["hc2col"])))

    proc, table, _ = chain(5)
    queries.append(pairs_query("star-chain5", D.kleene_star(proc),
                               lambda table=table: ref.star_pairs(table)))
    return queries
