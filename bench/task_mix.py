"""Workload `task-mix`: an interactive stream of small requests.

Per round: seeded small flat/process/state formulas on the 16-structure P/Q
universe; body evaluations under bound module variables on 8- and 4-state
universes (the pattern of a least-prefixpoint check); every `demo.mod`
directive and `graph.mod`'s `colourings` and `witness`, each re-parsed from
the spec text as `modalg task` does; structure-level `mc`/`mx`/`ev`/
`sat_bounded` on the Hamiltonian-circuit/2-colouring pipeline over seeded
3-vertex digraphs (a 2^27-structure space that is never built); and
`temp_sat_prop`.

Fixed per-call cost, parsing and the structure-level search dominate; sets
have at most 16 members. References: a small-universe semantics of the
formula grammar (`reference.pq_*`), explicit set arithmetic for the bodies,
a brute-force circuit/colouring oracle, hand-written verdicts for the
directives, and truth tables for the propositional formulas.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import reference as ref
from common import Query, nonempty, read_spec, same, unary

NAME = "task-mix"
TAIL_PERCENTILE = 99
MIN_ROUNDS = 1  # a round has 106 queries; a run has thousands
NOMINAL_ROUND_S = 0.165

PQ_ARGS = {"FullP": ("P",), "EmptyQ": ("Q",), "NonemptyP": ("P",), "Copy": ("P", "Q")}
ELEMENTS3 = ("a", "b", "c")
FULL = frozenset({("a",), ("b",)})
PROP_SYMBOLS = ("P", "Q", "R")
# name -> (variables, truth table over the variables' nonemptiness)
PROP_MODULES = {
    "M1": (("A",), lambda a: a[0]),
    "M2": (("A", "B"), lambda a: a[0] != a[1]),
    "M3": (("A", "B"), lambda a: a[0] and a[1]),
}


def _full(domain, rels):
    return len(rels[0].tuples) == 1


def setup(eng) -> SimpleNamespace:
    core, F = eng.core, eng.flat
    rel = core.RelationValue.of
    ctx = SimpleNamespace(eng=eng)

    pq_domain = core.Domain(("a", "b"))
    ctx.pq_universe = core.build_universe(pq_domain, core.Vocabulary((("P", 1), ("Q", 1))))
    ctx.pq_valuation = core.Valuation(pq_domain, {}, {
        "FullP": core.AtomicModule.extensional("FullP", [("P0", 1)], [(rel(1, FULL),)]),
        "EmptyQ": core.AtomicModule.extensional("EmptyQ", [("Q0", 1)], [(rel(1),)]),
        "NonemptyP": core.AtomicModule.builtin("NonemptyP", [("N0", 1)], fn=nonempty),
        "Copy": core.AtomicModule.builtin("Copy", [("A", 1), ("B", 1)], fn=same),
    })

    one = core.Domain(("a",))
    ctx.u8 = core.build_universe(one, core.Vocabulary((("P", 1), ("Q", 1), ("R", 1))))
    ctx.val8 = core.Valuation(one, {}, {
        "NP": core.AtomicModule.builtin("NP", [("A", 1)], fn=nonempty),
        "Copy": core.AtomicModule.builtin("Copy", [("A", 1), ("B", 1)], fn=same),
    })
    ctx.u4 = core.build_universe(one, core.Vocabulary((("P", 1), ("Q", 1))))
    ctx.val4 = core.Valuation(one, {}, {
        "Full": core.AtomicModule.builtin("Full", [("A", 1)], fn=_full)})
    ctx.bodies = _bodies(eng)

    ctx.demo_text = read_spec("demo.mod")
    ctx.graph_text = read_spec("graph.mod")

    domain3 = core.Domain(ELEMENTS3)
    ctx.domain3 = domain3
    ctx.val3 = core.Valuation(domain3, {}, {
        "HC": core.AtomicModule.builtin("HC", [("V", 1), ("X", 2), ("Y", 2)],
                                        "hamiltonian_circuit"),
        "TwoCol": core.AtomicModule.builtin("TwoCol", [("V", 1), ("X", 2), ("Z", 1), ("T", 1)],
                                            "two_col"),
    })
    ctx.pipe_vocab = core.Vocabulary((("V", 1), ("X", 2), ("Y", 2), ("Z", 1), ("T", 1)))
    ctx.conj = F.intersect(F.Atom("HC", ("V", "X", "Y")), F.Atom("TwoCol", ("V", "Y", "Z", "T")))
    ctx.pipe = F.Project(frozenset({"V", "X", "Z", "T"}), ctx.conj)
    ctx.colourings = {}  # reference answers by input digraph

    ctx.prop_valuation = core.Valuation(pq_domain, {}, {
        name: core.propositional_module(name, variables, truth)
        for name, (variables, truth) in PROP_MODULES.items()})
    ctx.demo_expected = _demo_expected()
    ctx.graph_expected = _graph_expected()
    return ctx


# ---------------------------------------------------------------------------
# Small formulas: generated as nested tuples, built as engine ASTs


def gen_flat(rng, depth: int):
    if depth <= 0:
        pick = rng.randrange(5)
        return ("bot",) if pick == 4 else ("atom", list(PQ_ARGS)[pick])
    pick = rng.randrange(6)
    if pick == 0:
        return ("or", gen_flat(rng, depth - 1), gen_flat(rng, depth - 1))
    if pick == 1:
        return ("not", gen_flat(rng, depth - 1))
    if pick == 2:
        keep = rng.choice((frozenset("P"), frozenset("Q"), frozenset("PQ")))
        return ("proj", keep, ("and", gen_flat(rng, depth - 1), ("atom", "Copy")))
    if pick == 3:
        return ("sel", rng.choice(("Q", "a")), gen_flat(rng, depth - 1))
    if pick == 4:
        step = ("proj", frozenset("P"), ("and", ("var", "Z"), ("atom", "Copy")))
        return ("mu", "Z", ("or", gen_flat(rng, depth - 1), step))
    return ("and", gen_flat(rng, depth - 1), gen_flat(rng, depth - 1))


def gen_proc(rng, depth: int):
    if depth <= 0:
        return (rng.choice(("bot", "diag", "setp", "copyq", "test-fullp", "p-is-a")),)
    pick = rng.randrange(6)
    if pick == 0:
        return ("or", gen_proc(rng, depth - 1), gen_proc(rng, depth - 1))
    if pick == 1:
        return ("seq", gen_proc(rng, depth - 1), gen_proc(rng, depth - 1))
    if pick == 2:
        return ("not", gen_proc(rng, depth - 1))
    if pick == 3:
        return ("dn", gen_proc(rng, depth - 1))
    if pick == 4:
        return ("star", gen_proc(rng, depth - 1))
    low = rng.randrange(2)
    return ("count", gen_proc(rng, depth - 1), low, low + 1)


def gen_state(rng, depth: int):
    if depth <= 0:
        return ("prop", rng.choice(list(PQ_ARGS)))
    pick = rng.randrange(6)
    if pick == 0:
        return ("or", gen_state(rng, depth - 1), gen_state(rng, depth - 1))
    if pick == 1:
        return ("and", gen_state(rng, depth - 1), gen_state(rng, depth - 1))
    if pick == 2:
        return ("not", gen_state(rng, depth - 1))
    if pick == 3:
        return ("dia", gen_proc(rng, 1), gen_state(rng, depth - 1))
    if pick == 4:
        return ("box", gen_proc(rng, 1), gen_state(rng, depth - 1))
    goal = gen_state(rng, depth - 1)
    return ("mu", "X", ("or", goal, ("dia", gen_proc(rng, 1), ("var", "X"))))


def build_flat(F, f):
    op = f[0]
    if op == "bot":
        return F.Bottom()
    if op == "atom":
        return F.Atom(f[1], PQ_ARGS[f[1]])
    if op == "var":
        return F.ModuleVar(f[1])
    if op == "or":
        return F.Union(build_flat(F, f[1]), build_flat(F, f[2]))
    if op == "and":
        return F.intersect(build_flat(F, f[1]), build_flat(F, f[2]))
    if op == "not":
        return F.Complement(build_flat(F, f[1]))
    if op == "proj":
        return F.Project(f[1], build_flat(F, f[2]))
    if op == "sel":
        right = F.Var("Q") if f[1] == "Q" else F.Const.of([("a",)])
        return F.Select(F.Var("P"), right, build_flat(F, f[2]))
    if op == "mu":
        return F.Lfp(f[1], build_flat(F, f[2]))
    raise ValueError(op)


def build_proc(eng, a):
    D, F = eng.dynamic, eng.flat
    op = a[0]
    leaves = {
        "bot": D.Bottom,
        "diag": D.Diagonal,
        "setp": lambda: D.Action("FullP", ("P",), frozenset(), frozenset({"P"})),
        "copyq": lambda: D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"})),
        "test-fullp": lambda: D.Test("FullP", ("P",)),
        "p-is-a": lambda: D.ConstTest("P", F.Const.of([("a",)]), True),
    }
    if op in leaves:
        return leaves[op]()
    if op == "or":
        return D.Union(build_proc(eng, a[1]), build_proc(eng, a[2]))
    if op == "seq":
        return D.Compose(build_proc(eng, a[1]), build_proc(eng, a[2]))
    if op == "not":
        return D.Complement(build_proc(eng, a[1]))
    if op == "dn":
        return D.Down(build_proc(eng, a[1]))
    if op == "star":
        return D.kleene_star(build_proc(eng, a[1]))
    if op == "count":
        return D.Count(build_proc(eng, a[1]), a[2], a[3])
    raise ValueError(op)


def build_state(eng, phi):
    S = eng.lmumu
    op = phi[0]
    if op == "prop":
        return S.Prop(phi[1], PQ_ARGS[phi[1]])
    if op == "var":
        return S.SetVar(phi[1])
    if op == "or":
        return S.Or(build_state(eng, phi[1]), build_state(eng, phi[2]))
    if op == "and":
        return S.And(build_state(eng, phi[1]), build_state(eng, phi[2]))
    if op == "not":
        return S.Not(build_state(eng, phi[1]))
    if op == "dia":
        return S.Diamond(build_proc(eng, phi[1]), build_state(eng, phi[2]))
    if op == "box":
        return S.Box(build_proc(eng, phi[1]), build_state(eng, phi[2]))
    if op == "mu":
        return S.Lfp(phi[1], build_state(eng, phi[2]))
    raise ValueError(op)


# ---------------------------------------------------------------------------
# Bodies under bound module variables. On the 8-state universe P, Q, R are
# bits 4, 2, 1; on the 4-state one P, Q are bits 2, 1.

STATES8 = range(8)


def _bodies(eng):
    """(kind, engine body, reference image of a bound set)."""
    F, D, S = eng.flat, eng.dynamic, eng.lmumu
    act_q = D.Action("NP", ("Q",), frozenset(), frozenset({"Q"}))
    act_p = D.Action("Full", ("P",), frozenset(), frozenset({"P"}))

    def where(pred):
        return frozenset(s for s in STATES8 if pred(s))

    copy8 = where(lambda s: bool(s & 4) == bool(s & 2))
    return [
        ("flat", F.Union(F.Atom("NP", ("P",)), F.ModuleVar("Z")),
         lambda z: where(lambda s: s & 4) | z),
        ("flat", F.Union(F.Atom("NP", ("Q",)), F.Project(frozenset({"P"}), F.ModuleVar("Z"))),
         lambda z: where(lambda s: s & 2) | where(lambda s: any((t & 4) == (s & 4) for t in z))),
        ("flat", F.intersect(F.Complement(F.Bottom()), F.ModuleVar("Z")), lambda z: z),
        ("flat", F.Union(F.Atom("Copy", ("P", "Q")), F.ModuleVar("Z")), lambda z: copy8 | z),
        ("state", S.Or(S.Prop("NP", ("P",)), S.SetVar("X")),
         lambda x: where(lambda s: s & 4) | x),
        ("state", S.Or(S.Prop("NP", ("R",)), S.Diamond(act_q, S.SetVar("X"))),
         lambda x: where(lambda s: s & 1) | where(lambda s: (s | 2) in x)),
        ("state", S.Or(S.Prop("Copy", ("P", "Q")), S.Diamond(D.Diagonal(), S.SetVar("X"))),
         lambda x: copy8 | x),
        ("state", S.Or(S.And(S.Prop("NP", ("P",)), S.Prop("NP", ("Q",))), S.SetVar("X")),
         lambda x: where(lambda s: (s & 6) == 6) | x),
        ("dyn", D.Union(act_p, D.ModuleVar("Z")),
         lambda z: frozenset((s, s | 2) for s in range(4)) | z),
        ("dyn", D.Union(D.Diagonal(), D.Compose(D.ModuleVar("Z"), act_p)),
         lambda z: frozenset((s, s) for s in range(4)) | frozenset((i, k | 2) for i, k in z)),
    ]


# ---------------------------------------------------------------------------
# Spec directives, run the way `modalg task` runs them


def _structure(eng, spec, bindings, symbols=None):
    core = eng.core
    chosen = [(n, a) for n, a in spec.vocabulary.symbols if symbols is None or n in symbols]
    return core.Structure.make(spec.domain, core.Vocabulary(tuple(chosen)), {
        n: bindings.get(n, core.RelationValue.of(a)) for n, a in chosen})


def run_directive(eng, text: str, name: str):
    """Parse the spec and run one task directive, as `modalg task --name`."""
    tasks = eng.tasks
    spec = eng.parser.parse_spec(text)
    d = spec.tasks[name]
    val = spec.valuation()
    if d.kind == "mc":
        return tasks.mc(spec.flat_defs[d.formula], _structure(eng, spec, d.bindings), val)
    if d.kind == "mx":
        return tasks.mx(spec.flat_defs[d.formula], d.sigma,
                        _structure(eng, spec, d.bindings, d.sigma), val, spec.vocabulary)
    if d.kind == "ev":
        return tasks.ev(spec.flat_defs[d.formula], d.sigma,
                        _structure(eng, spec, d.bindings, d.sigma), d.outputs, val,
                        spec.vocabulary)
    if d.kind == "temp-mc":
        return tasks.temp_mc(spec.state_defs[d.formula], _structure(eng, spec, d.bindings),
                             val, eng.core.build_universe(spec.domain, spec.vocabulary))
    if d.kind == "temp-sat":
        return tasks.temp_sat_prop(spec.state_defs[d.formula], val)
    if d.kind == "reach":
        return tasks.reach(spec.dyn_defs[d.formula], _structure(eng, spec, d.bindings),
                           d.outputs, val, eng.core.build_universe(spec.domain, spec.vocabulary))
    if d.kind == "equiv":
        return tasks.equivalence_check(spec.flat_defs[d.formula], d.sigma,
                                       _structure(eng, spec, d.bindings, d.sigma), d.outputs,
                                       val, spec.vocabulary)
    raise ValueError(f"unknown task kind {d.kind}")


def _rels(structure, *symbols):
    return tuple(frozenset(structure.rel(s).tuples) for s in symbols)


def _answer_directive(result):
    """A plain value for any directive's result."""
    if isinstance(result, bool) or result is None:
        return result
    if isinstance(result, list):  # mx: the expansions
        return frozenset(_rels(s, *s.vocabulary.names) for s in result)
    if isinstance(result, tuple):  # temp-sat: (universe, witness)
        return _rels(result[1], *result[1].vocabulary.names)
    if hasattr(result, "rows"):  # equiv
        return (result.passed, len(result.rows),
                frozenset((r.temp_mc, r.reach, r.ev) for r in result.rows))
    return _rels(result, *result.vocabulary.names)  # ev: the witness


def _demo_expected():
    """Verdicts of the `demo.mod` directives, worked out by hand.

    pipe = pi{Q}(FullP(P) & Copy(P,Q)) forces Q full and leaves P free, so
    `expandq` has the four structures with Q full and the least witness with
    Q full has P empty; `taut` holds in the empty structure; the equivalence
    check has one hidden variable in two atoms, so four rows, all true.
    """
    subsets = (frozenset(), frozenset({("a",)}), frozenset({("b",)}), FULL)
    return {
        "check_same": True,
        "expandq": frozenset((p, FULL) for p in subsets),
        "find_witness": (frozenset(), FULL),
        "always_fill": True,
        "fill_goal": True,
        "sat_taut": (frozenset(),),
        "three_way": (True, 4, frozenset({(True, True, True)})),
    }


def _graph_expected():
    """`graph.mod`: V = {a,b}, X = the 2-cycle; structures are (V, X, Y, Z, T).
    `witness` evaluates pi{V,X,Z,T}, which leaves Y free: the least witness
    has Y empty."""
    v = frozenset({("a",), ("b",)})
    x = frozenset({("a", "b"), ("b", "a")})
    triples = ref.circuit_colourings(("a", "b"), x)
    coloured = any(z == {"a"} and t == {"b"} for _, z, t in triples)
    return {
        "colourings": frozenset((v, x, y, unary(z), unary(t)) for y, z, t in triples),
        "witness": (v, x, frozenset(), unary("a"), unary("b")) if coloured else None,
    }


# ---------------------------------------------------------------------------
# Structure-level pipeline on 3-vertex digraphs


def _digraph(rng):
    pairs = [(a, b) for a in ELEMENTS3 for b in ELEMENTS3 if a != b]
    return frozenset(p for p in pairs if rng.random() < 0.6)


def _colourings(ctx, x):
    if x not in ctx.colourings:
        ctx.colourings[x] = ref.circuit_colourings(ELEMENTS3, x)
    return ctx.colourings[x]


def _triple(structure):
    y, z, t = _rels(structure, "Y", "Z", "T")
    return y, frozenset(e for (e,) in z), frozenset(e for (e,) in t)


def _valid_pipeline(structure) -> bool:
    """Does a witness structure satisfy HC(V,X,Y) & TwoCol(V,Y,Z,T)?"""
    v, x = _rels(structure, "V", "X")
    y, z, t = _triple(structure)
    vertices = frozenset(e for (e,) in v)
    return (ref.is_hamiltonian_circuit(vertices, x, y)
            and ref.is_two_colouring(vertices, y, z, t))


def _witness_answer(result):
    return (False, None) if result is None else (True, _valid_pipeline(result))


def _pipe_witness(result):
    """ev of pi{V,X,Z,T}: Y is hidden, so the witness's (Z, T) is what counts."""
    return None if result is None else _rels(result, "Z", "T")


def _pipeline_queries(ctx, rng) -> list[Query]:
    core, tasks = ctx.eng.core, ctx.eng.tasks
    rel = core.RelationValue.of
    x = _digraph(rng)
    vertices = [(e,) for e in ELEMENTS3]
    graph = core.Structure.make(ctx.domain3, core.Vocabulary((("V", 1), ("X", 2))),
                                {"V": vertices, "X": x})
    z = frozenset(rng.sample(ELEMENTS3, rng.randrange(1, 3)))
    t = frozenset(ELEMENTS3) - z
    outputs = {"Z": rel(1, [(e,) for e in z]), "T": rel(1, [(e,) for e in t])}
    full = core.Structure.make(ctx.domain3, ctx.pipe_vocab, {
        "V": vertices, "X": x, "Y": [], "Z": outputs["Z"], "T": outputs["T"]})
    val, vocab = ctx.val3, ctx.pipe_vocab

    def exists():
        return any(zz == z and tt == t for _, zz, tt in _colourings(ctx, x))

    return [
        Query("hc-mx", lambda: tasks.mx(ctx.conj, {"V", "X"}, graph, val, vocab),
              lambda res: frozenset(map(_triple, res)), lambda: _colourings(ctx, x)),
        Query("hc-ev", lambda: tasks.ev(ctx.pipe, {"V", "X"}, graph, outputs, val, vocab),
              _pipe_witness,
              lambda: (outputs["Z"].tuples, outputs["T"].tuples) if exists() else None),
        Query("hc-mc", lambda: tasks.mc(ctx.pipe, full, val), bool, exists),
    ]


# ---------------------------------------------------------------------------
# Propositional satisfiability over one-element domains


def gen_prop(rng, depth: int):
    if depth <= 0:
        name = rng.choice(list(PROP_MODULES))
        args = tuple(rng.sample(PROP_SYMBOLS, len(PROP_MODULES[name][0])))
        return ("prop", name, args)
    pick = rng.randrange(3)
    if pick == 2:
        return ("not", gen_prop(rng, depth - 1))
    return ("or" if pick == 0 else "and", gen_prop(rng, depth - 1), gen_prop(rng, depth - 1))


def prop_holds(phi, filled: dict) -> bool:
    """Truth of a propositional formula given which symbols are nonempty."""
    op = phi[0]
    if op == "prop":
        return bool(PROP_MODULES[phi[1]][1](tuple(filled[s] for s in phi[2])))
    if op == "not":
        return not prop_holds(phi[1], filled)
    left, right = prop_holds(phi[1], filled), prop_holds(phi[2], filled)
    return left or right if op == "or" else left and right


def build_prop(S, phi):
    if phi[0] == "prop":
        return S.Prop(phi[1], phi[2])
    if phi[0] == "not":
        return S.Not(build_prop(S, phi[1]))
    cls = S.Or if phi[0] == "or" else S.And
    return cls(build_prop(S, phi[1]), build_prop(S, phi[2]))


def _prop_query(ctx, rng) -> Query:
    phi = gen_prop(rng, 3)
    engine_phi = build_prop(ctx.eng.lmumu, phi)

    def answer(result):
        if result is None:
            return (False, None)
        witness = result[1]
        return (True, prop_holds(phi, {
            s: bool(witness.rel(s).tuples) if s in witness.vocabulary else False
            for s in PROP_SYMBOLS}))

    def expected():
        sat = any(prop_holds(phi, dict(zip(PROP_SYMBOLS, bits)))
                  for bits in itertools.product((False, True), repeat=len(PROP_SYMBOLS)))
        return (True, True) if sat else (False, None)

    return Query("temp-sat-prop",
                 lambda: ctx.eng.tasks.temp_sat_prop(engine_phi, ctx.prop_valuation),
                 answer, expected)


# ---------------------------------------------------------------------------


def _indices(result):
    return frozenset(result.indices())


def _pairs(result):
    return frozenset(result.pairs())


def _bound_query(ctx, rng, kind, body, image) -> Query:
    """Evaluate a body with its module variable bound to a seeded set."""
    eng = ctx.eng
    if kind == "dyn":
        bound = frozenset(p for p in itertools.product(range(4), repeat=2) if rng.random() < 0.5)

        def call():
            edges = eng.dynamic.EdgeSet.from_pairs(ctx.u4, bound)
            return eng.dynamic.eval_dyn(body, ctx.val4.bind("Z", edges), ctx.u4)

        return Query("bound-dyn", call, _pairs, lambda: image(bound))
    bound = frozenset(s for s in STATES8 if rng.random() < 0.5)
    var, evaluate = ("Z", eng.flat.eval_flat) if kind == "flat" else ("X", eng.lmumu.eval_state)

    def call():
        states = eng.core.StructureSet.of_indices(ctx.u8, bound)
        return evaluate(body, ctx.val8.bind(var, states), ctx.u8)

    return Query(f"bound-{kind}", call, _indices, lambda: image(bound))


def make_round(ctx, rng) -> list[Query]:
    eng = ctx.eng
    F, D, S = eng.flat, eng.dynamic, eng.lmumu
    u, val = ctx.pq_universe, ctx.pq_valuation
    queries = []

    for _ in range(20):
        f = gen_flat(rng, 3)
        e = build_flat(F, f)
        queries.append(Query("pq-flat", lambda e=e: F.eval_flat(e, val, u),
                             _indices, lambda f=f: ref.pq_flat(f)))
    for _ in range(20):
        a = gen_proc(rng, 2)
        p = build_proc(eng, a)
        queries.append(Query("pq-dyn", lambda p=p: D.eval_dyn(p, val, u),
                             _pairs, lambda a=a: ref.pq_proc(a)))
    for _ in range(20):
        phi = gen_state(rng, 2)
        s = build_state(eng, phi)
        queries.append(Query("pq-state", lambda s=s: S.eval_state(s, val, u),
                             _indices, lambda phi=phi: ref.pq_state(phi)))

    for kind, body, image in ctx.bodies:
        for _ in range(4 if kind == "dyn" else 2):
            queries.append(_bound_query(ctx, rng, kind, body, image))

    for name, want in ctx.demo_expected.items():
        queries.append(Query(f"demo-{name}",
                             lambda name=name: run_directive(eng, ctx.demo_text, name),
                             _answer_directive, lambda want=want: want))
    for name, want in ctx.graph_expected.items():
        queries.append(Query(f"graph-{name}",
                             lambda name=name: run_directive(eng, ctx.graph_text, name),
                             _answer_directive, lambda want=want: want))

    for _ in range(3):
        queries.extend(_pipeline_queries(ctx, rng))
    for _ in range(2):
        queries.append(Query(
            "hc-sat-bounded",
            lambda: eng.tasks.sat_bounded(ctx.conj, ctx.val3, 3, ctx.pipe_vocab),
            _witness_answer, lambda: (True, True)))
    for _ in range(2):
        queries.append(_prop_query(ctx, rng))
    return queries
