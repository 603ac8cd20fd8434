"""Semi-naive fixpoints: a body linear in its variable is iterated on the
last round's new members only. In every sort it must give the naive loop's
set in the naive loop's number of rounds; any other body keeps the naive
loop, and a non-monotone one is still refused."""

import random

import pytest

from _gen import random_flat, random_proc, random_state
from modalg import dynamic as D
from modalg import flat as F
from modalg import indexsets
from modalg import lmumu as S
from modalg.core import AtomicModule, Domain, Valuation, Vocabulary, build_universe
from modalg.dynamic import EdgeSet, eval_dyn
from modalg.errors import IllegalSelect, NonMonotoneDetected
from modalg.flat import Const, EvalStats, Var, eval_flat, fixpoint_plan, lfp_iterate
from modalg.lmumu import eval_state
from modalg.printer import to_text

KEEPS = [frozenset({"P"}), frozenset({"Q"}), frozenset({"P", "Q"})]


def _flat_path(rng, e):
    side = random_flat(rng, 1)
    return rng.choice([
        lambda: F.Union(side, e), lambda: F.Union(e, side),
        lambda: F.Project(rng.choice(KEEPS), e),
        lambda: F.Select(Var("P"), rng.choice([Var("Q"), Const.of([("a",)])]), e),
    ])()


def _flat_nonlinear(rng, y):
    keep = rng.choice(KEEPS)
    return rng.choice([
        F.Complement(F.Project(keep, F.Complement(y))),  # for all: monotone, not additive
        F.intersect(y, F.Project(keep, y)),
        F.Union(y, F.Project(keep, y)),
    ])


def _dyn_path(rng, e):
    side = random_proc(rng, 1)
    return rng.choice([
        lambda: D.Union(side, e), lambda: D.Union(e, side),
        lambda: D.Compose(side, e), lambda: D.Compose(e, side),
        lambda: D.Project(rng.choice(KEEPS), e),
        lambda: D.Select(Var("P"), Const.of([("a",)]), e),
        lambda: D.Down(e), lambda: D.Up(e), lambda: D.TestEq(e), lambda: D.TestNeq(e),
        lambda: D.Reverse(e), lambda: D.StateTest(S.Diamond(e, random_state(rng, 1))),
    ])()


def _dyn_nonlinear(rng, y):
    side = random_proc(rng, 1)
    return rng.choice([
        D.Union(side, D.Compose(y, y)),
        D.Union(side, D.Count(y, 1, 2)),
        D.Union(side, D.Complement(D.Project(rng.choice(KEEPS), D.Complement(y)))),
    ])


def _state_path(rng, e):
    side = random_state(rng, 1)
    return rng.choice([
        lambda: S.Or(side, e), lambda: S.Or(e, side), lambda: S.And(side, e),
        lambda: S.Diamond(random_proc(rng, 1), e),
        lambda: S.Diamond(D.StateTest(e), side),
    ])()


def _state_nonlinear(rng, y):
    side, proc = random_state(rng, 1), random_proc(rng, 1)
    return rng.choice([
        S.Or(side, S.Box(proc, y)),
        S.Or(side, S.And(y, S.Diamond(proc, y))),
    ])


def _naive_edges(body, var, val, u):
    """The naive loop over edge sets, counting rounds."""
    current, rounds = EdgeSet.empty(u), 0
    while True:
        rounds += 1
        nxt = eval_dyn(body, val.bind(var, current), u)
        if nxt == current:
            return current, rounds
        current = nxt


def _naive_states(evaluate, body, var, val, u):
    stats = EvalStats()
    value = lfp_iterate(lambda s: evaluate(body, val.bind(var, s), u), u, stats)
    return value, stats.fixpoint_iterations["<anonymous>"]


# sort -> (Lfp class, variable class, linear wrapper, non-linear body,
#          evaluator, naive reference, the evaluator's recursion entry)
SORTS = {
    "flat": (F.Lfp, F.ModuleVar, _flat_path, _flat_nonlinear, eval_flat,
             lambda body, val, u: _naive_states(eval_flat, body, "Y", val, u), (F, "_eval")),
    "dyn": (D.Lfp, D.ModuleVar, _dyn_path, _dyn_nonlinear, eval_dyn,
            lambda body, val, u: _naive_edges(body, "Y", val, u), (D, "_eval_dyn")),
    "state": (S.Lfp, S.SetVar, _state_path, _state_nonlinear, eval_state,
              lambda body, val, u: _naive_states(eval_state, body, "Y", val, u), (F, "_eval")),
}


def _chain_setup():
    """{a,b} with unary P, Q, R, S (256 states) and the copy chain P->Q->R->S,
    whose closure takes several rounds."""
    domain = Domain(("a", "b"))
    u = build_universe(domain, Vocabulary(tuple((s, 1) for s in "PQRS")))
    val = Valuation(domain, {}, {
        "Copy": AtomicModule.builtin("Copy", [("A", 1), ("B", 1)],
                                     fn=lambda d, rels: rels[0] == rels[1]),
        "Ne": AtomicModule.builtin("Ne", [("A", 1)], fn=lambda d, rels: bool(rels[0].tuples)),
    })
    chain = D.Union(D.Union(*[D.Action("Copy", (s, t), frozenset({s}), frozenset({t}))
                              for s, t in ("PQ", "QR")]),
                    D.Action("Copy", ("R", "S"), frozenset({"R"}), frozenset({"S"})))
    return u, val, chain


def _chain_bodies(sort, chain):
    """Linear bodies of several rounds on _chain_setup."""
    if sort == "flat":
        y = F.ModuleVar("Y")
        seed = F.intersect(F.Complement(F.Atom("Ne", ("P",))), F.Complement(F.Atom("Ne", ("R",))))
        return [F.Union(seed, F.Project(frozenset("PQS"), F.Select(Var("P"), Var("R"), y))),
                F.Union(F.Project(frozenset("PQS"), F.Select(Var("Q"), Var("R"), y)), seed)]
    if sort == "dyn":
        y = D.ModuleVar("Y")
        return [D.Union(D.Diagonal(), D.Compose(y, chain)),
                D.Union(D.Diagonal(), D.Compose(chain, y)),
                D.Union(D.Test("Ne", ("P",)), D.Project(frozenset("PQRS"), D.Compose(chain, y)))]
    y = S.SetVar("Y")
    goal = S.Prop("Ne", ("S",))
    return [S.Or(goal, S.Diamond(chain, y)),
            S.Or(S.Diamond(chain, y), S.And(goal, S.Not(S.Prop("Ne", ("R",))))),
            S.Or(goal, S.Diamond(D.Compose(chain, D.StateTest(y)), S.Prop("Ne", ("P",))))]


def _check(monkeypatch, node, naive, evaluate, entry, val, u):
    """node's value and round count equal the naive loop's; a body evaluated
    more often than the naive loop's rounds fails at once rather than loop."""
    try:
        want, rounds = naive(node.body, val, u)
    except IllegalSelect:
        with pytest.raises(IllegalSelect):
            evaluate(node, val, u)
        return 0
    module, name = entry
    original = getattr(module, name)
    seen = [0]

    def watched(sub, ctx, v):
        if sub is node.body:
            seen[0] += 1
            assert seen[0] <= rounds, f"more rounds than the naive loop's {rounds}"
        return original(sub, ctx, v)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, watched)
        stats = EvalStats()
        assert evaluate(node, val, u, stats) == want, to_text(node)
    assert stats.fixpoint_iterations[to_text(node)] == rounds, to_text(node)
    return rounds


@pytest.mark.parametrize("sort", sorted(SORTS))
def test_semi_naive_matches_naive(pq, monkeypatch, sort):
    _, _, u, val = pq
    lfp, ref, path, nonlinear, evaluate, naive, entry = SORTS[sort]
    rng = random.Random(97)
    for k in range(30):
        linear = k % 3 != 2
        body = ref("Y")
        if linear:
            for _ in range(rng.randrange(1, 4)):
                body = path(rng, body)
        else:
            body = nonlinear(rng, body)
        node = lfp("Y", body)
        assert fixpoint_plan(node)[0] is linear, to_text(node)
        _check(monkeypatch, node, naive, evaluate, entry, val, u)
    u, val, chain = _chain_setup()
    for body in _chain_bodies(sort, chain):
        node = lfp("Y", body)
        assert fixpoint_plan(node)[0] is True, to_text(node)
        assert _check(monkeypatch, node, naive, evaluate, entry, val, u) >= 3


@pytest.mark.parametrize("sort", sorted(SORTS))
def test_non_monotone_body_refused(pq, sort):
    _, _, u, val = pq
    lfp, ref, _, _, evaluate, _, _ = SORTS[sort]
    negate = {"flat": F.Complement, "dyn": D.Complement, "state": S.Not}[sort]
    node = lfp("Y", negate(ref("Y")))
    assert fixpoint_plan(node)[0] is False
    with pytest.raises(NonMonotoneDetected) as caught:
        evaluate(node, val, u)
    assert caught.value.node is node
    assert str(caught.value).count(to_text(node)) == 1


def test_closed_process_under_modality_built_once(monkeypatch):
    # <p ; step> X in a state fixpoint, p closed. A star is followed by the
    # image as a fixpoint of state sets and builds no pairs. A closed process
    # the image hands to its pair fallback in every round, here the mirrored
    # star mu Z . diag | copy ; Z, is iterated once (one composition per
    # round of its own) and its diagonal and action, one inertia call each,
    # are built once.
    u, val, _ = _chain_setup()
    copy_pq = D.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))
    step = D.Action("Copy", ("Q", "R"), frozenset({"Q"}), frozenset({"R"}))
    mirrored = D.Lfp("Z", D.Union(D.Diagonal(), D.Compose(copy_pq, D.ModuleVar("Z"))))
    built = {"inertia": 0, "compose": 0}
    for name in built:
        original = getattr(D, name)
        monkeypatch.setattr(D, name, lambda *args, _name=name, _fn=original: (
            built.__setitem__(_name, built[_name] + 1) or _fn(*args)))
    for proc in (D.kleene_star(copy_pq), mirrored):
        built.update(dict.fromkeys(built, 0))
        node = S.Lfp("Y", S.Or(S.Prop("Ne", ("R",)),
                               S.Diamond(D.Compose(proc, step), S.SetVar("Y"))))
        stats = EvalStats()
        eval_state(node, val, u, stats)
        rounds = stats.fixpoint_iterations
        assert rounds[to_text(node)] >= 3 and rounds[to_text(proc)] >= 2
        if proc is mirrored:
            assert built == {"inertia": 2, "compose": rounds[to_text(proc)]}
        else:
            assert built == {"inertia": 0, "compose": 0}


def test_fixed_operand_indexed_once(monkeypatch):
    # A composition looks pairs up in an index of one operand, kept in that
    # pair set. The star body's hoisted chain, met in every round, is
    # indexed once, as the right operand of Z ; chain and as the left one of
    # chain ; Z, and so is a^{1,3}'s body, met in each power. The diagonal
    # and the five actions take one inertia call each, and each round or
    # power makes one composition.
    def copy(s, t):
        return D.Action("Copy", (s, t), frozenset({s}), frozenset({t}))

    domain = Domain(("a",))
    symbols = [f"P{k}" for k in range(6)]
    u = build_universe(domain, Vocabulary(tuple((s, 1) for s in symbols)))
    val = Valuation(domain, {}, {"Copy": AtomicModule.builtin(
        "Copy", [("A", 1), ("B", 1)], fn=lambda d, r: r[0] == r[1])})
    chain = copy(symbols[0], symbols[1])
    for s, t in zip(symbols[1:], symbols[2:]):
        chain = D.Union(chain, copy(s, t))
    chain_pairs = eval_dyn(chain, val, u).iset
    built = {"inertia": 0, "compose": 0}
    for name in built:
        original = getattr(D, name)
        monkeypatch.setattr(D, name, lambda *args, _name=name, _fn=original: (
            built.__setitem__(_name, built[_name] + 1) or _fn(*args)))
    indexed = []
    monkeypatch.setattr(indexsets, "_rows", lambda pairs, side, _fn=indexsets._rows: (
        indexed.append((pairs, side)) or _fn(pairs, side)))
    z = D.ModuleVar("Z")
    for node, side in ((D.kleene_star(chain), 1),
                       (D.Lfp("Z", D.Union(D.Diagonal(), D.Compose(chain, z))), 0)):
        built.update(dict.fromkeys(built, 0))
        indexed.clear()
        stats = EvalStats()
        eval_dyn(node, val, u, stats)
        rounds = stats.fixpoint_iterations[to_text(node)]
        assert rounds >= 5
        assert built == {"inertia": 6, "compose": rounds}
        assert [(pairs == chain_pairs, s) for pairs, s in indexed] == [(True, side)]
    built.update(dict.fromkeys(built, 0))
    indexed.clear()
    eval_dyn(D.Count(chain, 1, 3), val, u)
    assert built == {"inertia": 5, "compose": 2}
    assert [(pairs == chain_pairs, s) for pairs, s in indexed] == [(True, 1)]


def test_reverse_flipped_once_per_node():
    # mu X . Ne(P_last) | <rev (Copy(in Q; out R))* ; chain> X takes one
    # round per link of the copy chain P0 -> ... -> P_last. Each rev node
    # flips its operand once, so the star under it is planned once (as is
    # the outer fixpoint) however many rounds the outer one takes.
    def copy(s, t):
        return D.Action("Copy", (s, t), frozenset({s}), frozenset({t}))

    domain = Domain(("a",))
    rounds, plans = [], []
    for k in (3, 6):
        symbols = [f"P{i}" for i in range(k)]
        u = build_universe(domain, Vocabulary(tuple((s, 1) for s in symbols + ["Q", "R"])))
        val = Valuation(domain, {}, {
            "Copy": AtomicModule.builtin("Copy", [("A", 1), ("B", 1)], fn=lambda d, r: r[0] == r[1]),
            "Ne": AtomicModule.builtin("Ne", [("A", 1)], fn=lambda d, r: bool(r[0].tuples))})
        chain = copy(symbols[0], symbols[1])
        for s, t in zip(symbols[1:], symbols[2:]):
            chain = D.Union(chain, copy(s, t))
        proc = D.Compose(D.Reverse(D.kleene_star(copy("Q", "R"))), chain)
        node = S.Lfp("X", S.Or(S.Prop("Ne", (symbols[-1],)), S.Diamond(proc, S.SetVar("X"))))
        stats = EvalStats()
        ctx = F.EvalContext(u, stats)
        F._eval(node, ctx, val)
        rounds.append(stats.fixpoint_iterations[to_text(node)])
        plans.append(len(ctx.plans))
    assert rounds == [4, 7] and plans == [2, 2]
