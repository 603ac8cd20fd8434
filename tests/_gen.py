"""Seeded random formula generators used by the property and acceptance tests."""

import random

from modalg import dynamic, flat, lmumu
from modalg.core import AtomicModule, Domain, Valuation, Vocabulary, propositional_module
from modalg.flat import Const, Var

SETP = dynamic.Action("FullP", ("P",), frozenset(), frozenset({"P"}))
SETQ_COPY = dynamic.Action("Copy", ("P", "Q"), frozenset({"P"}), frozenset({"Q"}))
TEST_FULLP = dynamic.Test("FullP", ("P",))
PROP_FULLP = lmumu.Prop("FullP", ("P",))
PROP_EMPTYQ = lmumu.Prop("EmptyQ", ("Q",))


def three_element_setup():
    """Domain {a,b,c} with P unary (3 bits) and Q binary (9 bits): 4,096
    structures. The modules take random_flat's names; Copy holds when Q is
    the diagonal of P."""
    domain = Domain(("a", "b", "c"))
    vocab = Vocabulary((("P", 1), ("Q", 2)))
    modules = {
        "FullP": AtomicModule.builtin("FullP", [("P0", 1)],
                                      fn=lambda d, r: len(r[0].tuples) == len(d)),
        "EmptyQ": AtomicModule.builtin("EmptyQ", [("Q0", 2)], fn=lambda d, r: not r[0].tuples),
        "NonemptyP": AtomicModule.builtin("NonemptyP", [("N0", 1)],
                                          fn=lambda d, r: bool(r[0].tuples)),
        "Copy": AtomicModule.builtin(
            "Copy", [("A", 1), ("B", 2)],
            fn=lambda d, r: r[1].tuples == {(x, x) for (x,) in r[0].tuples}),
    }
    return domain, vocab, Valuation(domain, {}, modules)


def random_flat(rng: random.Random, depth: int) -> flat.FlatExpr:
    """Flat formulas over the P/Q universe; fixed points always positive."""
    if depth <= 0:
        return rng.choice(
            [
                flat.Bottom(),
                flat.Atom("FullP", ("P",)),
                flat.Atom("EmptyQ", ("Q",)),
                flat.Atom("NonemptyP", ("P",)),
                flat.Atom("Copy", ("P", "Q")),
            ]
        )
    pick = rng.randrange(7)
    if pick == 0:
        return flat.Union(random_flat(rng, depth - 1), random_flat(rng, depth - 1))
    if pick == 1:
        return flat.Complement(random_flat(rng, depth - 1))
    if pick == 2:
        keep = rng.choice([frozenset({"P"}), frozenset({"Q"}), frozenset({"P", "Q"})])
        inner = flat.intersect(random_flat(rng, depth - 1), flat.Atom("Copy", ("P", "Q")))
        return flat.Project(keep, inner)
    if pick == 3:
        right = rng.choice([Var("Q"), Const.of([(("a",))])])
        return flat.Select(Var("P"), right, random_flat(rng, depth - 1))
    if pick == 4:
        base = random_flat(rng, depth - 1)
        return flat.Lfp("Z", flat.Union(base, flat.ModuleVar("Z")))
    return flat.intersect(random_flat(rng, depth - 1), random_flat(rng, depth - 1))


def random_proc(rng: random.Random, depth: int) -> dynamic.ProcExpr:
    """Process formulas over the P/Q universe."""
    if depth <= 0:
        return rng.choice(
            [dynamic.Bottom(), dynamic.Diagonal(), SETP, SETQ_COPY, TEST_FULLP,
             dynamic.ConstTest("P", Const.of([("a",)]), True)]
        )
    pick = rng.randrange(9)
    if pick == 0:
        return dynamic.Union(random_proc(rng, depth - 1), random_proc(rng, depth - 1))
    if pick == 1:
        return dynamic.Compose(random_proc(rng, depth - 1), random_proc(rng, depth - 1))
    if pick == 2:
        return dynamic.Complement(random_proc(rng, depth - 1))
    if pick == 3:
        return dynamic.Down(random_proc(rng, depth - 1))
    if pick == 4:
        return dynamic.Up(random_proc(rng, depth - 1))
    if pick == 5:
        return dynamic.UnaryNeg(random_proc(rng, depth - 1))
    if pick == 6:
        return dynamic.Count(random_proc(rng, depth - 1), rng.randrange(2), rng.randrange(2, 4))
    if pick == 7:
        return dynamic.TestEq(random_proc(rng, depth - 1))
    return dynamic.Reverse(random_proc(rng, depth - 1))


def random_state(rng: random.Random, depth: int) -> lmumu.StateExpr:
    """State formulas (depth-bounded) with positive fixed points and process
    subterms that may contain state tests."""
    if depth <= 0:
        return rng.choice([PROP_FULLP, PROP_EMPTYQ])
    pick = rng.randrange(8)
    if pick == 0:
        return lmumu.Or(random_state(rng, depth - 1), random_state(rng, depth - 1))
    if pick == 1:
        return lmumu.And(random_state(rng, depth - 1), random_state(rng, depth - 1))
    if pick == 2:
        return lmumu.Not(random_state(rng, depth - 1))
    if pick == 3:
        return lmumu.Diamond(random_proc_with_tests(rng, depth - 1), random_state(rng, depth - 1))
    if pick == 4:
        return lmumu.Box(random_proc_with_tests(rng, depth - 1), random_state(rng, depth - 1))
    if pick == 5:
        base = random_state(rng, depth - 1)
        step = lmumu.Diamond(random_proc_with_tests(rng, depth - 1), lmumu.SetVar("X"))
        return lmumu.Lfp("X", lmumu.Or(base, step))
    return random_state(rng, depth - 1)


# Process leaves valid on the P/Q universe and on three_element_setup's
ANY_PROC_LEAVES = (
    dynamic.Bottom(), dynamic.Diagonal(), TEST_FULLP, dynamic.Test("EmptyQ", ("Q",)),
    dynamic.Test("NonemptyP", ("P",)), SETP, SETQ_COPY,
    dynamic.Action("EmptyQ", ("Q",), frozenset(), frozenset({"Q"})),
    dynamic.ConstTest("P", Const.of([("a",)]), True),
    dynamic.ConstTest("P", Const.of([("a",)]), False),
)
# selection operands: inputs, outputs or feedback depending on the body
ANY_SELECT_OPERANDS = (
    (Var("P"), Const.of([("a",)])), (Const.of([("a",)]), Var("P")),
    (Var("P"), Var("Q")), (Var("Q"), Var("P")),
)
KEEPS = (frozenset(), frozenset({"P"}), frozenset({"Q"}), frozenset({"P", "Q"}))


def random_any_proc(
    rng: random.Random, depth: int, bound: tuple[str, ...] = (), keeps=KEEPS
) -> dynamic.ProcExpr:
    """Process formulas using every ProcExpr class, valid on the P/Q universe
    and on three_element_setup's; `bound` names module variables in scope,
    `keeps` the variable sets a projection may keep."""
    if depth <= 0:
        if bound and rng.random() < 0.3:
            return dynamic.ModuleVar(rng.choice(bound))
        return rng.choice(ANY_PROC_LEAVES)

    def sub(bound=bound) -> dynamic.ProcExpr:
        return random_any_proc(rng, depth - 1, bound, keeps)

    pick = rng.randrange(14)
    if pick == 0:
        return dynamic.Union(sub(), sub())
    if pick == 1:
        return dynamic.Compose(sub(), sub())
    if pick == 2:
        return dynamic.Complement(sub())
    if pick == 3:
        return dynamic.Project(rng.choice(keeps), sub())
    if pick == 4:
        left, right = rng.choice(ANY_SELECT_OPERANDS)
        return dynamic.Select(left, right, sub())
    if pick == 5:
        # a star-like body, linear in Z, or Z ; Z
        z = f"Z{len(bound)}"
        step, base = sub(bound + (z,)), sub()
        shape = rng.randrange(3)
        var = dynamic.ModuleVar(z)
        loop = [dynamic.Compose(var, step), dynamic.Compose(step, var),
                dynamic.Compose(var, var)][shape]
        return dynamic.Lfp(z, dynamic.Union(base, loop))
    if pick in (6, 7, 8):
        return (dynamic.Down, dynamic.Up, dynamic.UnaryNeg)[pick - 6](sub())
    if pick == 9:
        low = rng.randrange(3)
        return dynamic.Count(sub(), low, low + rng.randrange(3))
    if pick in (10, 11, 12):
        return (dynamic.Reverse, dynamic.TestEq, dynamic.TestNeq)[pick - 10](sub())
    phi = rng.choice([PROP_FULLP, lmumu.Not(PROP_EMPTYQ),
                      lmumu.Diamond(rng.choice(ANY_PROC_LEAVES), PROP_FULLP)])
    return dynamic.StateTest(phi)


def random_proc_with_tests(rng: random.Random, depth: int) -> dynamic.ProcExpr:
    if depth > 0 and rng.random() < 0.3:
        return dynamic.StateTest(random_state(rng, depth - 1))
    return random_proc(rng, min(depth, 2))


# ---------------------------------------------------------------------------
# Propositional fragment (one-element-domain collapse)


def propositional_setup(rng: random.Random, n_vars: int = 3, n_modules: int = 4):
    """Random propositional modules over unary variables p1..pn."""
    variables = [f"p{i + 1}" for i in range(n_vars)]
    modules = {}
    for k in range(n_modules):
        width = rng.randrange(1, n_vars + 1)
        used = rng.sample(variables, width)
        table = frozenset(
            tuple(rng.random() < 0.5 for _ in range(width))
            for _ in range(rng.randrange(1, 2 ** width + 1))
        )
        name = f"m{k + 1}"
        modules[name] = propositional_module(name, used, lambda bits, _t=table: bits in _t)
    domain = Domain(("a", "b"))
    return variables, modules, Valuation(domain, {}, modules)


def random_prop_proc(rng: random.Random, modules: dict, depth: int) -> dynamic.ProcExpr:
    """Process fragment for which the one-element collapse is sound: no raw
    complement, no selections."""
    names = sorted(modules)
    if depth <= 0:
        name = rng.choice(names)
        args = tuple(var for var, _ in modules[name].vvoc)
        if rng.random() < 0.4:
            return dynamic.Test(name, args)
        outs = frozenset(a for a in args if rng.random() < 0.6)
        return dynamic.Action(name, args, frozenset(args) - outs, outs)
    pick = rng.randrange(6)
    if pick == 0:
        return dynamic.Union(random_prop_proc(rng, modules, depth - 1),
                             random_prop_proc(rng, modules, depth - 1))
    if pick == 1:
        return dynamic.Compose(random_prop_proc(rng, modules, depth - 1),
                               random_prop_proc(rng, modules, depth - 1))
    if pick == 2:
        return dynamic.Diagonal()
    if pick == 3:
        return dynamic.UnaryNeg(random_prop_proc(rng, modules, depth - 1))
    if pick == 4:
        return dynamic.kleene_star(random_prop_proc(rng, modules, depth - 1))
    return dynamic.StateTest(random_prop_state(rng, modules, depth - 1))


def random_prop_state(rng: random.Random, modules: dict, depth: int) -> lmumu.StateExpr:
    names = sorted(modules)
    if depth <= 0:
        name = rng.choice(names)
        return lmumu.Prop(name, tuple(var for var, _ in modules[name].vvoc))
    pick = rng.randrange(7)
    if pick == 0:
        return lmumu.Or(random_prop_state(rng, modules, depth - 1),
                        random_prop_state(rng, modules, depth - 1))
    if pick == 1:
        return lmumu.And(random_prop_state(rng, modules, depth - 1),
                         random_prop_state(rng, modules, depth - 1))
    if pick == 2:
        return lmumu.Not(random_prop_state(rng, modules, depth - 1))
    if pick == 3:
        return lmumu.Diamond(random_prop_proc(rng, modules, depth - 1),
                             random_prop_state(rng, modules, depth - 1))
    if pick == 4:
        return lmumu.Box(random_prop_proc(rng, modules, depth - 1),
                         random_prop_state(rng, modules, depth - 1))
    if pick == 5:
        base = random_prop_state(rng, modules, depth - 1)
        step = lmumu.Diamond(random_prop_proc(rng, modules, depth - 1), lmumu.SetVar("X"))
        return lmumu.Lfp("X", lmumu.Or(base, step))
    return random_prop_state(rng, modules, depth - 1)
