"""Two-sorted syntax (state formulae over process formulae), its evaluation,
the translation into the minimal one-sorted syntax, and the existential-rule
embedding with a bounded chase.

State formulas are the lifted algebra read on states: bot, set variables
(SetVar), or (Or) and mu (Lfp) are flat's classes, flat._eval evaluates
them, and this module declares only the state-only nodes.

<a> phi and [a] phi are evaluated by the backward image of a state set,
`image(a, X, 0)`, and reachability by the forward one, `image(a, X, 1)`
(0 = source, 1 = target, as in indexsets.restrict and dynamic.select_side).
The image reads a process in its action normal form where it has one
(dynamic.action_form, eval_dyn's atom rule too), and follows union,
composition, counting, reverse, selections on inputs or outputs, stars
(`mu Z . diag | Z ; b`, iterated on state sets) and the diagonals towards
its side (dn/neg backward, up forward) down to state sets without building
pairs; only the form rule, composition's order, selections and the
diagonals read the side.
Every other operator goes through one fallback, which builds a's pairs
(dynamic._eval_dyn) and takes their image (indexsets.image). State fixed
points share flat._rounds: `mu X . goal | <a> X` is linear in X
and iterated on each round's new states only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union as TUnion

from . import dynamic, indexsets
from .core import Structure, StructureSet, Universe, Valuation
from .errors import UnsafeRule
# the operators shared with the flat algebra, re-exported under their state names
from .flat import Bottom, Lfp, ModuleVar as SetVar, Union as Or
from .flat import EvalContext, EvalStats, ProcExpr, StateExpr, _eval, _named, _select_filter
from .indexsets import IndexSet
from .syntax import map_children, walk


@dataclass(frozen=True)
class Prop(StateExpr):
    module: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not(StateExpr):
    inner: StateExpr


@dataclass(frozen=True)
class And(StateExpr):
    additive = ("left", "right")
    left: StateExpr
    right: StateExpr


@dataclass(frozen=True)
class Diamond(StateExpr):
    additive = ("process", "inner")
    crossing = ("process",)
    process: ProcExpr
    inner: StateExpr


@dataclass(frozen=True)
class Box(StateExpr):
    """[a] phi = !<a>!phi."""

    crossing = ("process",)
    process: ProcExpr
    inner: StateExpr


# the tautology: built from no module, it is defined in every vocabulary
TOP = Not(Bottom())


def state_vars(phi: StateExpr) -> frozenset[str]:
    """Relational variables mentioned anywhere in the formula."""
    out: set[str] = set()
    for node in walk(phi, within_sort=True):
        if isinstance(node, Prop):
            out.update(node.args)
        elif isinstance(node, (Diamond, Box)):
            out.update(*dynamic.io_vocab(node.process))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Evaluation


def eval_state(
    phi: StateExpr,
    valuation: Valuation,
    universe: Universe,
    stats: Optional[EvalStats] = None,
) -> StructureSet:
    """The set of states satisfying the formula."""
    return StructureSet(universe, _eval(phi, EvalContext(universe, stats), valuation))


def _star_step(a: ProcExpr) -> Optional[ProcExpr]:
    """b when a has kleene_star(b)'s shape, mu Z . diag | Z ; b with Z not
    free in b; else None."""
    if not (isinstance(a, Lfp) and isinstance(a.body, Or) and a.body.left == dynamic.Diagonal()):
        return None
    loop = a.body.right
    if (isinstance(loop, dynamic.Compose) and loop.left == SetVar(a.var)
            and a.var not in dynamic.module_vars_of(loop.right)):
        return loop.right
    return None


def _star(a: ProcExpr, b: ProcExpr, ctx: EvalContext, val: Valuation, states: IndexSet,
          side: int) -> IndexSet:
    """image(b*, X) = mu Y . X | image(b, Y) for a = b*, in a's fixpoint
    loop: on each round's new states, its rounds recorded under a's label."""
    return ctx.iterate(a, lambda delta: states.union(image(b, ctx, val, delta, side)),
                       IndexSet(ctx.universe.size))


def _count(a: ProcExpr, ctx: EvalContext, val: Valuation, states: IndexSet,
           side: int) -> IndexSet:
    """The union of image^k(X) for k = low..high, where image^k(X) is the
    image under a.inner's k-th power. The body is applied even when
    high = 0, so its errors and statistics are eval_dyn's. It stops once an
    image in the range repeats one in the range: the later ones cycle
    through images already taken."""
    taken = {states} if a.low == 0 else set()
    acc = states if a.low == 0 else IndexSet(ctx.universe.size)
    for k in range(1, max(a.high, 1) + 1):
        states = image(a.inner, ctx, val, states, side)
        if a.low <= k <= a.high:
            if states in taken:
                break
            taken.add(states)
            acc = acc.union(states)
    return acc


@_named
def image(a: ProcExpr, ctx: EvalContext, val: Valuation, states: IndexSet,
          side: int) -> IndexSet:
    """{i : (i, j) in a for some j in states} for side 0 (backward: all that
    <a> and [a] need of a), {j : (i, j) in a for some i in states} for
    side 1 (forward: all that reach needs).

    The operators the module docstring lists are followed with no pair built
    (Burch, Clarke, McMillan et al., LICS 1990). The others (pair-level
    Complement and Project of what is not an action form, feedback Select,
    TestEq/TestNeq, the diagonals away from the side, ModuleVar, Lfp other
    than a star) go through the one fallback: a's pairs, then their image.
    """
    D = dynamic
    form = D.action_form(a, ctx, val)
    if form is not None:
        ext, out = form
        if side == 0:
            return ext.intersection(states).project(out)
        return ext.intersection(states.project(out))
    if isinstance(a, D.Union):
        return image(a.left, ctx, val, states, side).union(image(a.right, ctx, val, states, side))
    if isinstance(a, D.Compose):
        first, then = (a.right, a.left) if side == 0 else (a.left, a.right)
        return image(then, ctx, val, image(first, ctx, val, states, side), side)
    if isinstance(a, D.Count):
        return _count(a, ctx, val, states, side)
    if isinstance(a, (D.Down, D.UnaryNeg, D.Up)) and isinstance(a, D.Up) == side:
        ends = image(a.inner, ctx, val, IndexSet.full(ctx.universe.size), side)
        return (ends.complement() if isinstance(a, D.UnaryNeg) else ends).intersection(states)
    if isinstance(a, D.Reverse):
        return image(a.flipped, ctx, val, states, side)
    if isinstance(a, D.Select):
        selected = D.select_side(a)
        if selected is not None:
            keep = _select_filter(a.left, a.right, val, ctx.universe)
            if selected == side:
                return image(a.inner, ctx, val, states, side).intersection(keep)
            return image(a.inner, ctx, val, states.intersection(keep), side)
    b = _star_step(a)
    if b is not None:
        return _star(a, b, ctx, val, states, side)
    return indexsets.image(dynamic._eval_dyn(a, ctx, val), states, side)


# ---------------------------------------------------------------------------
# Two-sorted -> minimal syntax


def translate_two_sorted(phi: StateExpr) -> ProcExpr:
    """Translate a state formula into the one-sorted calculus.

    Contract: B satisfies phi iff (B, B) satisfies dn(translation). Monadic
    variables become binary module variables used in diagonal position.
    """
    if isinstance(phi, Prop):
        return dynamic.Test(phi.module, phi.args)
    if isinstance(phi, (Bottom, SetVar)):
        return phi
    if isinstance(phi, Or):
        return dynamic.Union(translate_two_sorted(phi.left), translate_two_sorted(phi.right))
    if isinstance(phi, And):
        # phi1 & phi2 = !(!phi1 | !phi2)
        return dynamic.UnaryNeg(
            dynamic.Union(
                dynamic.UnaryNeg(translate_two_sorted(phi.left)),
                dynamic.UnaryNeg(translate_two_sorted(phi.right)),
            )
        )
    if isinstance(phi, Not):
        return dynamic.UnaryNeg(translate_two_sorted(phi.inner))
    if isinstance(phi, Diamond):
        return dynamic.Compose(
            translate_process(phi.process), translate_two_sorted(phi.inner)
        )
    if isinstance(phi, Box):
        # [a] phi = !<a>!phi
        return dynamic.UnaryNeg(
            dynamic.Compose(
                translate_process(phi.process),
                dynamic.UnaryNeg(translate_two_sorted(phi.inner)),
            )
        )
    if isinstance(phi, Lfp):
        return dynamic.Lfp(phi.var, dynamic.Down(translate_two_sorted(phi.body)))
    raise TypeError(f"not a state expression: {phi!r}")


def translate_process(a: ProcExpr) -> ProcExpr:
    """Rewrite state tests phi? into dn(phi^); everything else is unchanged."""
    if isinstance(a, dynamic.StateTest):
        return dynamic.Down(translate_two_sorted(a.phi))
    return map_children(a, translate_process)


def eval_equality_test(
    a1: ProcExpr,
    a2: ProcExpr,
    valuation: Valuation,
    universe: Universe,
    stats: Optional[EvalStats] = None,
) -> StructureSet:
    """States from which some executions of a1 and a2 reach the same structure.

    Sugar expansion of <a1 == a2> top: a diamond over the intersection of the
    two processes.
    """
    both = dynamic.intersect(a1, a2)
    return eval_state(Diamond(both, TOP), valuation, universe, stats)


# ---------------------------------------------------------------------------
# Existential rules (Datalog with existentials in rule heads)


@dataclass(frozen=True)
class DatalogAtom:
    """Predicate atom; arguments starting with an uppercase letter are
    variables, anything else is a constant."""

    pred: str
    args: tuple[str, ...]

    def variables(self) -> frozenset[str]:
        return frozenset(a for a in self.args if _is_var(a))

    def __str__(self) -> str:
        return f"{self.pred}({','.join(self.args)})"


def _is_var(token: str) -> bool:
    return token[:1].isupper()


@dataclass(frozen=True)
class DatalogRule:
    body: tuple[DatalogAtom, ...]
    head: tuple[DatalogAtom, ...]
    exist_vars: frozenset[str] = frozenset()

    def __post_init__(self):
        body_vars = frozenset().union(*(a.variables() for a in self.body)) if self.body else frozenset()
        head_vars = frozenset().union(*(a.variables() for a in self.head)) if self.head else frozenset()
        if self.exist_vars & body_vars:
            raise UnsafeRule(f"existential variables {sorted(self.exist_vars & body_vars)} occur in the body")
        missing = head_vars - self.exist_vars - body_vars
        if missing:
            raise UnsafeRule(f"head variables {sorted(missing)} are neither bound by the body nor existential")


@dataclass(frozen=True)
class DatalogProgram:
    rules: tuple[DatalogRule, ...]

    def predicates(self) -> dict[str, int]:
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in rule.body + rule.head:
                if arities.setdefault(atom.pred, len(atom.args)) != len(atom.args):
                    raise UnsafeRule(f"predicate {atom.pred} used at two arities")
        return arities


def datalog_translate(program: DatalogProgram) -> StateExpr:
    """Render an existential-rule program as a modal formula.

    Each rule becomes an implication; binary predicates turn into modalities
    whose input position is the frontier variable (the one shared with the
    body) and whose output is the existential. Supported shapes: existential
    rules with one binary head atom (optionally chained with a unary atom
    through the existential), and binary-guarded unary heads. Anything else
    raises UnsafeRule.
    """
    arities = program.predicates()
    for pred, arity in arities.items():
        if arity not in (1, 2):
            raise UnsafeRule(f"predicate {pred} has arity {arity}; only 1 and 2 are supported")
    io_split: dict[str, tuple[int, int]] = {}  # pred -> (in position, out position)
    for rule in program.rules:
        for atom in rule.head:
            if len(atom.args) == 2 and rule.exist_vars:
                positions = [i for i, arg in enumerate(atom.args) if arg in rule.exist_vars]
                if len(positions) == 1:
                    out_pos = positions[0]
                    io_split.setdefault(atom.pred, (1 - out_pos, out_pos))

    conjuncts: list[StateExpr] = []
    for rule in program.rules:
        conjuncts.append(_translate_rule(rule, io_split))
    if not conjuncts:
        raise UnsafeRule("empty program")
    result = conjuncts[0]
    for c in conjuncts[1:]:
        result = And(result, c)
    return result


def _implies(antecedent: StateExpr, consequent: StateExpr) -> StateExpr:
    return Or(Not(antecedent), consequent)


def _translate_rule(rule: DatalogRule, io_split: Mapping[str, tuple[int, int]]) -> StateExpr:
    if not rule.body or not rule.head:
        raise UnsafeRule("rules need a body and a head")
    binary_heads = [a for a in rule.head if len(a.args) == 2]
    unary_heads = [a for a in rule.head if len(a.args) == 1]

    if rule.exist_vars:
        if len(rule.exist_vars) != 1 or len(binary_heads) != 1 or len(unary_heads) > 1:
            raise UnsafeRule(
                "existential rules must have one existential, one binary head atom "
                "and at most one unary head atom"
            )
        (exist,) = rule.exist_vars
        modality_atom = binary_heads[0]
        in_pos, out_pos = io_split[modality_atom.pred]
        if modality_atom.args[out_pos] != exist:
            raise UnsafeRule(f"existential {exist} is not in the output position of {modality_atom}")
        action = dynamic.Action(
            modality_atom.pred,
            modality_atom.args,
            inputs=frozenset({modality_atom.args[in_pos]}),
            outputs=frozenset({modality_atom.args[out_pos]}),
        )
        goal: StateExpr = TOP  # no unary head: some successor is enough
        if unary_heads:
            if unary_heads[0].args != (exist,):
                raise UnsafeRule("the unary head atom must be over the existential variable")
            goal = Prop(unary_heads[0].pred, unary_heads[0].args)
        return _implies(_body_formula(rule), Diamond(action, goal))

    # no existentials: a single binary body atom guarding a unary head
    if len(unary_heads) == 1 and not binary_heads and len(rule.body) == 1 and len(rule.body[0].args) == 2:
        guard = rule.body[0]
        if guard.pred in io_split:
            in_pos, out_pos = io_split[guard.pred]
        else:
            in_pos, out_pos = 0, 1
        action = dynamic.Action(
            guard.pred,
            guard.args,
            inputs=frozenset({guard.args[in_pos]}),
            outputs=frozenset({guard.args[out_pos]}),
        )
        head = unary_heads[0]
        if head.args[0] not in guard.variables():
            raise UnsafeRule(f"head variable of {head} does not occur in the guard")
        return Box(action, Prop(head.pred, head.args))
    raise UnsafeRule(f"rule shape outside the supported fragment: {rule}")


def _body_formula(rule: DatalogRule) -> StateExpr:
    props = [Prop(a.pred, a.args) for a in rule.body]
    result: StateExpr = props[0]
    for p in props[1:]:
        result = And(result, p)
    return result


class _UnknownType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unknown"

    def __bool__(self) -> bool:
        raise TypeError("Unknown is not a truth value; compare with `is UNKNOWN`")


UNKNOWN = _UnknownType()

Fact = tuple[str, tuple[str, ...]]


def _facts_of(db: Structure) -> set[Fact]:
    facts: set[Fact] = set()
    for (name, _), rel in zip(db.vocabulary.symbols, db.relations):
        for t in rel.tuples:
            facts.add((name, t))
    return facts


def _body_matches(rule: DatalogRule, facts: set[Fact], active: list[str]):
    """All assignments of body variables (lexicographic order) matching the facts."""
    body_vars = sorted(frozenset().union(*(a.variables() for a in rule.body)))

    def extend(i: int, binding: dict[str, str]):
        if i == len(body_vars):
            if all((a.pred, tuple(binding.get(x, x) for x in a.args)) in facts for a in rule.body):
                yield dict(binding)
            return
        for el in active:
            binding[body_vars[i]] = el
            yield from extend(i + 1, binding)
            del binding[body_vars[i]]

    yield from extend(0, {})


def _head_satisfied(rule: DatalogRule, binding: Mapping[str, str], facts: set[Fact], active: list[str]) -> bool:
    exist = sorted(rule.exist_vars)

    def extend(i: int, b: dict[str, str]) -> bool:
        if i == len(exist):
            return all((a.pred, tuple(b.get(x, x) for x in a.args)) in facts for a in rule.head)
        return any(extend(i + 1, {**b, exist[i]: el}) for el in active)

    return extend(0, dict(binding))


def datalog_certain_bounded(
    program: DatalogProgram,
    db: Structure,
    query: DatalogAtom,
    null_budget: int,
) -> TUnion[bool, _UnknownType]:
    """Naive chase with at most null_budget fresh elements.

    True as soon as the query atom is derived (the chase only grows); False
    when the chase terminates without deriving it; UNKNOWN when the budget
    runs out first.
    """
    facts = _facts_of(db)
    active = list(db.domain.elements)
    nulls_used = 0
    query_fact: Fact = (query.pred, query.args)

    while True:
        if query_fact in facts:
            return True
        fired = False
        exhausted = False
        for rule in program.rules:
            for binding in list(_body_matches(rule, facts, active)):
                if _head_satisfied(rule, binding, facts, active):
                    continue
                extended = dict(binding)
                for var in sorted(rule.exist_vars):
                    if nulls_used >= null_budget:
                        exhausted = True
                        break
                    nulls_used += 1
                    fresh = f"n{nulls_used}"
                    active.append(fresh)
                    extended[var] = fresh
                if exhausted:
                    break
                for atom in rule.head:
                    facts.add((atom.pred, tuple(extended.get(x, x) for x in atom.args)))
                fired = True
            if exhausted:
                break
        if exhausted:
            return True if query_fact in facts else UNKNOWN
        if not fired:
            return query_fact in facts
