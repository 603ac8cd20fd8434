"""The flat algebra: union, complement, projection, selection, and least
fixed points over sets of structures.

The operators are declared once, here, for the flat, process and state
sorts: each class derives from the base of every sort that has it, and
dynamic and lmumu add only their own nodes. The direction of information
propagation lives on the atoms (dynamic.Action), not on the operators.

Evaluation is explicit-state: extensions are subsets of a materializable
universe, represented as bitmaps over its indices (see indexsets). _eval
evaluates flat expressions and state formulas alike; the evaluation context
defined here serves all three sorts, and so do _shared, the one rule of the
operators that mean the same on sets of structures and of structure pairs
(module variables, union, complement, projection, mu), and _rounds, the one
least-fixed-point loop, naive or semi-naive by the body's plan, which also
runs lmumu's stars and lfp_iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union as TUnion

from .core import (
    RelationValue,
    StructureSet,
    Universe,
    Valuation,
    all_relation_values,
    extension_index_set,
)
from .errors import (
    ArityMismatch,
    CapExceeded,
    ModalgError,
    NonMonotoneDetected,
    UnboundModuleVar,
    WellformednessError,
)
from .indexsets import IndexSet, cylinder
from .syntax import Node, children, walk


class FlatExpr(Node):
    """Base class for flat-algebra ASTs."""

    __slots__ = ()


class ProcExpr(Node):
    """Base class for process (binary-relation) ASTs."""

    __slots__ = ()


class StateExpr(Node):
    """Base class for state-formula ASTs. The classes below that derive from
    several bases are the operators the sorts share."""

    __slots__ = ()


@dataclass(frozen=True)
class Bottom(FlatExpr, ProcExpr, StateExpr):
    pass


@dataclass(frozen=True)
class Atom(FlatExpr):
    module: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class ModuleVar(FlatExpr, ProcExpr, StateExpr):
    name: str


@dataclass(frozen=True)
class Union(FlatExpr, ProcExpr, StateExpr):
    additive = ("left", "right")
    left: Node
    right: Node


@dataclass(frozen=True)
class Complement(FlatExpr, ProcExpr):
    inner: Node


@dataclass(frozen=True)
class Project(FlatExpr, ProcExpr):
    additive = ("inner",)
    keep: frozenset[str]
    inner: Node


@dataclass(frozen=True)
class Var:
    """Selection operand: a relational variable."""

    name: str


@dataclass(frozen=True)
class Const:
    """Selection operand: a literal relation. Arity may be deferred for '{}'."""

    tuples: frozenset[tuple[str, ...]]
    arity: Optional[int] = None

    def __post_init__(self):
        if self.arity is None and self.tuples:
            object.__setattr__(self, "arity", len(next(iter(self.tuples))))
        for t in self.tuples:
            if len(t) != self.arity:
                raise ArityMismatch(f"constant tuples of mixed arity: {sorted(self.tuples)}")

    @classmethod
    def of(cls, tuples: Iterable[tuple[str, ...]], arity: Optional[int] = None) -> "Const":
        return cls(frozenset(tuples), arity)

    def value(self, arity: int) -> RelationValue:
        if self.arity is not None and self.arity != arity:
            raise ArityMismatch(f"constant has arity {self.arity}, context expects {arity}")
        return RelationValue(arity, self.tuples)


@dataclass(frozen=True)
class Select(FlatExpr, ProcExpr):
    additive = ("inner",)
    left: Var | Const
    right: Var | Const
    inner: Node


@dataclass(frozen=True)
class Lfp(FlatExpr, ProcExpr, StateExpr):
    var: str
    body: Node


def intersect(left: Node, right: Node) -> Node:
    """Parser sugar, in both sorts: a & b = -(-a | -b)."""
    return Complement(Union(Complement(left), Complement(right)))


# ---------------------------------------------------------------------------
# Static analysis


def _operand_vars(e: FlatExpr) -> tuple[str, ...]:
    """Relational variables used by this node itself (not its subterms)."""
    if isinstance(e, Atom):
        return e.args
    if isinstance(e, Select):
        return tuple(op.name for op in (e.left, e.right) if isinstance(op, Var))
    return ()


def occurring_vars(e: FlatExpr) -> frozenset[str]:
    """Relational variables used by atoms or selection operands."""
    return frozenset(v for node in walk(e) for v in _operand_vars(node))


def free_relational_vars(e: FlatExpr) -> frozenset[str]:
    """Variables visible from outside: projection existentially hides the rest."""
    if isinstance(e, Project):
        return free_relational_vars(e.inner) & e.keep
    return frozenset(_operand_vars(e)).union(*map(free_relational_vars, children(e)))


def _label(node: Node) -> str:
    from .printer import to_text

    return to_text(node)


@dataclass(frozen=True)
class Violation:
    node: object
    message: str

    def __str__(self) -> str:
        return f"{self.message} (in: {_label(self.node)})"


def _polarities(e: FlatExpr, var: str, negations: int = 0) -> list[int]:
    """Complement depth of each free occurrence of module variable var."""
    if isinstance(e, ModuleVar):
        return [negations] if e.name == var else []
    if isinstance(e, Lfp) and e.var == var:  # shadowed
        return []
    if isinstance(e, Complement):
        negations += 1
    return [h for child in children(e) for h in _polarities(child, var, negations)]


def check_wellformed(e: FlatExpr) -> list[Violation]:
    """Positivity, projection scoping and arity-consistency diagnostics.

    Empty list iff well-formed. Arity consistency is checked across variable
    uses (a variable used at two different arities is flagged); binding to
    concrete symbols is validated at evaluation time.
    """
    violations: list[Violation] = []
    arities: dict[str, int] = {}

    def note_arity(var: str, arity: int, node: FlatExpr) -> None:
        if var in arities and arities[var] != arity:
            violations.append(
                Violation(node, f"variable {var} used at arities {arities[var]} and {arity}")
            )
        else:
            arities[var] = arity

    for node in walk(e):
        if isinstance(node, Project):
            missing = node.keep - occurring_vars(node.inner)
            if missing:
                violations.append(
                    Violation(node, f"projection keeps {sorted(missing)} which do not occur")
                )
        elif isinstance(node, Select):
            l, r = node.left, node.right
            if isinstance(l, Const) and isinstance(r, Const):
                if l.arity is not None and r.arity is not None and l.arity != r.arity:
                    violations.append(Violation(node, "selection constants of different arity"))
            for op, other in ((l, r), (r, l)):
                if isinstance(op, Var) and isinstance(other, Const) and other.arity is not None:
                    note_arity(op.name, other.arity, node)
        elif isinstance(node, Lfp):
            if any(h % 2 for h in _polarities(node.body, node.var)):
                violations.append(
                    Violation(node, f"module variable {node.var} occurs under an odd "
                    f"number of complements")
                )
    return violations


# ---------------------------------------------------------------------------
# Evaluation


class EvalStats:
    """Optional recorder threaded through the evaluators."""

    def __init__(self):
        self.fixpoint_iterations: dict[str, int] = {}

    def record_fixpoint(self, label: str, iterations: int) -> None:
        self.fixpoint_iterations[label] = max(
            self.fixpoint_iterations.get(label, 0), iterations
        )


class EvalContext:
    """What one evaluation shares across the flat, process and state sorts.

    The universe, the atom-extension cache, the optional EvalStats, the
    optional transition-system record (label -> pair set), the label memo,
    which prints each distinct node once, and the fixpoint plans: for each
    Lfp node, whether its body is linear. The closed subterms of the bodies
    are registered in `hoisted` (id -> [node] or [node, value]).
    """

    __slots__ = ("universe", "ext_cache", "stats", "record", "labels", "plans", "hoisted",
                 "hoisting")

    def __init__(self, universe: Universe, stats: Optional[EvalStats] = None, record=None):
        self.universe = universe
        self.ext_cache: dict = {}
        self.stats = stats
        self.record = record
        self.labels: dict[Node, str] = {}
        self.plans: dict[int, tuple[Node, bool]] = {}
        self.hoisted: dict[int, list] = {}
        self.hoisting = False  # a closed subterm's value is being computed

    def label(self, node: Node) -> str:
        text = self.labels.get(node)
        if text is None:
            text = self.labels[node] = _label(node)
        return text

    def extension(self, node: Node, val: Valuation) -> IndexSet:
        """The atom rule: node.module with its variable vocabulary bound
        positionally to node.args (flat atoms, tests, actions, propositions)."""
        module = val.module(node.module)
        if len(node.args) != len(module.vvoc):
            raise ArityMismatch(
                f"atom {node.module} has {len(node.args)} arguments, "
                f"vvoc has {len(module.vvoc)}"
            )
        binding = {formal: val.symbol(arg) for (formal, _), arg in zip(module.vvoc, node.args)}
        return extension_index_set(self.universe, module, binding, self.ext_cache)

    def iterate(self, node: Node, step, empty: IndexSet) -> IndexSet:
        """Least fixed point of `step` from `empty`, where `step` computes
        node's body: _shared's Lfp rule, or lmumu's star rule on state sets.
        node's plan (is the body linear, which subterms are closed and so
        hoisted) is made once, and _rounds runs the rounds under node's label.
        """
        plan = self.plans.get(id(node))
        if plan is None:
            linear, closed = fixpoint_plan(node)
            plan = self.plans[id(node)] = (node, linear)
            for sub in closed:
                self.hoisted.setdefault(id(sub), [sub])
        linear = plan[1]
        # the rounds ask for the body's closed subterms again, so they keep
        # their values even inside a closed subterm being evaluated
        outer, self.hoisting = self.hoisting, False
        try:
            value = _rounds(step, empty, linear, lambda: self.label(node), self.stats, node)
            if linear and self.record is not None:
                step(value)  # record every body subformula at its converged value
            return value
        finally:
            self.hoisting = outer


def _rounds(
    step: Callable[[IndexSet], IndexSet],
    acc: IndexSet,
    linear: bool,
    label: Callable[[], str],
    stats: Optional[EvalStats],
    node: Optional[Node] = None,
) -> IndexSet:
    """The least fixed point of `step` from the empty set `acc`: the one
    round loop of every sort.

    A body linear in its variable (see fixpoint_plan) is iterated
    semi-naively: each round applies it to the last round's new members
    only, and what it yields beyond the members found so far is the next
    delta (Bancilhon & Ramakrishnan, SIGMOD 1986). Any other body is applied
    to all the members found so far, and its result, which must contain
    them, is the next accumulated set. Both stop after a round that adds
    nothing, so the round count is the naive loop's. label() names the
    fixpoint in stats and errors and is called only when one of them needs
    it; a NonMonotoneDetected carries `node`.
    """
    delta = acc
    iterations = 0
    while True:
        iterations += 1
        out = step(delta if linear else acc)
        if not (linear or acc.issubset(out)):
            exc = NonMonotoneDetected(
                f"fixpoint iteration shrank the set; body is not monotone (in: {label()})")
            exc.node = node
            raise exc
        delta = out.difference(acc)
        if not delta:
            break
        acc = acc.union(delta) if linear else out
    if stats is not None:
        stats.record_fixpoint(label(), iterations)
    return acc


def fixpoint_plan(node: Node) -> tuple[bool, list[Node]]:
    """(whether node.body is linear in node.var, the body's closed
    subterms).

    Linear: the variable occurs free exactly once, and every operator on
    the way down to it distributes over union in that subterm (its class's
    `additive` fields). Such a body is f(X) = f({}) | g(X) with g additive,
    so f(A | D) = f(A) | f(D). Closed: no free module variable, so the
    value is the same in every round.
    """
    free: dict[int, set[str]] = {}
    closed: list[Node] = []
    for sub in walk(node.body):  # post-order: a subterm's children come first
        if isinstance(sub, ModuleVar):
            names = {sub.name}
        else:
            names = set().union(*(free[id(c)] for c in children(sub)))
            if isinstance(sub, Lfp):
                names.discard(sub.var)
        if not names:
            closed.append(sub)
        free[id(sub)] = names
    sub = node.body
    while node.var in free[id(sub)] and not isinstance(sub, ModuleVar):
        holding = [c for c in children(sub) if node.var in free[id(c)]]
        if len(holding) != 1 or not any(getattr(sub, f) is holding[0] for f in sub.additive):
            return False, closed
        sub = holding[0]
    return node.var in free[id(sub)], closed


def _name_node(exc: CapExceeded, node: Node, ctx: EvalContext) -> None:
    """Name the innermost node in a CapExceeded, once."""
    if exc.node is None:
        exc.node = node
        exc.args = (f"{exc} (in: {ctx.label(node)})",)


def _evaluator(evaluate):
    """Recursion entry of a sort's evaluator `evaluate(node, ctx, val)`.

    A CapExceeded raised below it names the innermost node being evaluated.
    A closed subterm of a fixpoint body, registered in ctx.hoisted, is
    evaluated once per context; closed means its value does not depend on
    `val`. Only the outermost closed subterm under evaluation keeps its
    value, as the ones inside it are not asked for again once it has its
    own. lmumu.image follows a process without evaluating it as a whole, so
    the closed subterms it hands to an evaluator are outermost, and each
    fixpoint loop starts a new outermost level (EvalContext.iterate).
    """

    def entry(node, ctx: EvalContext, val: Valuation) -> IndexSet:
        slot = ctx.hoisted.get(id(node)) if ctx.hoisted else None
        if slot is not None and len(slot) == 2:
            return slot[1]
        keep = slot is not None and not ctx.hoisting
        if keep:
            ctx.hoisting = True
        try:
            value = evaluate(node, ctx, val)
        except CapExceeded as exc:
            _name_node(exc, node, ctx)
            raise
        finally:
            if keep:
                ctx.hoisting = False
        if keep:
            slot.append(value)
        return value

    return entry


def _named(fn):
    """Entry of a function `fn(node, ctx, ...)` below which a CapExceeded
    names the innermost node, as in _evaluator, with no hoisting."""

    def entry(node, ctx: EvalContext, *args):
        try:
            return fn(node, ctx, *args)
        except CapExceeded as exc:
            _name_node(exc, node, ctx)
            raise

    return entry


def _select_filter(
    left: Var | Const, right: Var | Const, valuation: Valuation, u: Universe
) -> IndexSet:
    """Indices whose structure satisfies L1 = L2 (state-level comparison)."""
    if isinstance(left, Const) and isinstance(right, Const):
        arity = left.arity if left.arity is not None else right.arity
        if arity is None or left.value(arity).tuples == right.value(arity).tuples:
            return IndexSet.full(u.size)
        return IndexSet(u.size)
    vars_ = [op.name for op in (left, right) if isinstance(op, Var)]
    syms = [valuation.symbol(v) for v in vars_]
    for v, s in zip(vars_, syms):
        if s not in u.vocabulary:
            raise ArityMismatch(f"selection operand {v} maps to unknown symbol {s}")
    arity = u.vocabulary.arity(syms[0])
    if len(syms) == 1:  # against a constant: its one slot pattern, if it is a value
        const = left if isinstance(left, Const) else right
        try:
            keys = [u.encode_rel(syms[0], RelationValue(arity, const.tuples))]
        except ModalgError:  # tuples of another arity or off the domain
            keys = []
    else:  # one pattern per value; of two arities, only both empty are equal
        same = u.vocabulary.arity(syms[1]) == arity
        values = all_relation_values(u.domain, arity) if same else [RelationValue.of(arity)]
        keys = [u.encode_rel(syms[0], v) | u.encode_rel(syms[1], v) for v in values]
    return cylinder(u.size, keys, u.full_mask & ~u.mask(syms))


def _check_injective(e: FlatExpr, valuation: Valuation) -> None:
    """Restriction semantics (projection, agreement) needs distinct symbols
    per variable; reject valuations that identify two variables."""
    by_symbol: dict[str, str] = {}
    for var in sorted(occurring_vars(e)):
        sym = valuation.symbol(var)
        if sym in by_symbol and by_symbol[sym] != var:
            raise WellformednessError(
                f"valuation maps distinct variables {by_symbol[sym]} and {var} to "
                f"symbol {sym}; restriction semantics would be ambiguous"
            )
        by_symbol[sym] = var


def eval_flat(
    e: FlatExpr,
    valuation: Valuation,
    universe: Universe,
    stats: Optional[EvalStats] = None,
) -> StructureSet:
    """Extension of a flat expression: the set of satisfying structures."""
    _check_injective(e, valuation)
    return StructureSet(universe, _eval(e, EvalContext(universe, stats), valuation))


lmumu = None  # the module of the state-only nodes, bound by _eval


# the operators every sort reads alike, evaluated by _shared
SHARED = (ModuleVar, Union, Complement, Project, Lfp)


def _shared(e: Node, ctx: EvalContext, val: Valuation, evaluate, box):
    """The one rule of SHARED for sets of structures and of structure pairs,
    given the sort's evaluator and set class (StructureSet or EdgeSet), which
    wraps a fixpoint's iterate for binding. A pair projection forgets bits
    in both components."""
    if isinstance(e, ModuleVar):
        value = val.env.get(e.name)
        if not isinstance(value, box):
            raise UnboundModuleVar(
                f"module variable {e.name} is not bound to a set of its sort ({box.__name__})")
        return value.iset
    if isinstance(e, Union):
        return evaluate(e.left, ctx, val).union(evaluate(e.right, ctx, val))
    if isinstance(e, Complement):
        return evaluate(e.inner, ctx, val).complement()
    u = ctx.universe
    if isinstance(e, Project):
        return evaluate(e.inner, ctx, val).project(u.full_mask & ~u.mask(map(val.symbol, e.keep)))
    return ctx.iterate(e, lambda current: evaluate(e.body, ctx, val.bind(e.var, box(u, current))),
                       box.empty(u).iset)


@_evaluator
def _eval(e: TUnion[FlatExpr, StateExpr], ctx: EvalContext, val: Valuation) -> IndexSet:
    u = ctx.universe
    if isinstance(e, Atom):
        return ctx.extension(e, val)
    if isinstance(e, SHARED):
        return _shared(e, ctx, val, _eval, StructureSet)
    if isinstance(e, Bottom):
        return IndexSet(u.size)
    if isinstance(e, Select):
        inner = _eval(e.inner, ctx, val)
        return inner.intersection(_select_filter(e.left, e.right, val, u))
    # the state-only nodes; lmumu imports this module, so it is bound on first use
    global lmumu
    if lmumu is None:
        from . import lmumu
    if isinstance(e, lmumu.Prop):
        return ctx.extension(e, val)
    if isinstance(e, lmumu.And):
        return _eval(e.left, ctx, val).intersection(_eval(e.right, ctx, val))
    if isinstance(e, lmumu.Not):
        return _eval(e.inner, ctx, val).complement()
    if isinstance(e, lmumu.Diamond):
        return lmumu.image(e.process, ctx, val, _eval(e.inner, ctx, val), 0)
    if isinstance(e, lmumu.Box):
        bad = _eval(e.inner, ctx, val).complement()
        return lmumu.image(e.process, ctx, val, bad, 0).complement()
    raise TypeError(f"not a flat or state expression: {e!r}")


def lfp_iterate(
    f: Callable[[StructureSet], StructureSet],
    universe: Universe,
    stats: Optional[EvalStats] = None,
    label: str = "<anonymous>",
) -> StructureSet:
    """Least fixed point of a monotone set transformer, by iteration from {}.

    Terminates in at most |universe| + 1 steps; raises NonMonotoneDetected if
    a step shrinks the set.
    """

    def step(iset: IndexSet) -> IndexSet:
        return f(StructureSet(universe, iset)).iset

    empty = IndexSet(universe.size)
    return StructureSet(universe, _rounds(step, empty, False, lambda: label, stats))
