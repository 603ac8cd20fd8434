"""The calculus of binary relations: actions with inertia, tests, binary
fixed points, the derived operations, and transition-system construction.

The operators this sort shares with the flat algebra (bot, module
variables, union, complement, projection, selection, mu, and the sugar
intersect) are flat's classes, re-exported here; the direction of
information propagation is on the atoms alone (Action's inputs and
outputs). This module declares only the process-only nodes, and evaluates
only them, atoms and selection: module variables, union, complement,
projection and mu take flat._shared, the rule of sets of structures too.
A state test evaluates its formula with flat._eval.

Actions, tests, and their intersections and projections denote
{(i, j) : j in ext, i agrees with j off out}: action_form reads this action
normal form, the atom rule of both process evaluators. An EdgeSet is a
core.UniverseSet, as a StructureSet is, over a possibly-complemented pair
set (see indexsets), read and written as (i, j) pairs, so complement costs
nothing and this module never sees a pair code. eval_dyn and
build_transition_system build the pairs of every subterm with no form, and
a form's with one inertia(ext, out). The modalities of the state logic and
tasks.reach build no pairs where they can: they follow a process by one
image function of state sets, lmumu.image, backward (side 0, the sources)
or forward (side 1, the targets), reading forms and stars as fixed points
of state sets, and come here only for the operators the image cannot
follow. dn, up and neg take the same image of their operand's pairs, from
every state (indexsets.image). Binary fixed points run in the shared loop,
flat._rounds: semi-naive for a body linear in its variable
(a star's `diag | Z ; a` composes only each round's new pairs), with the
body's closed subterms (the star's `diag` and `a`) built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .core import Universe, UniverseSet, Valuation, values_index_set
from .errors import CapExceeded, IllegalSelect, UnboundModuleVar, WellformednessError
# the operators shared with the flat algebra, re-exported
from .flat import Bottom, Complement, Lfp, ModuleVar, Project, Select, Union, intersect
from .flat import SHARED, Const, EvalContext, EvalStats, ProcExpr, StateExpr, Var
from .flat import _eval, _evaluator, _select_filter, _shared
from .indexsets import IndexSet, PairSet, compose, image, inertia, restrict
from .syntax import children, map_children, walk


@dataclass(frozen=True)
class Test(ProcExpr):
    """M? : diagonal restricted to the module's extension."""

    module: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Action(ProcExpr):
    """Atomic action: replicate the source except on the output vocabulary."""

    module: str
    args: tuple[str, ...]
    inputs: frozenset[str]
    outputs: frozenset[str]

    def __post_init__(self):
        argset = frozenset(self.args)
        if self.inputs | self.outputs != argset or self.inputs & self.outputs:
            raise WellformednessError(
                f"action {self.module}: inputs/outputs must partition the arguments"
            )


@dataclass(frozen=True)
class Down(ProcExpr):
    """States with an outgoing transition, as a diagonal."""

    additive = ("inner",)
    inner: ProcExpr


@dataclass(frozen=True)
class Up(ProcExpr):
    """States with an incoming transition, as a diagonal."""

    additive = ("inner",)
    inner: ProcExpr


@dataclass(frozen=True)
class UnaryNeg(ProcExpr):
    """States with no outgoing transition, as a diagonal."""

    inner: ProcExpr


@dataclass(frozen=True)
class Diagonal(ProcExpr):
    """The nil action."""


@dataclass(frozen=True)
class Compose(ProcExpr):
    additive = ("left", "right")
    left: ProcExpr
    right: ProcExpr


@dataclass(frozen=True)
class Count(ProcExpr):
    """Paths of n..m pieces of the body."""

    inner: ProcExpr
    low: int
    high: int

    def __post_init__(self):
        if not 0 <= self.low <= self.high:
            raise WellformednessError(f"bad counting bounds {self.low}..{self.high}")


@dataclass(frozen=True)
class Reverse(ProcExpr):
    """Flip the information-propagation direction of every atomic action."""

    additive = ("inner",)
    inner: ProcExpr

    @cached_property
    def flipped(self) -> ProcExpr:
        """The operand with its actions flipped, built once per node: a
        fixpoint body meets the same subterms (and their plans) each round."""
        return flip_actions(self.inner)


@dataclass(frozen=True)
class TestEq(ProcExpr):
    """Transitions that start and end with the same structure."""

    additive = ("inner",)
    inner: ProcExpr


@dataclass(frozen=True)
class TestNeq(ProcExpr):
    additive = ("inner",)
    inner: ProcExpr


@dataclass(frozen=True)
class ConstTest(ProcExpr):
    """Diagonal test: a variable's interpretation equals (or not) a constant."""

    var: str
    value: Const
    equal: bool = True


@dataclass(frozen=True)
class StateTest(ProcExpr):
    """phi? for a two-sorted state formula."""

    additive = ("phi",)
    crossing = ("phi",)
    phi: StateExpr


def kleene_star(a: ProcExpr) -> ProcExpr:
    """a* := mu Z. (diag | Z ; a), with a fresh variable."""
    used = module_vars_of(a)
    name = "Zs"
    k = 0
    while name in used:
        k += 1
        name = f"Zs{k}"
    return Lfp(name, Union(Diagonal(), Compose(ModuleVar(name), a)))


def module_vars_of(a: ProcExpr) -> frozenset[str]:
    """Module and set variables used or bound anywhere in a, state tests included."""
    out: set[str] = set()
    for node in walk(a):
        if isinstance(node, ModuleVar):
            out.add(node.name)
        elif isinstance(node, Lfp):
            out.add(node.var)
    return frozenset(out)


def flip_actions(a: ProcExpr) -> ProcExpr:
    """Swap in/out on every atomic action (reverse distributes to atoms).

    State tests are left as written."""
    if isinstance(a, Action):
        return Action(a.module, a.args, a.outputs, a.inputs)
    if isinstance(a, StateTest):
        return a
    return map_children(a, flip_actions)


# ---------------------------------------------------------------------------
# Input/output vocabularies


def io_vocab(a: ProcExpr) -> tuple[frozenset[str], frozenset[str]]:
    """(free input variables, free output variables) of a process expression.

    Unless a case below says otherwise, the union of the subterms' vocabularies.
    """
    if isinstance(a, Test):
        vs = frozenset(a.args)
        return vs, vs
    if isinstance(a, Action):
        return a.inputs, a.outputs
    if isinstance(a, ConstTest):
        return frozenset({a.var}), frozenset({a.var})
    if isinstance(a, StateTest):
        from .lmumu import state_vars

        vs = state_vars(a.phi)
        return vs, vs
    if isinstance(a, Project):
        s, e = io_vocab(a.inner)
        return s & a.keep, e & a.keep
    if isinstance(a, (Down, UnaryNeg)):
        s, _ = io_vocab(a.inner)
        return s, s
    if isinstance(a, Up):
        _, e = io_vocab(a.inner)
        return e, e
    if isinstance(a, Reverse):
        s, e = io_vocab(a.inner)
        return e, s
    if isinstance(a, (TestEq, TestNeq)):
        s, e = io_vocab(a.inner)
        return s | e, s | e
    ins: frozenset[str] = frozenset()
    outs: frozenset[str] = frozenset()
    for child in children(a):
        s, e = io_vocab(child)
        ins, outs = ins | s, outs | e
    return ins, outs


# ---------------------------------------------------------------------------
# Edge sets


class EdgeSet(UniverseSet):
    """Set of (source, target) universe-index pairs."""

    __slots__ = ()
    arity = 2
    build = PairSet.from_pairs

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> "EdgeSet":
        return cls(universe, PairSet.from_pairs(universe.size, pairs))

    def pairs(self) -> Iterator[tuple[int, int]]:
        return self.iset.pairs()

    def contains(self, i: int, j: int) -> bool:
        return self.iset.contains(i, j)


@dataclass
class TransitionSystem:
    """The universe with one labelled edge set per recorded subformula."""

    universe: Universe
    edges: dict[str, EdgeSet] = field(default_factory=dict)
    order: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Evaluation


def eval_dyn(
    a: ProcExpr,
    valuation: Valuation,
    universe: Universe,
    stats: Optional[EvalStats] = None,
) -> EdgeSet:
    """Extension of a process expression as a set of structure pairs."""
    return EdgeSet(universe, _eval_dyn(a, EvalContext(universe, stats), valuation))


def _eval_dyn(a: ProcExpr, ctx: EvalContext, val: Valuation) -> PairSet:
    iset = _eval_dyn_inner(a, ctx, val)
    if ctx.record is not None:
        ctx.record[ctx.label(a)] = iset
    return iset


@_evaluator
def _eval_dyn_inner(a: ProcExpr, ctx: EvalContext, val: Valuation) -> PairSet:
    form = action_form(a, ctx, val)
    if form is not None:
        return inertia(*form)
    if isinstance(a, SHARED):
        return _shared(a, ctx, val, _eval_dyn, EdgeSet)
    n = ctx.universe.size
    if isinstance(a, Select):
        return _eval_select(a, ctx, val)
    if isinstance(a, (Down, Up, UnaryNeg)):
        # the sources of a.inner's pairs (dn, neg), or their targets (up)
        ends = image(_eval_dyn(a.inner, ctx, val), IndexSet.full(n), int(isinstance(a, Up)))
        return inertia(ends.complement() if isinstance(a, UnaryNeg) else ends, 0)
    if isinstance(a, Compose):
        return compose(_eval_dyn(a.left, ctx, val), _eval_dyn(a.right, ctx, val))
    if isinstance(a, Count):
        # the k-th power for k = 1..high, from the body on; the diagonal
        # (power 0) only for low = 0
        inner = power = _eval_dyn(a.inner, ctx, val)
        acc = inertia(IndexSet.full(n), 0) if a.low == 0 else None
        for k in range(1, a.high + 1):
            if k > 1:
                power = compose(power, inner)
            if k >= a.low:
                acc = power if acc is None else acc.union(power)
        return acc
    if isinstance(a, Reverse):
        return _eval_dyn(a.flipped, ctx, val)
    if isinstance(a, TestEq):
        return _eval_dyn(a.inner, ctx, val).intersection(inertia(IndexSet.full(n), 0))
    if isinstance(a, TestNeq):
        return _eval_dyn(a.inner, ctx, val).difference(inertia(IndexSet.full(n), 0))
    raise TypeError(f"not a process expression: {a!r}")


def _has_form(a: ProcExpr) -> bool:
    """Whether a has an action normal form, read from its syntax alone."""
    if isinstance(a, Project):
        return _has_form(a.inner)
    if isinstance(a, Complement):
        both = a.inner
        return (isinstance(both, Union) and isinstance(both.left, Complement)
                and isinstance(both.right, Complement)
                and _has_form(both.left.inner) and _has_form(both.right.inner))
    return isinstance(a, (Bottom, Action, Test, Diagonal, ConstTest, StateTest))


def action_form(a: ProcExpr, ctx: EvalContext, val: Valuation) -> Optional[tuple[IndexSet, int]]:
    """(ext, out) when a denotes {(i, j) : j in ext, i agrees with j off the
    bits of out}, else None: a's action normal form, the atom rule of both
    process evaluators (eval_dyn builds its pairs, inertia(ext, out);
    lmumu.image takes its images without them).

    Whether a has a form is decided from its syntax before anything is
    evaluated. An action's out is its output bits; a test, diag and bot
    change nothing, out = 0. The intersection -(-a | -b) of two forms is
    one, as is a projection keeping K of one: it forgets ext off K and lets
    i differ from j there.
    """
    if not _has_form(a):
        return None
    u = ctx.universe
    if isinstance(a, Action):
        return ctx.extension(a, val), u.mask({val.symbol(arg) for arg in a.outputs})
    if isinstance(a, Test):
        return ctx.extension(a, val), 0
    if isinstance(a, Diagonal):
        return IndexSet.full(u.size), 0
    if isinstance(a, Bottom):
        return IndexSet(u.size), 0
    if isinstance(a, ConstTest):
        sym = val.symbol(a.var)
        states = values_index_set(u, {sym: a.value.value(u.vocabulary.arity(sym))})
        return (states if a.equal else states.complement()), 0
    if isinstance(a, StateTest):
        return _eval(a.phi, ctx, val), 0
    if isinstance(a, Project):
        ext, out = action_form(a.inner, ctx, val)
        off = u.full_mask & ~u.mask(map(val.symbol, a.keep))
        return ext.project(off), out | off
    (left, left_out), (right, right_out) = (
        action_form(b.inner, ctx, val) for b in (a.inner.left, a.inner.right))
    return left.intersection(right), left_out & right_out


def select_side(a: Select) -> Optional[int]:
    """The side a selection restricts: 0 (the source) when both operands are
    inputs of the body, 1 (the target) when both are outputs, else None
    (feedback, or not a legal selection)."""
    sigma, epsilon = io_vocab(a.inner)
    for side, vocab in enumerate((sigma, epsilon)):
        if all(isinstance(op, Const) or op.name in vocab for op in (a.left, a.right)):
            return side
    return None


def _eval_select(a: Select, ctx: EvalContext, val: Valuation) -> PairSet:
    u = ctx.universe
    inner = _eval_dyn(a.inner, ctx, val)
    l, r = a.left, a.right
    side = select_side(a)
    if side is not None:
        return restrict(inner, _select_filter(l, r, val, u), side)
    sigma, epsilon = io_vocab(a.inner)
    if not (isinstance(l, Var) and isinstance(r, Var) and l.name in sigma and r.name in epsilon):
        raise IllegalSelect(
            f"selection operands {l} and {r} do not classify as two inputs, two outputs, "
            f"or input-output feedback for the body (inputs {sorted(sigma)}, outputs "
            f"{sorted(epsilon)})"
        )
    # feedback: each pair (i, j) gives the source i with L1 set to L2 at j.
    # Of one arity, the slots list their tuples in one order, so L2's slot of
    # j moves into L1's by one mask and shift; of two arities, only empty
    # relations are equal. (Against a constant, L1 selects on the source.)
    s1, s2 = val.symbol(l.name), val.symbol(r.name)
    l1, l2 = u.mask([s1]), u.mask([s2])
    if u.vocabulary.arity(s1) != u.vocabulary.arity(s2):
        return PairSet.from_pairs(u.size, ((i & ~l1, j) for i, j in inner.pairs() if not j & l2))
    shift = (l1 & -l1).bit_length() - (l2 & -l2).bit_length()
    up, down = max(shift, 0), max(-shift, 0)
    return PairSet.from_pairs(u.size, (((i & ~l1) | (j & l2) << up >> down, j)
                                       for i, j in inner.pairs()))


# ---------------------------------------------------------------------------
# Transition systems


def build_transition_system(
    a: ProcExpr,
    valuation: Valuation,
    universe: Universe,
    stats: Optional[EvalStats] = None,
) -> TransitionSystem:
    """Label the universe with the extension of every subformula of `a`.

    Subformulas under a fixed point are labelled with their converged
    extension (the final iteration's value). Labels are canonical prints,
    listed in post-order without repeats; state tests are labelled but not
    entered. A subterm the evaluation did not need on its own (the
    as-written operand of a reverse, a part of an action normal form) is
    evaluated by itself, and left unlabelled when it is open, a selection
    legal only reversed, or has more pairs than the budget allows.
    """
    record: dict[str, PairSet] = {}
    ctx = EvalContext(universe, stats, record)
    _eval_dyn(a, ctx, valuation)
    edges: dict[str, EdgeSet] = {}
    seen: set[str] = set()
    for node in walk(a, within_sort=True):
        key = ctx.label(node)
        if key in seen:
            continue
        seen.add(key)
        if key not in record:
            try:
                record[key] = _eval_dyn_inner(node, ctx, valuation)
            except (UnboundModuleVar, IllegalSelect, CapExceeded):
                continue
        edges[key] = EdgeSet(universe, record[key])
    return TransitionSystem(universe, edges, tuple(edges))
