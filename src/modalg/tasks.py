"""The reasoning-task suite: model checking, model expansion, bounded
satisfiability, generalized evaluation, query evaluation via the
singleton encoding, the temporal tasks, reachability, and the three-way
equivalence report.

mc, mx, ev and sat_bounded all ask one generator, `_models`, for the
structures that satisfy a formula and agree with some fixed symbols. It is
the one place that chooses how. Formulas with fixed points or free module
variables are evaluated over an explicit universe. Any other formula is
searched on structures, with no universe: `_compile` turns it once per call
into a three-valued check of partial interpretations, and a depth-first
search fills in the free symbols, pruning where the check answers False. A
projection in the formula searches only its hidden symbols, and remembers
its answer per value of its kept symbols for the rest of the call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence

from . import dynamic, flat, lmumu
from .core import (
    AtomicModule,
    Domain,
    RelationValue,
    Structure,
    Universe,
    Valuation,
    Vocabulary,
    all_relation_values,
    build_universe,
    values_index_set,
)
from .core import DEFAULT_UNIVERSE_CAP
from .errors import (
    ArityMismatch,
    CapExceeded,
    IncompleteStructure,
    ModalgError,
    NonPropositionalFormula,
    NonSingletonEncoding,
    WellformednessError,
)
from .flat import Const, FlatExpr, Var, free_relational_vars, occurring_vars
from .indexsets import IndexSet
from .syntax import Node, children, map_children, walk

MX_RESULT_LIMIT = 1 << 20


# ---------------------------------------------------------------------------
# Vocabulary inference for structure-level tasks


def infer_arities(
    e: FlatExpr, valuation: Valuation, outputs: Optional[Mapping[str, RelationValue]] = None
) -> dict[str, int]:
    """Arity of every variable occurring in e, from module signatures; a
    variable they leave open takes its arity from its value in `outputs`, if
    any, before `Var == Var` selections pass arities on."""
    arities: dict[str, int] = {}

    def note(var: str, arity: int) -> None:
        if arities.setdefault(var, arity) != arity:
            raise ArityMismatch(f"variable {var} used at arities {arities[var]} and {arity}")

    same: list[tuple[str, str]] = []  # Var == Var selections
    for node in walk(e):
        if isinstance(node, flat.Atom):
            module = valuation.module(node.module)
            if len(node.args) != len(module.vvoc):
                raise ArityMismatch(
                    f"atom {node.module} has {len(node.args)} arguments, "
                    f"vvoc has {len(module.vvoc)}"
                )
            for (_, arity), arg in zip(module.vvoc, node.args):
                note(arg, arity)
        elif isinstance(node, flat.Select):
            l, r = node.left, node.right
            for op, other in ((l, r), (r, l)):
                if isinstance(op, Var):
                    if isinstance(other, Const) and other.arity is not None:
                        note(op.name, other.arity)
            if isinstance(l, Var) and isinstance(r, Var):
                same += [(l.name, r.name), (r.name, l.name)]
    for var, value in (outputs or {}).items():
        arities.setdefault(var, value.arity)
    # then a known arity passes only to an operand without one (relations of
    # different arities are equal iff both are empty), in n passes for n pairs
    for _ in same:
        for a, b in same:
            if a in arities:
                arities.setdefault(b, arities[a])
    return arities


def task_vocabulary(
    e: FlatExpr,
    valuation: Valuation,
    base: Optional[Vocabulary] = None,
    outputs: Optional[Mapping[str, RelationValue]] = None,
) -> Vocabulary:
    """Base symbols (declaration order) plus inferred extras, sorted by name;
    an output's arity is its given value's where the modules leave it open."""
    arities = infer_arities(e, valuation, outputs)
    symbols: list[tuple[str, int]] = list(base.symbols) if base is not None else []
    known = {n for n, _ in symbols}
    extras: dict[str, int] = {}  # a symbol two variables map to: its least arity
    for name, arity in sorted((valuation.symbol(var), arity) for var, arity in arities.items()):
        if name not in known:
            extras.setdefault(name, arity)
    return Vocabulary(tuple(symbols) + tuple(extras.items()))


def _needs_universe(e: FlatExpr) -> bool:
    return any(isinstance(node, (flat.Lfp, flat.ModuleVar)) for node in walk(e))


# ---------------------------------------------------------------------------
# Structure-level satisfaction: the formula compiled once per search


def _compile(e: FlatExpr, domain: Domain, vocab: Vocabulary, valuation: Valuation) -> Callable:
    """e as a check of partial interpretations, symbol -> value, in which a
    missing symbol is unknown: True or False when the known symbols decide
    e, None when they do not (Kleene's three values).

    An atom looks its module up when a check first reaches it, so a module
    error is raised where the search meets the atom. A projection searches
    its hidden symbols once per value of its kept ones, for this check only.
    """
    sub = lambda node: _compile(node, domain, vocab, valuation)
    if isinstance(e, flat.Bottom):
        return lambda rels: False
    if isinstance(e, flat.Atom):
        module = symbols = None  # resolved on first use

        def atom(rels):
            nonlocal module, symbols
            if module is None:
                module = valuation.module(e.module)
                symbols = [
                    (valuation.symbol(arg), arity) for (_, arity), arg in zip(module.vvoc, e.args)
                ]
            values = []
            for sym, arity in symbols:
                if sym not in rels:
                    return None
                if rels[sym].arity != arity:
                    raise ArityMismatch(
                        f"atom {e.module}: symbol {sym} has arity {rels[sym].arity}, "
                        f"expected {arity}"
                    )
                values.append(rels[sym])
            return module.accepts(domain, values)

        return atom
    if isinstance(e, flat.Union):
        left, right = sub(e.left), sub(e.right)

        def union(rels):
            l = left(rels)
            if l is True or (r := right(rels)) is True:
                return True
            return False if l is False and r is False else None

        return union
    if isinstance(e, flat.Complement):
        inner = sub(e.inner)

        def complement(rels):
            value = inner(rels)
            return None if value is None else not value

        return complement
    if isinstance(e, flat.Select):
        inner, left, right = sub(e.inner), _tuples(e.left, valuation), _tuples(e.right, valuation)

        def select(rels):
            value = inner(rels)
            if value is False:
                return False
            lt, rt = left(rels), right(rels)
            if lt is None or rt is None:
                return None
            if lt != rt:
                return False
            return True if value is True else None

        return select
    if isinstance(e, flat.Project):
        inner = sub(e.inner)
        # a kept variable the body does not use constrains nothing
        used = {valuation.symbol(v) for v in occurring_vars(e.inner)}
        kept = sorted({valuation.symbol(v) for v in e.keep} & used)
        hidden = sorted(used - set(kept))
        answers: dict[tuple[RelationValue, ...], bool] = {}

        def project(rels):
            if not all(s in rels for s in kept):
                return None
            key = tuple([rels[s] for s in kept])
            if key not in answers:
                witnesses = _dfs_expansions(inner, dict(zip(kept, key)), hidden, domain, vocab)
                answers[key] = next(witnesses, None) is not None
            return answers[key]

        return project

    def refuse(rels):
        raise ModalgError(
            f"{type(e).__name__} needs the explicit universe; structure-level check refused"
        )

    return refuse


def _tuples(op, valuation: Valuation) -> Callable:
    """A selection operand's tuples, None while its symbol is unknown."""
    if isinstance(op, Const):
        return lambda rels: op.tuples
    sym = valuation.symbol(op.name)
    return lambda rels: rels[sym].tuples if sym in rels else None


def _dfs_expansions(
    check: Callable,
    base: dict[str, RelationValue],
    symbols: Sequence[str],
    domain: Domain,
    vocab: Vocabulary,
) -> Iterator[dict[str, RelationValue]]:
    """All completions of base over `symbols` that pass check, canonical order."""
    value = check(base)
    if value is False:
        return
    if not symbols:
        if value:
            yield dict(base)
        return
    if value:
        check = lambda rels: True  # decided: every completion passes
    sym = symbols[0]
    for rv in all_relation_values(domain, vocab.arity(sym)):
        base[sym] = rv
        yield from _dfs_expansions(check, base, symbols[1:], domain, vocab)
        del base[sym]


def _models(
    e: FlatExpr,
    valuation: Valuation,
    domain: Domain,
    vocab: Vocabulary,
    fixed: Mapping[str, RelationValue],
) -> Iterator[Structure]:
    """Structures over domain and vocab that satisfy e and interpret each
    fixed symbol by its given value, in canonical order."""
    if _needs_universe(e):
        universe = build_universe(domain, vocab)
        sat = flat.eval_flat(e, valuation, universe).iset
        if fixed:
            sat = sat.intersection(values_index_set(universe, fixed))
        for i in sat.indices():
            yield universe.structure_at(i)
        return
    free = [n for n in vocab.names if n not in fixed]
    check = _compile(e, domain, vocab, valuation)
    for rels in _dfs_expansions(check, dict(fixed), free, domain, vocab):
        yield Structure.make(domain, vocab, rels)


# ---------------------------------------------------------------------------
# MC / MX / SAT / EV


def mc(e: FlatExpr, structure: Structure, valuation: Valuation) -> bool:
    """Model checking: does the structure satisfy the expression?"""
    needed = {valuation.symbol(v) for v in occurring_vars(e)}
    missing = needed - set(structure.vocabulary.names)
    if missing:
        raise IncompleteStructure(f"structure does not interpret {sorted(missing)}")
    rels = dict(zip(structure.vocabulary.names, structure.relations))
    models = _models(e, valuation, structure.domain, structure.vocabulary, rels)
    return next(models, None) is not None


def _inputs(sigma, structure: Structure, valuation: Valuation) -> dict[str, RelationValue]:
    """The input structure's relations by symbol; it interprets exactly sigma."""
    want, have = {valuation.symbol(v) for v in sigma}, set(structure.vocabulary.names)
    if have != want:
        raise WellformednessError(
            f"input structure interprets {sorted(have)}, expected exactly {sorted(want)}"
        )
    return dict(zip(structure.vocabulary.names, structure.relations))


def mx(
    e: FlatExpr,
    sigma,
    structure: Structure,
    valuation: Valuation,
    vocabulary: Optional[Vocabulary] = None,
    limit: int = MX_RESULT_LIMIT,
) -> list[Structure]:
    """Model expansion: all expansions of the input structure satisfying e,
    in canonical order."""
    fixed = _inputs(sigma, structure, valuation)
    vocab = vocabulary or task_vocabulary(e, valuation, structure.vocabulary)
    results = []
    for model in _models(e, valuation, structure.domain, vocab, fixed):
        results.append(model)
        if len(results) > limit:
            raise CapExceeded(f"more than {limit} expansions")
    return results


def sat_bounded(
    e: FlatExpr,
    valuation: Valuation,
    domain_cap: int,
    vocabulary: Optional[Vocabulary] = None,
) -> Optional[Structure]:
    """Search domains of size 1..domain_cap (prefixes of the valuation's
    domain) in canonical order; the first satisfying structure, else None.

    None is not a proof of unsatisfiability.
    """
    if domain_cap < 1 or domain_cap > len(valuation.domain):
        raise CapExceeded(
            f"domain cap {domain_cap} outside 1..{len(valuation.domain)} available names"
        )
    vocab = vocabulary or task_vocabulary(e, valuation)
    for size in range(1, domain_cap + 1):
        domain = Domain(valuation.domain.elements[:size])
        sub_val = Valuation(domain, valuation.var_map, valuation.modules, dict(valuation.env))
        model = next(_models(e, sub_val, domain, vocab, {}), None)
        if model is not None:
            return model
    return None


def ev(
    e: FlatExpr,
    sigma,
    structure: Structure,
    outputs: Mapping[str, RelationValue],
    valuation: Valuation,
    vocabulary: Optional[Vocabulary] = None,
) -> Optional[Structure]:
    """General evaluation: find internal relations making (A, R, E) satisfy e.

    Returns the canonically least witness structure, or None.
    """
    base = _inputs(sigma, structure, valuation)
    free = free_relational_vars(e)
    expected_outputs = {v for v in free if v not in set(sigma)}
    if expected_outputs != set(outputs):
        raise WellformednessError(
            f"outputs must interpret exactly the free non-input variables "
            f"{sorted(expected_outputs)}, got {sorted(outputs)}"
        )
    vocab = vocabulary or task_vocabulary(e, valuation, structure.vocabulary, outputs)
    for var, value in outputs.items():
        sym = valuation.symbol(var)
        if sym in vocab and value.arity != vocab.arity(sym):
            raise ArityMismatch(
                f"output {var} has arity {value.arity}, the vocabulary gives {vocab.arity(sym)}"
            )
        base[sym] = value
    return next(_models(e, valuation, structure.domain, vocab, base), None)


# ---------------------------------------------------------------------------
# Query evaluation through the singleton encoding


class FOFormula(Node):
    __slots__ = ()


@dataclass(frozen=True)
class FOAtom(FOFormula):
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class FOEq(FOFormula):
    left: str
    right: str


@dataclass(frozen=True)
class FOAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOOr(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FONot(FOFormula):
    inner: FOFormula


@dataclass(frozen=True)
class FOExists(FOFormula):
    var: str
    body: FOFormula


def fo_free_vars(f: FOFormula) -> tuple[str, ...]:
    """Free object variables in first-occurrence order."""
    out: list[str] = []

    def visit(node: FOFormula, bound: frozenset[str]) -> None:
        if isinstance(node, FOExists):
            bound = bound | {node.var}
        used = node.args if isinstance(node, FOAtom) else ()
        if isinstance(node, FOEq):
            used = (node.left, node.right)
        for a in used:
            if a not in bound and a not in out:
                out.append(a)
        for child in children(node):
            visit(child, bound)

    visit(f, frozenset())
    return tuple(out)


def _singleton(domain: Domain, rels: Sequence[RelationValue]) -> bool:
    return len(rels[0].tuples) == 1


def _holds1(domain: Domain, rels: Sequence[RelationValue]) -> bool:
    r, a = rels
    return len(a.tuples) == 1 and (next(iter(a.tuples))[0],) in r.tuples


def _holds2(domain: Domain, rels: Sequence[RelationValue]) -> bool:
    r, a, b = rels
    if len(a.tuples) != 1 or len(b.tuples) != 1:
        return False
    return (next(iter(a.tuples))[0], next(iter(b.tuples))[0]) in r.tuples


def _eq1(domain: Domain, rels: Sequence[RelationValue]) -> bool:
    a, b = rels
    return len(a.tuples) == 1 and a.tuples == b.tuples


QE_MODULES = {
    "sing": AtomicModule.builtin("sing", [("A", 1)], fn=_singleton),
    "eq1": AtomicModule.builtin("eq1", [("A", 1), ("B", 1)], fn=_eq1),
    "holds1": AtomicModule.builtin("holds1", [("R", 1), ("A", 1)], fn=_holds1),
    "holds2": AtomicModule.builtin("holds2", [("R", 2), ("A", 1), ("B", 1)], fn=_holds2),
}


@dataclass(frozen=True)
class IoAssignment:
    """Per-atomic-occurrence input/output split for internal variables."""

    choices: tuple[tuple[int, str, str], ...]  # (occurrence, variable, 'in'|'out')

    def direction(self, occurrence: int, var: str) -> Optional[str]:
        return next((d for occ, v, d in self.choices if (occ, v) == (occurrence, var)), None)

    def label(self) -> str:
        if not self.choices:
            return "<none>"
        return ", ".join(f"#{occ}.{v}={d}" for occ, v, d in self.choices)


@dataclass
class TaskInstance:
    """A formula with designated inputs, the input structure, designated
    output variables (values optional), and the valuation."""

    formula: FlatExpr
    sigma: frozenset[str]
    structure: Structure
    output_vars: tuple[str, ...]
    outputs: dict[str, RelationValue] = field(default_factory=dict)
    valuation: Valuation = None
    vocabulary: Vocabulary = None


def qe_encode(query: FOFormula, db: Structure) -> TaskInstance:
    """Encode a first-order query as an evaluation instance whose witnesses
    biject with the answer tuples (object variables become unary singleton
    relational variables)."""
    free = fo_free_vars(query)
    db_syms = set(db.vocabulary.names)
    all_vars = set(free) | {node.var for node in walk(query) if isinstance(node, FOExists)}
    clash = all_vars & db_syms
    if clash:
        raise NonSingletonEncoding(
            f"query variables {sorted(clash)} collide with database symbols"
        )

    def translate(node: FOFormula) -> FlatExpr:
        if isinstance(node, FOAtom):
            arity = db.vocabulary.arity(node.pred)
            if arity == 1:
                return flat.Atom("holds1", (node.pred,) + node.args)
            if arity == 2:
                return flat.Atom("holds2", (node.pred,) + node.args)
            raise NonSingletonEncoding(f"predicate {node.pred} has unsupported arity {arity}")
        if isinstance(node, FOEq):
            return flat.Atom("eq1", (node.left, node.right))
        if isinstance(node, FOAnd):
            return flat.intersect(translate(node.left), translate(node.right))
        if isinstance(node, FOOr):
            return flat.Union(translate(node.left), translate(node.right))
        if isinstance(node, FONot):
            return flat.Complement(translate(node.inner))
        if isinstance(node, FOExists):
            body = flat.intersect(translate(node.body), flat.Atom("sing", (node.var,)))
            keep = (occurring_vars(body) | frozenset(db_syms)) - {node.var}
            return flat.Project(frozenset(keep), body)
        raise TypeError(f"not a first-order formula: {node!r}")

    e = translate(query)
    for var in free:
        e = flat.intersect(e, flat.Atom("sing", (var,)))
    symbols = list(db.vocabulary.symbols) + [(v, 1) for v in free]
    quantified = sorted(all_vars - set(free))
    symbols += [(v, 1) for v in quantified]
    vocab = Vocabulary(tuple(symbols))
    valuation = Valuation(db.domain, {}, QE_MODULES)
    return TaskInstance(
        formula=e,
        sigma=frozenset(db_syms),
        structure=db,
        output_vars=tuple(free),
        outputs={},
        valuation=valuation,
        vocabulary=vocab,
    )


def qe_answers(instance: TaskInstance) -> set[tuple[str, ...]]:
    """All answer tuples: assignments of domain elements to the output
    variables for which the evaluation instance has a witness."""
    domain = instance.structure.domain
    answers = set()
    for combo in itertools.product(domain.elements, repeat=len(instance.output_vars)):
        outputs = {
            var: RelationValue.of(1, [(el,)])
            for var, el in zip(instance.output_vars, combo)
        }
        witness = ev(
            instance.formula,
            instance.sigma,
            instance.structure,
            outputs,
            instance.valuation,
            instance.vocabulary,
        )
        if witness is not None:
            answers.add(combo)
    return answers


# ---------------------------------------------------------------------------
# Temporal tasks


def temp_mc(
    phi: lmumu.StateExpr, structure: Structure, valuation: Valuation, universe: Universe
) -> bool:
    """Temporal model checking: does the state satisfy the formula?"""
    return structure in lmumu.eval_state(phi, valuation, universe)


def temp_mc_search(
    phi: lmumu.StateExpr, valuation: Valuation, universe: Universe
) -> list[Structure]:
    """All satisfying states, in canonical order."""
    return list(lmumu.eval_state(phi, valuation, universe).structures())


def _propositional_check(phi: lmumu.StateExpr, valuation: Valuation) -> frozenset[str]:
    """Validate the propositional restriction; returns the variables used."""
    variables = lmumu.state_vars(phi)
    modules = {
        node.module
        for node in walk(phi)
        if isinstance(node, (lmumu.Prop, dynamic.Test, dynamic.Action))
    }
    for name in modules:
        module = valuation.module(name)
        if not module.propositional:
            raise NonPropositionalFormula(f"module {name} is not marked propositional")
        for var, arity in module.vvoc:
            if arity != 1:
                raise NonPropositionalFormula(f"module {name} uses non-unary variable {var}")
    return variables


def temp_sat_prop(
    phi: lmumu.StateExpr, valuation: Valuation
) -> Optional[tuple[Universe, Structure]]:
    """Satisfiability for propositional formulas, over the one-element-domain
    universe only (one domain element is enough for this fragment)."""
    variables = _propositional_check(phi, valuation)
    symbols = sorted({valuation.symbol(v) for v in variables})
    domain = Domain((valuation.domain.elements[0],))
    vocab = Vocabulary(tuple((s, 1) for s in symbols))
    universe = build_universe(domain, vocab)
    small = Valuation(domain, valuation.var_map, valuation.modules, {})
    sat = lmumu.eval_state(phi, small, universe)
    for i in sat.indices():
        return universe, universe.structure_at(i)
    return None


def reach(
    a: dynamic.ProcExpr,
    structure: Structure,
    goal: Mapping[str, RelationValue],
    valuation: Valuation,
    universe: Universe,
) -> bool:
    """Is there an a-labelled edge from the state to a goal-satisfying state?

    The goal is a conjunction of constant tests on designated variables. It
    is met by a's forward image of the state (lmumu.image, side 1), which
    builds no pair for the operators the image follows; temporal model
    checking answers the same question backward (side 0).
    """
    return _reach(a, structure, goal, valuation, flat.EvalContext(universe))


def _reach(
    a: dynamic.ProcExpr,
    structure: Structure,
    goal: Mapping[str, RelationValue],
    valuation: Valuation,
    ctx: flat.EvalContext,
) -> bool:
    u = ctx.universe
    source = IndexSet(u.size, [u.index_of(structure)])
    goal_states = values_index_set(
        u, {valuation.symbol(var): value for var, value in goal.items()}
    )
    return bool(lmumu.image(a, ctx, valuation, source, 1).intersection(goal_states))


# ---------------------------------------------------------------------------
# The three-way equivalence report


def _atom_occurrences(e: FlatExpr) -> list[flat.Atom]:
    """Atoms left to right, numbered as dynamize numbers them."""
    return [node for node in walk(e) if isinstance(node, flat.Atom)]


def enumerate_io_assignments(
    e: FlatExpr, internal_vars: frozenset[str]
) -> list[IoAssignment]:
    """Every in/out choice for each internal variable at each atom occurrence."""
    slots: list[tuple[int, str]] = []
    for occ, atom in enumerate(_atom_occurrences(e)):
        for var in atom.args:
            if var in internal_vars and (occ, var) not in slots:
                slots.append((occ, var))
    return [
        IoAssignment(tuple((occ, var, d) for (occ, var), d in zip(slots, dirs)))
        for dirs in itertools.product(("in", "out"), repeat=len(slots))
    ]


def dynamize(
    e: FlatExpr,
    sigma: frozenset[str],
    output_vars: frozenset[str],
    assignment: IoAssignment,
) -> dynamic.ProcExpr:
    """Turn a flat formula into a process by designating information flow
    on its atoms: input variables flow in, output variables flow out,
    internal variables per the assignment. Each atom becomes an action; the
    operators above the atoms are shared by the two sorts and stay as they
    are."""
    counter = itertools.count()

    def convert(node: FlatExpr) -> dynamic.ProcExpr:
        if isinstance(node, flat.Atom):
            occ = next(counter)
            ins, outs = set(), set()
            for var in node.args:
                if var in sigma:
                    ins.add(var)
                elif var in output_vars:
                    outs.add(var)
                else:
                    direction = assignment.direction(occ, var)
                    if direction is None:
                        raise WellformednessError(
                            f"no direction for internal variable {var} at occurrence {occ}"
                        )
                    (ins if direction == "in" else outs).add(var)
            return dynamic.Action(node.module, node.args, frozenset(ins), frozenset(outs))
        return map_children(node, convert)  # atoms numbered left to right

    return convert(e)


@dataclass
class EquivalenceRow:
    assignment: IoAssignment
    temp_mc: bool
    reach: bool
    ev: bool

    @property
    def agree(self) -> bool:
        return self.temp_mc == self.reach == self.ev


@dataclass
class EquivalenceReport:
    rows: list[EquivalenceRow]

    @property
    def passed(self) -> bool:
        return all(row.agree for row in self.rows)

    def summary(self) -> str:
        lines = [
            f"{row.assignment.label():40s} temp-MC={row.temp_mc!s:5s} "
            f"REACH={row.reach!s:5s} EV={row.ev!s:5s} "
            f"{'agree' if row.agree else 'DISAGREE'}"
            for row in self.rows
        ]
        lines.append("pass" if self.passed else "FAIL")
        return "\n".join(lines)


def _const_modules(outputs: Mapping[str, RelationValue]) -> dict[str, AtomicModule]:
    return {
        f"const_{var}": AtomicModule.extensional(f"const_{var}", [(var, value.arity)], [(value,)])
        for var, value in outputs.items()
    }


def equivalence_check(
    e: FlatExpr,
    sigma,
    structure: Structure,
    outputs: Mapping[str, RelationValue],
    valuation: Valuation,
    vocabulary: Optional[Vocabulary] = None,
    cap: int = DEFAULT_UNIVERSE_CAP,
) -> EquivalenceReport:
    """Check temp-MC = REACH = EV under every internal in/out assignment.

    The initial state interprets the inputs from A, the designated outputs
    from E, and the (projection-hidden) internal symbols as empty relations.
    """
    sigma = frozenset(sigma)
    free = free_relational_vars(e)
    internal = occurring_vars(e) - free
    output_vars = frozenset(outputs)
    if sigma & output_vars:
        raise WellformednessError(
            f"variables {sorted(sigma & output_vars)} are designated both input and output"
        )
    if free != sigma | output_vars:
        raise WellformednessError(
            f"designated inputs/outputs {sorted(sigma | output_vars)} must cover the "
            f"free variables {sorted(free)}"
        )
    vocab = vocabulary or task_vocabulary(e, valuation, structure.vocabulary, outputs)
    universe = build_universe(structure.domain, vocab, cap)
    # the arity check: raises ArityMismatch when e uses a variable at two
    # arities, which a given vocabulary would otherwise leave to evaluation
    infer_arities(e, valuation)

    interpretation: dict[str, RelationValue] = {
        s: structure.rel(s) for s in structure.vocabulary.names
    }
    for var, value in outputs.items():
        interpretation[valuation.symbol(var)] = value
    for name, arity in vocab.symbols:
        interpretation.setdefault(name, RelationValue.of(arity))
    initial = Structure.make(structure.domain, vocab, interpretation)

    goal_modules = _const_modules(outputs)
    val2 = valuation.with_modules(goal_modules)
    props = [lmumu.Prop(f"const_{var}", (var,)) for var in sorted(outputs)]
    goal_formula = functools.reduce(lmumu.And, props) if props else lmumu.TOP

    ev_witness = ev(e, sigma, structure, dict(outputs), valuation, vocab)
    ev_ok = ev_witness is not None

    # every row's temp-MC and REACH share one context, so each atom's
    # extension is built once per call
    ctx = flat.EvalContext(universe)
    source = universe.index_of(initial)
    rows = []
    for assignment in enumerate_io_assignments(e, internal):
        alpha = dynamize(e, sigma, output_vars, assignment)
        tmc = source in flat._eval(lmumu.Diamond(alpha, goal_formula), ctx, val2)
        rch = _reach(alpha, initial, dict(outputs), val2, ctx)
        rows.append(EquivalenceRow(assignment, tmc, rch, ev_ok))
    return EquivalenceReport(rows)
