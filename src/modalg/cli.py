"""Command-line entry points.

Exit codes: 0 success (and "yes"/non-empty for decision tasks), 1 for
"no"/empty answers of decision tasks, 2 for errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import tasks
from .core import DEFAULT_UNIVERSE_CAP, RelationValue, Structure, Vocabulary, build_universe
from .errors import ModalgError
from .export import collect_stats, export_dot, export_json
from .flat import eval_flat
from .dynamic import eval_dyn
from .lmumu import eval_state, translate_two_sorted
from .parser import SpecFile, TaskDirective, parse_relation, parse_spec
from .printer import to_text


def _load_spec(path: str) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModalgError(f"cannot read {path}: {exc}") from exc
    spec = parse_spec(text)
    if spec.domain is None or spec.vocabulary is None:
        raise ModalgError(f"{path}: spec must declare a domain and a vocab")
    return spec


def _definition(spec: SpecFile, sort: str, name: str, reader: str):
    """The spec's definition named name among those of the sort ("flat",
    "dyn" or "state") that reader, a command or task kind, reads."""
    defs = getattr(spec, f"{sort}_defs")
    if name not in defs:
        have = [k for k in ("flat", "dyn", "state") if name in getattr(spec, f"{k}_defs")]
        if have:
            raise ModalgError(f"{name} is a {have[0]} definition; {reader} reads {sort} definitions")
        raise ModalgError(f"no {sort} definition named {name}")
    return defs[name]


def _bindings_from_args(pairs: list[str]) -> dict[str, RelationValue]:
    out: dict[str, RelationValue] = {}
    for item in pairs or []:
        if "=" not in item:
            raise ModalgError(f"binding {item!r} is not of the form NAME={{...}}")
        name, _, literal = item.partition("=")
        out[name.strip()] = parse_relation(literal.strip())
    return out


def _structure_from_bindings(
    spec: SpecFile, bindings: dict[str, RelationValue], symbols: Optional[list[str]] = None
) -> Structure:
    """Structure over the named symbols (vocabulary order); unbound symbols
    default to the empty relation."""
    vocab = spec.vocabulary
    if symbols is None:
        chosen = list(vocab.symbols)
    else:
        chosen = [(n, a) for n, a in vocab.symbols if n in set(symbols)]
        missing = set(symbols) - {n for n, _ in chosen}
        if missing:
            raise ModalgError(f"symbols {sorted(missing)} not in the vocabulary")
    unknown = set(bindings) - {n for n, _ in chosen}
    if unknown:
        raise ModalgError(f"bindings for symbols outside the instance: {sorted(unknown)}")
    interpretation = {}
    for name, arity in chosen:
        value = bindings.get(name, RelationValue.of(arity))
        if value.arity != arity:
            raise ModalgError(f"binding for {name} has arity {value.arity}, expected {arity}")
        interpretation[name] = value
    return Structure.make(spec.domain, Vocabulary(tuple(chosen)), interpretation)


def _print_structures(structures) -> int:
    count = 0
    for s in structures:
        print(s.describe())
        count += 1
    return count


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eval_flat(args) -> int:
    spec = _load_spec(args.spec)
    e = _definition(spec, "flat", args.expr, "eval-flat")
    universe = build_universe(spec.domain, spec.vocabulary, args.cap)
    result = eval_flat(e, spec.valuation(), universe)
    for i in result.indices():
        print(f"{i}\t{universe.structure_at(i).describe()}")
    return 0


def _cmd_eval_dyn(args) -> int:
    spec = _load_spec(args.spec)
    a = _definition(spec, "dyn", args.expr, "eval-dyn")
    universe = build_universe(spec.domain, spec.vocabulary, args.cap)
    result = eval_dyn(a, spec.valuation(), universe)
    for i, j in sorted(result.pairs()):
        print(f"{i} -> {j}")
    return 0


def _cmd_eval_state(args) -> int:
    spec = _load_spec(args.spec)
    phi = _definition(spec, "state", args.expr, "eval-state")
    universe = build_universe(spec.domain, spec.vocabulary, args.cap)
    result = eval_state(phi, spec.valuation(), universe)
    for i in result.indices():
        print(f"{i}\t{universe.structure_at(i).describe()}")
    return 0


def _cmd_translate(args) -> int:
    spec = _load_spec(args.spec)
    print(to_text(translate_two_sorted(_definition(spec, "state", args.expr, "translate"))))
    return 0


def _cmd_export_dot(args) -> int:
    spec = _load_spec(args.spec)
    a = _definition(spec, "dyn", args.expr, "export-dot")
    universe = build_universe(spec.domain, spec.vocabulary, args.cap)
    ts, _ = collect_stats(a, spec.valuation(), universe)
    export_dot(ts, args.output)
    if args.json:
        export_json(ts, args.json)
    return 0


def _cmd_stats(args) -> int:
    spec = _load_spec(args.spec)
    a = _definition(spec, "dyn", args.expr, "stats")
    universe = build_universe(spec.domain, spec.vocabulary, args.cap)
    _, stats = collect_stats(a, spec.valuation(), universe)
    if args.json:
        print(json.dumps(stats.to_json(), indent=1, sort_keys=True))
    else:
        print(stats.render())
    return 0


# the sort of the definition each task kind reads
_TASK_SORTS = {"mc": "flat", "mx": "flat", "ev": "flat", "equiv": "flat",
              "temp-mc": "state", "temp-sat": "state", "reach": "dyn"}


def _run_task(spec: SpecFile, directive: TaskDirective, cap: int) -> int:
    valuation = spec.valuation()
    kind = directive.kind
    if kind not in _TASK_SORTS:
        raise ModalgError(f"unknown task kind {kind!r}")
    e = _definition(spec, _TASK_SORTS[kind], directive.formula, kind)
    if kind == "mc":
        structure = _structure_from_bindings(spec, directive.bindings)
        ok = tasks.mc(e, structure, valuation)
        print("yes" if ok else "no")
        return 0 if ok else 1
    if kind == "mx":
        sigma_syms = sorted(directive.sigma)
        structure = _structure_from_bindings(spec, directive.bindings, sigma_syms)
        expansions = tasks.mx(e, directive.sigma, structure, valuation, spec.vocabulary)
        count = _print_structures(expansions)
        return 0 if count else 1
    if kind == "ev":
        sigma_syms = sorted(directive.sigma)
        structure = _structure_from_bindings(spec, directive.bindings, sigma_syms)
        witness = tasks.ev(
            e, directive.sigma, structure, directive.outputs, valuation, spec.vocabulary
        )
        if witness is None:
            print("no")
            return 1
        print(witness.describe())
        return 0
    if kind == "temp-mc":
        structure = _structure_from_bindings(spec, directive.bindings)
        universe = build_universe(spec.domain, spec.vocabulary, cap)
        ok = tasks.temp_mc(e, structure, valuation, universe)
        print("yes" if ok else "no")
        return 0 if ok else 1
    if kind == "temp-sat":
        witness = tasks.temp_sat_prop(e, valuation)
        if witness is None:
            print("no")
            return 1
        print(witness[1].describe())
        return 0
    if kind == "reach":
        structure = _structure_from_bindings(spec, directive.bindings)
        universe = build_universe(spec.domain, spec.vocabulary, cap)
        ok = tasks.reach(e, structure, directive.outputs, valuation, universe)
        print("yes" if ok else "no")
        return 0 if ok else 1
    # equiv
    sigma_syms = sorted(directive.sigma)
    structure = _structure_from_bindings(spec, directive.bindings, sigma_syms)
    report = tasks.equivalence_check(
        e, directive.sigma, structure, directive.outputs, valuation,
        spec.vocabulary, cap
    )
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_task(args) -> int:
    spec = _load_spec(args.spec)
    if args.name:
        if args.name not in spec.tasks:
            raise ModalgError(f"no task directive named {args.name}")
        directive = spec.tasks[args.name]
    else:
        if not args.kind or not args.formula:
            raise ModalgError("either --name or both --kind and --formula are required")
        directive = TaskDirective(
            name="<cli>",
            kind=args.kind,
            formula=args.formula,
            sigma=frozenset(args.sigma.split(",")) if args.sigma else frozenset(),
            bindings=_bindings_from_args(args.bind),
            outputs=_bindings_from_args(args.out),
        )
    return _run_task(spec, directive, args.cap)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modalg",
        description="Explicit-state engine for the lifted relational algebra "
        "and its information-flow calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help=".mod spec file")
        p.add_argument("--cap", type=int, default=DEFAULT_UNIVERSE_CAP,
                       help="universe bit cap (default %(default)s)")

    p = sub.add_parser("eval-flat", help="print the extension of a flat definition")
    common(p)
    p.add_argument("-e", "--expr", required=True)
    p.set_defaults(func=_cmd_eval_flat)

    p = sub.add_parser("eval-dyn", help="print the edge set of a process definition")
    common(p)
    p.add_argument("-e", "--expr", required=True)
    p.set_defaults(func=_cmd_eval_dyn)

    p = sub.add_parser("eval-state", help="print the states satisfying a state definition")
    common(p)
    p.add_argument("-e", "--expr", required=True)
    p.set_defaults(func=_cmd_eval_state)

    p = sub.add_parser("translate", help="print the minimal-syntax form of a state definition")
    common(p)
    p.add_argument("-e", "--expr", required=True)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("export-dot", help="write the transition system of a process definition")
    common(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", help="also write a JSON export")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("stats", help="evaluation statistics for a process definition")
    common(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("task", help="run a reasoning task")
    common(p)
    p.add_argument("--name", help="task directive declared in the spec file")
    p.add_argument("--kind", choices=["mc", "mx", "ev", "temp-mc", "reach", "temp-sat", "equiv"])
    p.add_argument("--formula", help="definition name")
    p.add_argument("--sigma", help="comma-separated input variables")
    p.add_argument("--bind", action="append", metavar="SYM={(a),(b)}",
                   help="input structure binding (repeatable)")
    p.add_argument("--out", action="append", metavar="VAR={(a)}",
                   help="designated output binding (repeatable)")
    p.set_defaults(func=_cmd_task)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
