"""The set representation is known to indexsets.py alone.

Every other module goes through the methods of IndexSet (state sets) and
PairSet (pair sets) and the operations next to them; none reads a state
set's bitmap, a pair set's stored members or complement flag, or enforces
the budget itself, and none lists the submasks of a bitmask. None knows
the pair code either: pair sets are built from and read as (i, j) pairs,
and take state masks.

The atom rule, the action normal form of the process evaluators, the
fixed-point rounds of every sort and the task layer's choice of search are
likewise in one function each, and the image of a state set under a
process, in either direction, falls back to pair sets in one function. The
concrete syntax of the operators is one table, which the parser and the
printer both read. A fresh import of the package leaves no earlier copy of
it alive.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import modalg

SOURCES = sorted(Path(modalg.__file__).parent.glob("*.py"))


def _uses(path):
    """(kind, name, enclosing function) for every attribute read, name and
    imported name; an attribute of a plain name is also listed qualified,
    `module.attribute`."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute):
            out.append(("attribute", node.attr, function))
            if isinstance(node.value, ast.Name):
                out.append(("qualified", f"{node.value.id}.{node.attr}", function))
        elif isinstance(node, ast.Name):
            out.append(("name", node.id, function))
        elif isinstance(node, ast.alias):
            out.append(("name", node.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return out


def test_representation_confined_to_indexsets():
    assert any(path.name == "indexsets.py" for path in SOURCES)
    leaks = []
    for path in SOURCES:
        if path.name == "indexsets.py":
            continue
        for kind, name, function in _uses(path):
            if kind == "attribute" and name in ("bitmap", "negated", "members"):
                leaks.append((path.name, function, name))
            elif name in ("MATERIALIZE_LIMIT", "submasks"):
                leaks.append((path.name, function, name))
    assert leaks == []


def test_pair_code_confined_to_indexsets():
    """Outside indexsets.py no code builds a PairSet from codes or splits a
    code, and only core.py, which lays out the slots, reads total_bits."""
    home = {"PairSet": "indexsets.py", "divmod": "indexsets.py", "total_bits": "core.py"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in home:
                found.append((path.name, node.func.id))
            elif isinstance(node, ast.Attribute) and node.attr == "total_bits":
                found.append((path.name, node.attr))
    assert [(where, name) for where, name in found if home[name] != where] == []


def test_one_rule_for_the_shared_operators():
    """ModuleVar, Union, Complement, Project and Lfp mean the same on sets of
    structures and of pairs: neither evaluator names them, both hand them
    to flat._shared. StructureSet and EdgeSet share one set algebra."""
    from modalg import core, dynamic, flat

    shared = {"ModuleVar", "Union", "Complement", "Project", "Lfp"}
    for path, function in (("flat.py", "_eval"), ("dynamic.py", "_eval_dyn_inner")):
        body = next(node for node in ast.walk(ast.parse(_source(path).read_text()))
                    if isinstance(node, ast.FunctionDef) and node.name == function)
        assert not {node.id for node in ast.walk(body) if isinstance(node, ast.Name)} & shared
        assert "_shared" in {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert {cls.__name__ for cls in flat.SHARED} == shared
    edge_set = next(node for node in ast.walk(ast.parse(_source("dynamic.py").read_text()))
                    if isinstance(node, ast.ClassDef) and node.name == "EdgeSet")
    declared = {node.name for node in edge_set.body if isinstance(node, ast.FunctionDef)}
    assert not declared & {"union", "intersection", "complement", "__eq__", "__hash__",
                           "__len__"}
    assert dynamic.EdgeSet.__mro__[1] is core.StructureSet.__mro__[1] is core.UniverseSet
    assert not hasattr(core.StructureSet, "full")


def _functions_using(path, name):
    return {function for _, used, function in _uses(path) if used == name and function}


def test_one_atom_rule():
    """Outside core.py, one function builds atom extensions."""
    callers = {
        (path.name, function)
        for path in SOURCES if path.name != "core.py"
        for function in _functions_using(path, "extension_index_set")
    }
    assert len(callers) == 1, callers


def test_one_fixpoint_loop():
    """One function of flat.py runs the least-fixed-point rounds, naive and
    semi-naive alike, for Lfp nodes of every sort, lmumu's stars and
    lfp_iterate: it alone checks monotonicity and records the round count.
    fixpoint_plan reads the body through syntax.walk."""
    from modalg import flat

    path = _source("flat.py")
    raising = _functions_using(path, "NonMonotoneDetected")
    recording = _functions_using(path, "record_fixpoint")
    assert len(raising) == 1 and raising == recording, (raising, recording)
    assert not hasattr(flat, "_lfp_indexsets")
    assert not [name for name in ("_iterate", "fixpoint") if hasattr(flat.EvalContext, name)]
    plan = next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "fixpoint_plan")
    assert not [node for node in ast.walk(plan) if node is not plan
                and isinstance(node, (ast.FunctionDef, ast.Lambda))]
    assert "fixpoint_plan" in _functions_using(path, "walk")


def test_one_model_search_fork():
    """One function in tasks.py chooses between the structure-level search
    and an explicit universe."""
    tasks = next(path for path in SOURCES if path.name == "tasks.py")
    forks = _functions_using(tasks, "_needs_universe")
    assert len(forks) == 1, forks


def _source(name):
    return next(path for path in SOURCES if path.name == name)


def _imported_names(path):
    """(module, name) for every `from module import name`."""
    return {(node.module.split(".")[-1], alias.name)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names}


def test_one_pair_fallback_for_modalities():
    """Diamonds, boxes and reachability go through lmumu.image, one function
    for both directions; a process's pairs are built for it only in its one
    fallback, which takes their image. Outside indexsets.py the pair-set
    image serves only that fallback and dynamic's dn/up/neg. The task layer
    builds no pairs itself."""
    from modalg import indexsets, lmumu

    gone = ("pre", "post", "_pre_by_pairs", "_post_by_pairs")
    assert not [name for name in gone if hasattr(lmumu, name)]
    assert not [name for name in ("preimage", "sources", "targets", "_image")
                if hasattr(indexsets, name)]
    assert _functions_using(_source("lmumu.py"), "_eval_dyn") == {"image"}
    image_users = set()
    for path in SOURCES:
        if path.name == "indexsets.py":
            continue
        image_users |= {(path.name, f) for f in _functions_using(path, "indexsets.image")}
        if ("indexsets", "image") in _imported_names(path):
            image_users |= {(path.name, f) for f in _functions_using(path, "image")}
    assert image_users == {("lmumu.py", "image"), ("dynamic.py", "_eval_dyn_inner")}
    assert not {name for _, name, _ in _uses(_source("lmumu.py"))} & {
        "restrict", "targets", "preimage"}
    tasks = _source("tasks.py")
    assert not _functions_using(tasks, "eval_dyn") | _functions_using(tasks, "_eval_dyn")


def test_one_form_rule_for_both_process_evaluators():
    """Actions, tests, and their intersections and projections are read in
    one action normal form, dynamic.action_form, by lmumu.image and by
    eval_dyn alike. Outside indexsets.py, inertia builds pairs only in
    dynamic._eval_dyn_inner: a form's pairs, and the diagonals of the
    operators that have no form."""
    from modalg import dynamic, indexsets, lmumu

    declaring = {path.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "action_form"}
    assert declaring == {"dynamic.py"}
    assert not hasattr(lmumu, "action_form") and not hasattr(indexsets, "diagonal")
    assert not [name for name in ("diagonal_states", "TESTS", "diagonal") if hasattr(dynamic, name)]
    callers = {(path.name, function) for path in SOURCES if path.name != "indexsets.py"
               for function in _functions_using(path, "inertia")}
    assert callers == {("dynamic.py", "_eval_dyn_inner")}


SHARED_OPERATORS = ("Bottom", "ModuleVar", "Union", "Complement", "Project", "Select", "Lfp",
                    "intersect")
# the state names of the operators the state logic shares with the other sorts
STATE_OPERATORS = {"Bottom": "Bottom", "SetVar": "ModuleVar", "Or": "Union", "Lfp": "Lfp"}


def test_each_operator_declared_once():
    """The process calculus and the state logic reuse the flat algebra's
    operators: neither dynamic nor lmumu declares a class or function under
    a name flat declares, and both re-export the shared ones, lmumu under
    its state names. flat._eval is the one evaluator of state sets."""
    from modalg import dynamic, flat, lmumu

    def declared(module):
        return {name for name, value in vars(module).items()
                if callable(value) and getattr(value, "__module__", None) == module.__name__}

    assert declared(dynamic) & declared(flat) == set()
    assert declared(lmumu) & (declared(flat) | set(STATE_OPERATORS)) == set()
    for name in SHARED_OPERATORS:
        assert getattr(dynamic, name) is getattr(flat, name), name
        assert name in declared(flat), name
    for state_name, name in STATE_OPERATORS.items():
        assert getattr(lmumu, state_name) is getattr(flat, name), state_name
    assert not hasattr(lmumu, "_eval_state") and not hasattr(flat, "_scoping")


def test_one_syntax_table():
    """Each operator's concrete syntax is one row of printer.OPERATORS, read
    by the parser and the printer alike: one parser method climbs the infix
    rows, none is written per sort, and the printer emits each class row's
    nodes through the row itself."""
    from modalg import parser, printer

    per_sort = ("parse_flat", "parse_dyn", "parse_state", "parse_shared_prefix")
    assert not [name for name in vars(parser._Parser) if name.startswith(per_sort)]
    methods = next(node for node in ast.walk(ast.parse(_source("parser.py").read_text()))
                   if isinstance(node, ast.ClassDef) and node.name == "_Parser").body
    climbing = [method.name for method in methods if isinstance(method, ast.FunctionDef)
                and "INFIX" in {node.id for node in ast.walk(method) if isinstance(node, ast.Name)}]
    assert climbing == ["parse_expr"]
    assert any(isinstance(node, (ast.While, ast.For))
               for method in methods if getattr(method, "name", None) == "parse_expr"
               for node in ast.walk(method))
    rows = [row for row in printer.OPERATORS if isinstance(row.ctor, type)]
    assert len({row.ctor for row in printer.OPERATORS}) == len(printer.OPERATORS)
    emitters = {row.ctor: getattr(printer._EMITTERS[row.ctor], "__self__", None) for row in rows}
    assert [row for row in rows if emitters[row.ctor] is not row] == []
    assert not [name for name in ("_binary", "_prefix", "_postfix", "_mu")
                if hasattr(printer, name)]


def _imports(path):
    """(imported module, enclosing function) for every import statement."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            out.extend((name.split(".")[-1], function) for name in names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name.split(".")[-1], function) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return out


def test_lower_layers_do_not_import_the_sorts_above():
    """syntax and flat import nothing from dynamic or lmumu at module level;
    flat reaches lmumu only in _eval, for the state-only nodes."""
    found = {
        (path.name, module, function)
        for path in SOURCES if path.name in ("flat.py", "syntax.py")
        for module, function in _imports(path) if module in ("dynamic", "lmumu")
    }
    assert found == {("flat.py", "lmumu", "_eval")}


_FRESH_IMPORT = """
import gc, sys, types, weakref
import modalg.cli, modalg.export, modalg.tasks

def definitions():
    return [value for name, module in list(sys.modules.items()) if name.startswith("modalg")
            for value in vars(module).values()
            if isinstance(value, (type, types.FunctionType)) and value.__module__ == name]

first = [weakref.ref(value) for value in definitions()]
for name in [name for name in sys.modules if name.startswith("modalg")]:
    del sys.modules[name]
import modalg.cli, modalg.export, modalg.tasks
gc.collect()
print(sorted({f"{r().__module__}.{r().__qualname__}" for r in first if r() is not None}))
"""


def test_a_fresh_import_frees_the_last():
    """Imported afresh, as a reload or a benchmark set-up does, the package
    leaves no earlier copy alive: no module-level value, such as a
    subscripted typing alias kept in typing's cache, holds on to its
    classes and through them to every module they reach."""
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    run = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
