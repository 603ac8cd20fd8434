"""Surface syntax, printer round-trips, CLI behaviour, exports."""

import json
import random
from pathlib import Path

import pytest

from _gen import (random_any_proc, random_flat, random_proc_with_tests, random_state,
                  three_element_setup)
from modalg import dynamic as D
from modalg import flat as F
from modalg import lmumu as S
from modalg.cli import main
from modalg.core import Domain, Vocabulary, build_universe
from modalg.dynamic import build_transition_system, eval_dyn
from modalg.export import render_dot, ts_to_json
from modalg.errors import CapExceeded, SpecSyntaxError
from modalg.lmumu import eval_state
from modalg.parser import parse_dyn, parse_flat, parse_spec, parse_state
from modalg.printer import to_text
from modalg.syntax import walk

DEMO = """
domain {a, b};
vocab {P/1, Q/1};

module FullP(P0/1) = structures { {P0: {(a),(b)}} };
module EmptyQ(Q0/1) = structures { {Q0: {}} };
module Nonempty(N0/1) = truth { (1) };

flat top = -bot;
flat same = sel[P == Q] top;
flat fullp = FullP(P);

dyn setp = FullP(out P);
dyn nil = diag;
dyn walk = setp*;

state isfull = prop FullP(P);
state canfill = <setp> isfull;
state sometime = mu X . isfull | <setp> X;

task yes = mc same with { P: {(a)}, Q: {(a)} };
task no = mc same with { P: {(a)}, Q: {(b)} };
task expand = mx fullp sigma {Q} with { Q: {(b)} };
task probe = temp-mc canfill with { P: {}, Q: {} };
task satq = temp-sat nonref;
state nonref = prop Nonempty(P) | !prop Nonempty(P);
"""


class TestParseExamples:
    def test_bot(self):
        assert parse_flat("bot") == F.Bottom()

    def test_pipeline(self):
        got = parse_flat("pi{V,X,Z,T} (HC(V,X,Y) & TwoCol(V,Y,Z,T))")
        expected = F.Project(
            frozenset({"V", "X", "Z", "T"}),
            F.intersect(F.Atom("HC", ("V", "X", "Y")), F.Atom("TwoCol", ("V", "Y", "Z", "T"))),
        )
        assert got == expected

    def test_star_encoding(self):
        got = parse_dyn("mu Z . (diag | Z ; A(in P; out Q))")
        expected = D.Lfp(
            "Z",
            D.Union(
                D.Diagonal(),
                D.Compose(D.ModuleVar("Z"), D.Action("A", ("P", "Q"), frozenset({"P"}),
                                                     frozenset({"Q"}))),
            ),
        )
        assert got == expected

    def test_error_has_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_flat("pi{} (")
        assert err.value.line == 1

    def test_spec_file(self):
        spec = parse_spec(DEMO)
        assert spec.domain.elements == ("a", "b")
        assert spec.vocabulary.names == ("P", "Q")
        assert set(spec.modules) == {"FullP", "EmptyQ", "Nonempty"}
        assert set(spec.tasks) == {"yes", "no", "expand", "probe", "satq"}
        assert spec.tasks["probe"].kind == "temp-mc"

    def test_definition_inlining(self):
        spec = parse_spec(DEMO)
        assert spec.flat_defs["same"] == F.Select(
            F.Var("P"), F.Var("Q"), F.Complement(F.Bottom())
        )
        assert spec.state_defs["canfill"] == S.Diamond(
            D.Action("FullP", ("P",), frozenset(), frozenset({"P"})),
            S.Prop("FullP", ("P",)),
        )


# malformed inputs, with the error each one raises: (parser, text, line,
# column, message)
SYNTAX_ERRORS = [
    (parse_flat, "pi{} (", 1, 7, "expected 'NAME', found ''"),
    (parse_dyn, "pi{} (", 1, 7, "expected 'NAME', found ''"),
    (parse_state, "pi{} (", 1, 1, "unexpected keyword 'pi'"),
    (parse_flat, "sel[P = Q] a", 1, 7, "expected '==', found '='"),
    (parse_dyn, "sel[P = Q] a", 1, 7, "expected '==', found '='"),
    (parse_state, "sel[P = Q] a", 1, 1, "unexpected keyword 'sel'"),
    (parse_flat, "mu X a", 1, 6, "expected '.', found 'a'"),
    (parse_dyn, "mu X a", 1, 6, "expected '.', found 'a'"),
    (parse_state, "mu X a", 1, 6, "expected '.', found 'a'"),
    (parse_flat, "M(P; out Q)", 1, 4, "expected ')', found ';'"),
    (parse_dyn, "M(P; out Q)", 1, 4, "expected ')', found ';'"),
    (parse_state, "M(P; out Q)", 1, 2, "expected 'EOF', found '('"),
    (parse_flat, "const[P = '{(a)}']", 1, 1, "unexpected keyword 'const'"),
    (parse_dyn, "const[P = '{(a)}']", 1, 9, "expected '==' or '!=' in constant test"),
    (parse_state, "const[P = '{(a)}']", 1, 1, "unexpected keyword 'const'"),
    (parse_flat, "a^{1}", 1, 2, "expected 'EOF', found '^'"),
    (parse_dyn, "a^{1}", 1, 5, "expected ',', found '}'"),
    (parse_state, "a^{1}", 1, 2, "expected 'EOF', found '^'"),
    (parse_flat, "a ; !b", 1, 3, "expected 'EOF', found ';'"),
    (parse_dyn, "a ; !b", 1, 5, "expected 'NAME', found '!'"),
    (parse_state, "a ; !b", 1, 3, "expected 'EOF', found ';'"),
    (parse_flat, "prop M", 1, 1, "unexpected keyword 'prop'"),
    (parse_dyn, "prop M", 1, 1, "unexpected keyword 'prop'"),
    (parse_state, "prop M", 1, 7, "prop M without arguments needs a declared module"),
    (parse_flat, "<a phi", 1, 1, "expected 'NAME', found '<'"),
    (parse_dyn, "<a phi", 1, 1, "expected 'NAME', found '<'"),
    (parse_state, "<a phi", 1, 4, "expected '>', found 'phi'"),
    (parse_dyn, "(prop M(P))", 1, 2, "unexpected keyword 'prop'"),
    (parse_dyn, "M(in P", 1, 7, "expected ')', found ''"),
    (parse_flat, "dn", 1, 1, "unexpected keyword 'dn'"),
    (parse_dyn, "dn", 1, 3, "expected 'NAME', found ''"),
    (parse_state, "-", 1, 1, "expected 'NAME', found '-'"),
    (parse_state, "a '|' b", 1, 3, "expected 'EOF', found '|'"),  # a quoted token is no operator
    (parse_dyn, "'dn' a", 1, 1, "expected 'NAME', found 'dn'"),
    (parse_spec, "dyn d = a ; ; b;", 1, 13, "expected a declaration keyword, found ';'"),
    (parse_spec, "module M(X/1) = truth { (1,0) };", 1, 31,
     "truth pattern must be 1 bits of 0/1"),
    (parse_spec, "frob x;", 1, 1, "expected a declaration keyword, found 'frob'"),
    (parse_spec, "state s = prop M;", 1, 17, "prop M without arguments needs a declared module"),
    (parse_spec, "flat f = M(P)", 1, 14, "expected ';', found ''"),
    # an argument marked both ways, at its second occurrence
    (parse_dyn, "M(in P, out P)", 1, 13, "argument P is marked both in and out"),
    (parse_dyn, "M(out P; in Q, P)", 1, 16, "argument P is marked both in and out"),
    # a constructor's check, at the first token of its construct
    (parse_dyn, "a^{2,1}", 1, 1, "bad counting bounds 2..1"),
    (parse_dyn, "b ; (a | b)^{2,1}", 1, 5, "bad counting bounds 2..1"),
    (parse_flat, "sel[P == '{(a),(a,b)}'] M(P)", 1, 10,
     "constant tuples of mixed arity: [('a',), ('a', 'b')]"),
    (parse_spec, "domain {a};\nmodule M(X/1) = builtin nope;", 2, 1,
     "no builtin oracle named 'nope'"),
]


@pytest.mark.parametrize("parse, text, line, column, message", SYNTAX_ERRORS,
                         ids=[f"{parse.__name__}:{text}" for parse, text, *_ in SYNTAX_ERRORS])
def test_syntax_error_position(parse, text, line, column, message):
    with pytest.raises(SpecSyntaxError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{line}:{column}: {message}", line, column)


def test_state_test_attempts_grow_linearly(monkeypatch):
    """A parenthesised process is tried as a state test (phi)? once per
    position. Nested groups that turn out to be processes were re-tried from
    every enclosing attempt, so the tokens read doubled with each level."""
    from modalg import parser

    reads = []
    advance = parser._Parser.advance
    monkeypatch.setattr(parser._Parser, "advance", lambda self: reads.append(1) or advance(self))
    counts, text = [], "a"
    for _ in range(8):
        text = f"((<{text}> prop M(P))? ; b)"
        reads.clear()
        parse_dyn(text)
        counts.append(len(reads))
    assert len({later - earlier for earlier, later in zip(counts, counts[1:])}) == 1, counts


class TestRoundTrip:
    def test_flat(self):
        rng = random.Random(71)
        for _ in range(60):
            ast = random_flat(rng, 4)
            assert parse_flat(to_text(ast)) == ast

    def test_dyn(self):
        rng = random.Random(72)
        for _ in range(60):
            ast = random_proc_with_tests(rng, 3)
            assert parse_dyn(to_text(ast)) == ast

    def test_state(self):
        rng = random.Random(73)
        for _ in range(60):
            ast = random_state(rng, 3)
            assert parse_state(to_text(ast)) == ast

    def test_any_proc(self):
        # every process class, among them projections, selections, =/= tests,
        # constant tests with != and state tests
        rng = random.Random(74)
        nodes = []
        for _ in range(60):
            ast = random_any_proc(rng, 4)
            assert parse_dyn(to_text(ast)) == ast
            nodes += walk(ast)
        assert {D.Project, D.Select, D.TestNeq, D.StateTest} <= {type(node) for node in nodes}
        assert any(isinstance(node, D.ConstTest) and not node.equal for node in nodes)


@pytest.fixture
def demo_spec(tmp_path):
    path = tmp_path / "demo.mod"
    path.write_text(DEMO, encoding="utf-8")
    return str(path)


class TestCli:
    def test_eval_flat_empty_exit_zero(self, demo_spec, capsys):
        spec = demo_spec
        code = main(["eval-flat", spec, "-e", "same"])
        out = capsys.readouterr().out
        assert code == 0 and len(out.strip().splitlines()) == 4

    def test_eval_flat_bot(self, tmp_path, capsys):
        path = tmp_path / "bot.mod"
        path.write_text("domain {a}; vocab {P/1}; flat empty = bot;", encoding="utf-8")
        code = main(["eval-flat", str(path), "-e", "empty"])
        assert code == 0 and capsys.readouterr().out == ""

    def test_task_yes_no(self, demo_spec, capsys):
        assert main(["task", demo_spec, "--name", "yes"]) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(["task", demo_spec, "--name", "no"]) == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_task_flags(self, demo_spec, capsys):
        code = main([
            "task", demo_spec, "--kind", "mc", "--formula", "same",
            "--bind", "P={(a)}", "--bind", "Q={(a)}",
        ])
        assert code == 0

    def test_task_mx(self, demo_spec, capsys):
        code = main(["task", demo_spec, "--name", "expand"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines() == ["P={(a),(b)} Q={(b)}"]

    def test_task_temp_mc(self, demo_spec, capsys):
        assert main(["task", demo_spec, "--name", "probe"]) == 0

    def test_task_temp_sat(self, demo_spec, capsys):
        assert main(["task", demo_spec, "--name", "satq"]) == 0

    def test_translate(self, demo_spec, capsys):
        code = main(["translate", demo_spec, "-e", "sometime"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "mu X . dn (FullP(P)? | FullP(out P) ; X)"

    def test_error_exit_two(self, demo_spec, capsys):
        assert main(["eval-flat", demo_spec, "-e", "missing"]) == 2
        assert "error" in capsys.readouterr().err
        # a missing definition, one of another sort than the task reads, and a
        # malformed binding
        wrong = Path(demo_spec).with_name("wrong.mod")
        wrong.write_text(DEMO + "task wrong = reach canfill with { P: {} } out { P: {(a)} };\n",
                         encoding="utf-8")
        for argv, message in (
            (["task", demo_spec, "--kind", "mc", "--formula", "nosuch"],
             "no flat definition named nosuch"),
            (["task", str(wrong), "--name", "wrong"],
             "canfill is a state definition; reach reads dyn definitions"),
            (["stats", demo_spec, "-e", "sometime"],
             "sometime is a state definition; stats reads dyn definitions"),
            (["task", demo_spec, "--kind", "mc", "--formula", "same", "--bind", "P={(a)"],
             "1:5: expected '}', found ''"),
        ):
            assert main(argv) == 2
            assert f"error: {message}" in capsys.readouterr().err

    def test_constructor_error_exit_two(self, tmp_path, capsys):
        """A constructor's check fails as a syntax error with a position."""
        bad = tmp_path / "bad.mod"
        bad.write_text("domain {a};\nvocab {P/1};\ndyn bad = FullP(out P)^{2,1};\n",
                       encoding="utf-8")
        assert main(["eval-dyn", str(bad), "-e", "bad"]) == 2
        assert "error: 3:11: bad counting bounds 2..1" in capsys.readouterr().err

    def test_stats(self, demo_spec, capsys):
        assert main(["stats", demo_spec, "-e", "setp"]) == 0
        out = capsys.readouterr().out
        assert "universe size: 16" in out and "FullP(out P): 16" in out


class TestReadmeCommands:
    """The README's commands over the shipped demo.mod print the library's
    answers."""

    @pytest.fixture
    def demo(self):
        path = Path(__file__).resolve().parents[1] / "demo.mod"
        spec = parse_spec(path.read_text(encoding="utf-8"))
        return str(path), spec, build_universe(spec.domain, spec.vocabulary), spec.valuation()

    def test_eval_dyn_walk(self, demo, capsys):
        path, spec, u, val = demo
        assert main(["eval-dyn", path, "-e", "walk"]) == 0
        pairs = sorted(eval_dyn(spec.dyn_defs["walk"], val, u).pairs())
        assert len(pairs) > u.size
        assert capsys.readouterr().out.splitlines() == [f"{i} -> {j}" for i, j in pairs]

    def test_eval_state_sometime(self, demo, capsys):
        path, spec, u, val = demo
        assert main(["eval-state", path, "-e", "sometime"]) == 0
        states = list(eval_state(spec.state_defs["sometime"], val, u).indices())
        assert states
        assert capsys.readouterr().out.splitlines() == [
            f"{i}\t{u.structure_at(i).describe()}" for i in states]

    def test_export_dot_setp_json(self, demo, tmp_path, capsys):
        path, spec, u, val = demo
        dot, data = tmp_path / "ts.dot", tmp_path / "ts.json"
        assert main(["export-dot", path, "-e", "setp", "-o", str(dot), "--json", str(data)]) == 0
        assert capsys.readouterr().out == ""
        ts = build_transition_system(spec.dyn_defs["setp"], val, u)
        assert dot.read_text(encoding="utf-8") == render_dot(ts)
        expected = json.loads(json.dumps(ts_to_json(ts)))
        assert json.loads(data.read_text(encoding="utf-8")) == expected


class TestGraphPipelineSpec:
    """The shipped graph.mod drives the circuit/colouring builtins."""

    @pytest.fixture
    def graph_spec(self):
        import os

        return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "graph.mod")

    def test_colourings(self, graph_spec, capsys):
        assert main(["task", graph_spec, "--name", "colourings"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("Y={(a,b),(b,a)}" in line for line in lines)

    def test_three_way_passes(self, graph_spec, capsys):
        assert main(["task", graph_spec, "--name", "three_way"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("pass") and "DISAGREE" not in out


class TestExports:
    def test_dot_bottom_two_structures(self, pq):
        domain = Domain(("a",))
        vocab = Vocabulary((("P", 1),))
        u = build_universe(domain, vocab)
        _, _, _, val = pq
        ts = build_transition_system(D.Bottom(), val, u)
        dot = render_dot(ts)
        assert dot.count("[label=") == 2  # two nodes
        assert "->" not in dot

    def test_dot_diagonal_self_loops(self, pq):
        _, _, u, val = pq
        ts = build_transition_system(D.Diagonal(), val, u)
        dot = render_dot(ts)
        assert sum(1 for line in dot.splitlines() if "->" in line) == 16
        assert all(f"{i} -> {i} " in dot for i in range(16))

    def test_dot_setp(self, pq):
        _, _, u, val = pq
        setp = D.Action("FullP", ("P",), frozenset(), frozenset({"P"}))
        ts = build_transition_system(setp, val, u)
        dot = render_dot(ts)
        edges = [line for line in dot.splitlines() if "->" in line]
        assert len(edges) == 16
        assert sum(1 for i in range(16) if f"  {i} -> {i} " in dot) == 4

    def test_dot_deterministic(self, pq):
        _, _, u, val = pq
        a = D.Union(D.Diagonal(), D.Action("FullP", ("P",), frozenset(), frozenset({"P"})))
        first = render_dot(build_transition_system(a, val, u))
        second = render_dot(build_transition_system(a, val, u))
        assert first == second

    def test_json_schema(self, pq):
        _, _, u, val = pq
        setp = D.Action("FullP", ("P",), frozenset(), frozenset({"P"}))
        ts = build_transition_system(setp, val, u)
        doc = ts_to_json(ts)
        assert doc["domain"] == ["a", "b"]
        assert doc["vocab"] == [["P", 1], ["Q", 1]]
        assert len(doc["structures"]) == 16
        assert len(doc["edges"]["FullP(out P)"]) == 16

    def test_cap_exceeded_names_the_label(self):
        # a complemented test labels nearly all 2^24 pairs of 4,096 states
        domain, vocab, val = three_element_setup()
        ts = build_transition_system(parse_dyn("-FullP(P)?"), val, build_universe(domain, vocab))
        for export in (render_dot, ts_to_json):
            with pytest.raises(CapExceeded, match=r"\(in: -FullP\(P\)\?\)$"):
                export(ts)

    def test_stats_edge_counts_match(self, pq):
        from modalg.export import collect_stats
        from modalg.dynamic import eval_dyn

        _, _, u, val = pq
        a = D.Union(D.Diagonal(), D.Action("FullP", ("P",), frozenset(), frozenset({"P"})))
        ts, stats = collect_stats(a, val, u)
        for key in ts.order:
            assert stats.edge_counts[key] == len(ts.edges[key])
        assert stats.edge_counts[to_text(a)] == len(eval_dyn(a, val, u))
