"""Per-layer spans, recorded from outside the engine.

`Tracer.installed()` wraps public callables of each layer. A wrapped call
opens a span; when it closes, its self time (duration minus the time of the
spans it caused) goes to its layer's total and its duration to the parent
span. Spans are folded into these totals as they close, so tracing keeps no
per-call records and writes nothing while the benchmark runs. Counts are
taken at the same boundaries. Work without a public boundary (pair work under
modalities, flat projection/selection/fixpoint loops) shows as the self time
of the layer that called it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# metric name -> unit, in print order
PER_LAYER = {
    "core.oracle_calls": "count", "core.oracle_s": "s",
    "core.extension_calls": "count", "core.extension_s": "s",
    "core.extension_members": "count",
    "core.decode_calls": "count", "core.decode_s": "s",
    "indexsets.ops": "count", "indexsets.op_s": "s",
    "indexsets.members_out": "count", "indexsets.indices_yielded": "count",
    "flat.eval_calls": "count", "flat.eval_s": "s", "flat.fixpoint_iterations": "count",
    "dynamic.eval_calls": "count", "dynamic.eval_s": "s", "dynamic.pairs_out": "count",
    "dynamic.fixpoint_iterations": "count",
    "dynamic.ts_builds": "count", "dynamic.ts_s": "s", "dynamic.ts_labels_built": "count",
    "dynamic.ts_label_use_ratio": "ratio",
    "lmumu.eval_calls": "count", "lmumu.eval_s": "s", "lmumu.states_out": "count",
    "lmumu.fixpoint_iterations": "count",
    "tasks.calls": "count", "tasks.self_s": "s", "tasks.universe_builds": "count",
    "tasks.equiv_rows": "count",
    "parser.parse_calls": "count", "parser.parse_s": "s",
    "printer.label_calls": "count", "printer.label_s": "s",
    "export.calls": "count", "export.s": "s",
    "bench.queries": "count", "bench.self_s": "s",
}

TASK_FUNCTIONS = ("mc", "mx", "ev", "sat_bounded", "temp_mc", "temp_sat_prop", "reach",
                  "equivalence_check")


def _size(value) -> int:
    """Members a result holds: its stored members where it has them."""
    members = getattr(value, "members", None)
    if members is not None:
        return len(members)
    iset = getattr(value, "iset", None)
    return _size(iset) if iset is not None else len(value)


class _ReadCountingDict(dict):
    """A transition system's label -> edges map that counts distinct labels read."""

    def __init__(self, items, on_first_read):
        super().__init__(items)
        self._read = set()
        self._on_first_read = on_first_read

    def __getitem__(self, key):
        if key not in self._read:
            self._read.add(key)
            self._on_first_read()
        return super().__getitem__(key)


class Tracer:
    def __init__(self, eng):
        self.eng = eng
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []
        self.paused = False  # set while the harness checks answers

    # -- spans ---------------------------------------------------------------

    def begin_query(self) -> None:
        self._stack.append(0.0)

    def end_query(self, elapsed: float) -> None:
        child = self._stack.pop()
        self.counts["bench.queries"] += 1
        self.counts["bench.self_s"] += elapsed - child

    def _wrap(self, owner, attr, time_key, count_key=None, after=None, before=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return  # not present in this version of the engine
        tracer, stack, counts = self, self._stack, self.counts
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                kwargs = before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                counts[time_key] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if count_key:
                counts[count_key] += 1
            if after is not None:
                result = after(result, args, kwargs)
            return result

        wrapped.__wrapped__ = fn
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, fn))

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(self._undo):
                setattr(owner, attr, fn)
            self._undo.clear()

    def _install(self) -> None:
        eng = self.eng
        core = eng.core
        w = self._wrap

        w(core.AtomicModule, "accepts", "core.oracle_s", "core.oracle_calls")
        for module in (eng.flat, eng.dynamic):
            w(module, "extension_index_set", "core.extension_s", "core.extension_calls",
              after=self._counted("core.extension_members"))
        w(core.Universe, "structure_at", "core.decode_s", "core.decode_calls")
        w(core.Universe, "index_of", "core.decode_s", "core.decode_calls")

        if eng.indexsets is not None:
            cls = eng.indexsets.IndexSet
            for op in ("union", "intersection", "complement"):
                w(cls, op, "indexsets.op_s", "indexsets.ops",
                  after=self._counted("indexsets.members_out"))
            w(cls, "issubset", "indexsets.op_s", "indexsets.ops")
            w(cls, "indices", "indexsets.op_s", "indexsets.ops", after=self._yield_counter())

        stats = self._with_stats
        w(eng.flat, "eval_flat", "flat.eval_s", "flat.eval_calls", before=stats,
          after=self._fixpoints("flat.fixpoint_iterations"))
        w(eng.dynamic, "eval_dyn", "dynamic.eval_s", "dynamic.eval_calls", before=stats,
          after=self._fixpoints("dynamic.fixpoint_iterations", "dynamic.pairs_out"))
        for owner in (eng.dynamic, eng.export):
            w(owner, "build_transition_system", "dynamic.ts_s", "dynamic.ts_builds",
              before=stats, after=self._transition_system)
        w(eng.lmumu, "eval_state", "lmumu.eval_s", "lmumu.eval_calls", before=stats,
          after=self._fixpoints("lmumu.fixpoint_iterations", "lmumu.states_out"))

        for name in TASK_FUNCTIONS:
            after = self._equiv_rows if name == "equivalence_check" else None
            w(eng.tasks, name, "tasks.self_s", "tasks.calls", after=after)
        w(eng.tasks, "build_universe", "tasks.self_s", "tasks.universe_builds")

        w(eng.parser, "parse_spec", "parser.parse_s", "parser.parse_calls")
        # state_to_text and the evaluators' lazy imports all reach to_text
        w(eng.printer, "to_text", "printer.label_s", "printer.label_calls")
        for name in ("collect_stats", "ts_to_json"):
            w(eng.export, name, "export.s", "export.calls")

    # -- result hooks --------------------------------------------------------

    def _counted(self, key):
        def after(result, args, kwargs):
            self.counts[key] += _size(result)
            return result
        return after

    def _yield_counter(self):
        counts = self.counts

        def after(result, args, kwargs):
            def counting():
                n = 0
                try:
                    for item in result:
                        n += 1
                        yield item
                finally:
                    counts["indexsets.indices_yielded"] += n
            return counting()
        return after

    def _with_stats(self, args, kwargs):
        """Give an evaluator a fresh EvalStats (its public `stats` argument)
        when the caller passed none."""
        stats_cls = getattr(self.eng.flat, "EvalStats", None)
        if stats_cls is not None and len(args) < 4 and "stats" not in kwargs:
            kwargs = {**kwargs, "stats": stats_cls()}
        return kwargs

    @staticmethod
    def _stats_of(args, kwargs):
        return kwargs.get("stats", args[3] if len(args) > 3 else None)

    def _fixpoints(self, iterations_key, size_key=None):
        """Add up the fixpoint iterations the call's EvalStats recorded (the
        most per fixpoint label) and the size of the result."""
        counts = self.counts

        def after(result, args, kwargs):
            stats = self._stats_of(args, kwargs)
            if stats is not None:
                counts[iterations_key] += sum(stats.fixpoint_iterations.values())
            if size_key:
                counts[size_key] += _size(result)
            return result

        return after

    def _transition_system(self, ts, args, kwargs):
        stats = self._stats_of(args, kwargs)
        if stats is not None:
            self.counts["dynamic.fixpoint_iterations"] += sum(stats.fixpoint_iterations.values())
        self.counts["dynamic.ts_labels_built"] += len(ts.order)
        ts.edges = _ReadCountingDict(ts.edges, self._label_read)
        return ts

    def _label_read(self) -> None:
        self.counts["dynamic.ts_labels_read"] += 1

    def _equiv_rows(self, report, args, kwargs):
        self.counts["tasks.equiv_rows"] += len(report.rows)
        return report

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        counts = self.counts
        built = counts["dynamic.ts_labels_built"]
        read = counts["dynamic.ts_labels_read"]
        counts["dynamic.ts_label_use_ratio"] = read / built if built else 0.0
        return {name: {"value": counts[name], "unit": unit} for name, unit in PER_LAYER.items()}
