"""DOT/JSON exports and evaluation statistics."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from .core import Universe, Valuation
from .dynamic import ProcExpr, TransitionSystem, build_transition_system
from .errors import CapExceeded, ModalgError
from .flat import EvalStats


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _pairs(ts: TransitionSystem, key: str) -> list[tuple[int, int]]:
    """The pairs of label key, ascending; a CapExceeded names the label."""
    try:
        return sorted(ts.edges[key].pairs())
    except CapExceeded as exc:
        exc.args = (f"{exc} (in: {key})",)
        raise


def render_dot(ts: TransitionSystem) -> str:
    """Deterministic DOT rendering: every universe structure is a node
    (id = canonical index), one edge per (pair, subformula label)."""
    lines = ["digraph ts {"]
    for i in range(ts.universe.size):
        label = _dot_escape(ts.universe.structure_at(i).describe())
        lines.append(f'  {i} [label="{label}"];')
    for key in ts.order:
        for i, j in _pairs(ts, key):
            lines.append(f'  {i} -> {j} [label="{_dot_escape(key)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(ts: TransitionSystem, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_dot(ts))
    except OSError as exc:
        raise ModalgError(f"cannot write {path}: {exc}") from exc


def ts_to_json(ts: TransitionSystem) -> dict:
    universe = ts.universe
    structures = []
    for i in range(universe.size):
        s = universe.structure_at(i)
        structures.append(
            {
                name: sorted([list(t) for t in s.rel(name).tuples])
                for name in universe.vocabulary.names
            }
        )
    return {
        "domain": list(universe.domain.elements),
        "vocab": [[n, a] for n, a in universe.vocabulary.symbols],
        "structures": structures,
        "edges": {key: [list(p) for p in _pairs(ts, key)] for key in ts.order},
    }


def export_json(ts: TransitionSystem, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(ts_to_json(ts), handle, indent=1, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise ModalgError(f"cannot write {path}: {exc}") from exc


@dataclass
class RunStats:
    universe_size: int
    edge_counts: dict[str, int] = field(default_factory=dict)
    iteration_counts: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "universeSize": self.universe_size,
            "edgeCounts": self.edge_counts,
            "iterationCounts": self.iteration_counts,
            "wallSeconds": self.wall_seconds,
        }

    def render(self) -> str:
        lines = [f"universe size: {self.universe_size}"]
        for key, count in self.edge_counts.items():
            lines.append(f"edges  {key}: {count}")
        for key, count in self.iteration_counts.items():
            lines.append(f"fixpoint iterations  {key}: {count}")
        lines.append(f"wall time: {self.wall_seconds:.4f}s")
        return "\n".join(lines)


def collect_stats(
    a: ProcExpr, valuation: Valuation, universe: Universe
) -> tuple[TransitionSystem, RunStats]:
    """Build the transition system and report per-subformula edge counts,
    fixpoint iteration counts, and wall time."""
    recorder = EvalStats()
    start = time.perf_counter()
    ts = build_transition_system(a, valuation, universe, recorder)
    elapsed = time.perf_counter() - start
    stats = RunStats(universe_size=universe.size, wall_seconds=elapsed)
    for key in ts.order:
        stats.edge_counts[key] = len(ts.edges[key])
    stats.iteration_counts = dict(recorder.fixpoint_iterations)
    return ts, stats
