"""Benchmark of the modalg engine: seeded workloads, answers checked against
references that do not use the engine, end-to-end metrics and (with
`--trace 1`) per-layer metrics measured around each layer's public calls.

    python3 bench/run.py --workload flat-cap --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Each workload runs in one process as a closed loop: one client, no think
time, the next query is sent when the previous one has returned. Queries come
in rounds; a round is a fixed mix of query shapes whose inputs are drawn from
the seed and the round number, and the timed phase runs whole rounds until
`--seconds` of query time have been spent. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import flat_cap
import pair_closure
import task_mix
from common import Query, corrupt_value, engine_available, import_engine

WORKLOADS = {wl.NAME: wl for wl in (flat_cap, pair_closure, task_mix)}
SETUP_REPEATS = 5
TAIL_LADDER = (99, 95, 90, 75, 50)
MIN_BEYOND = 10  # samples a reported percentile must have above it


@dataclass
class Recorder:
    """Outcome of the queries of one phase."""

    latencies: list[float] = field(default_factory=list)  # seconds, correct answers only
    busy: float = 0.0  # seconds spent inside query calls, failed ones included
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {reason}")
        print(f"FAILED {name}: {reason}", file=sys.stderr)


def run_query(query: Query, rec: Recorder, tracer=None) -> None:
    """Time one query; check its answer after the clock stopped. A query that
    raises, or whose answer differs from the reference, counts as failed and
    the run goes on."""
    rec.attempted += 1
    if tracer is not None:
        tracer.begin_query()
    start = time.perf_counter()
    try:
        result = query.call()
    except Exception as exc:  # a failed query must not end the run
        rec.busy += time.perf_counter() - start
        if tracer is not None:
            tracer.end_query(time.perf_counter() - start)
        rec.fail(query.name, f"raised {type(exc).__name__}: {exc}")
        return
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_query(elapsed)
        tracer.paused = True
    rec.busy += elapsed
    try:
        got, want = query.answer(result), query.expected()
    except Exception:
        rec.fail(query.name, "checking the answer raised\n" + traceback.format_exc())
        return
    finally:
        if tracer is not None:
            tracer.paused = False
    if got != want:
        rec.fail(query.name, f"answer {_short(got)} differs from reference {_short(want)}")
        return
    rec.latencies.append(elapsed)


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def round_queries(wl, ctx, seed: int, index: int, corrupt: bool = False) -> list[Query]:
    queries = wl.make_round(ctx, random.Random(f"{wl.NAME}:{seed}:{index}"))
    for q in queries:
        q.name = f"{wl.NAME}/round{index}/{q.name}"
    if corrupt and index == 0:
        first = queries[0]
        reference = first.expected
        first.expected = lambda: corrupt_value(reference())
    return queries


def run_rounds(wl, ctx, seed, rec, *, seconds=None, rounds=None, tracer=None,
               corrupt=False, extra=()) -> int:
    """Run whole rounds: a fixed number, or until `seconds` of query time
    and at least the workload's MIN_ROUNDS. `corrupt` and `extra` serve the
    self-test: a wrong reference for the first query, extra queries first."""
    for q in extra:
        run_query(q, rec, tracer)
    index = 0
    while (rounds is not None and index < rounds) or (
        rounds is None and (index < wl.MIN_ROUNDS or rec.busy < seconds)
    ):
        for q in round_queries(wl, ctx, seed, index, corrupt):
            run_query(q, rec, tracer)
        index += 1
    return index


def set_up(wl):
    """Import the engine and build the workload's fixed inputs, several
    times; the last set-up is kept and the median time reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        eng = import_engine()
        ctx = wl.setup(eng)
        times.append(time.perf_counter() - start)
    return ctx, statistics.median(times)


def tail(latencies: list[float], wanted: int):
    """(percentile, value, samples beyond) for the workload's tail percentile,
    or the highest lower one that still has MIN_BEYOND samples above it."""
    n = len(latencies)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive") if n >= 2 else []
    for pct in TAIL_LADDER:
        beyond = n * (100 - pct) // 100
        if pct <= wanted and beyond >= MIN_BEYOND:
            return pct, cuts[pct - 1], beyond
    return None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, rec: Recorder, setup_s: float) -> tuple[dict, list[str]]:
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    lines = [f"setup_s          {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups)"]
    if rec.latencies:
        p50 = statistics.median(rec.latencies) * 1000
        metrics["query_p50_ms"] = {"value": p50, "unit": "ms"}
        lines.append(f"query_p50_ms     {p50:.4f} ms ({len(rec.latencies)} samples)")
        cut = tail(rec.latencies, wl.TAIL_PERCENTILE)
        if cut is not None:
            pct, value, beyond = cut
            metrics["query_tail_ms"] = {"value": value * 1000, "unit": "ms"}
            lines.append(f"query_tail_ms    {value * 1000:.4f} ms (p{pct}, {beyond} of "
                         f"{len(rec.latencies)} samples beyond)")
        else:
            lines.append("query_tail_ms    omitted: too few samples")
    completed = rec.attempted - rec.failed
    if rec.busy > 0 and completed:
        qps = completed / rec.busy
        metrics["queries_per_s"] = {"value": qps, "unit": "1/s"}
        lines.append(f"queries_per_s    {qps:.4f} 1/s ({completed} queries in "
                     f"{rec.busy:.2f} s of query time)")
    rss = peak_rss_mib()
    metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
    lines.append(f"peak_rss_mib     {rss:.1f} MiB")
    lines.append(f"fail_ratio       {rec.failed / rec.attempted:.6f} "
                 f"({rec.failed} of {rec.attempted} queries)")
    return metrics, lines


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    ctx, setup_s = set_up(wl)
    if not args.trace:
        rec = Recorder()
        rounds = run_rounds(wl, ctx, args.seed, rec, seconds=args.seconds)
        metrics, lines = end_to_end(wl, rec, setup_s)
        print(f"# workload {wl.NAME}, seed {args.seed}, {rounds} rounds, "
              f"closed loop with 1 client")
    else:
        import spans

        # a fixed number of rounds, so counts repeat; each phase takes about
        # a third of --seconds
        rounds = max(1, round(args.seconds / 3 / wl.NOMINAL_ROUND_S))
        untraced = Recorder()
        run_rounds(wl, ctx, args.seed, untraced, rounds=rounds)
        tracer = spans.Tracer(ctx.eng)
        rec = Recorder()
        with tracer.installed():
            run_rounds(wl, ctx, args.seed, rec, rounds=rounds, tracer=tracer)
        metrics = tracer.metrics()
        overhead = rec.busy - untraced.busy
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": overhead / untraced.busy, "unit": "ratio"}
        rec.attempted += untraced.attempted
        rec.failed += untraced.failed
        print(f"# workload {wl.NAME}, seed {args.seed}, traced: the same {rounds} rounds "
              f"untraced ({untraced.busy:.3f} s) then traced ({rec.busy:.3f} s)")
        lines = [f"{name:32s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="query time to measure (whole rounds, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead")
    args = parser.parse_args(argv)
    if not engine_available():
        print("error: no modalg sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
