"""Checks that the benchmark's own checks are not vacuous.

    python3 bench/selftest.py            # corrupted answers and raising queries
    python3 bench/selftest.py --counts   # per-layer counts repeat exactly

The first mode runs one round of each workload with the reference answer of
its first query corrupted and one extra query that raises CapExceeded; both
must be reported as failed, and the rest of the round must still run and
pass. The second mode runs the traced benchmark twice per workload with the
same seed and lists every count metric that differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import spans
from common import Query


def over_cap_query(eng) -> Query:
    """Eleven unary symbols over {a,b} need 22 bits, over the default cap of
    20, so building their universe raises CapExceeded."""
    core = eng.core
    vocab = core.Vocabulary(tuple((f"P{i}", 1) for i in range(11)))
    return Query("over-cap", lambda: core.build_universe(core.Domain(("a", "b")), vocab),
                 lambda universe: universe.size, lambda: 1 << 22)


def check_failures_reported(seed: int) -> bool:
    ok = True
    for wl in run.WORKLOADS.values():
        ctx, _ = run.set_up(wl)
        rec = run.Recorder()
        round_size = len(run.round_queries(wl, ctx, seed, 0))
        run.run_rounds(wl, ctx, seed, rec, rounds=1, corrupt=True,
                       extra=[over_cap_query(ctx.eng)])
        corrupted = f"{wl.NAME}/round0/"
        good = (
            rec.attempted == round_size + 1
            and rec.failed == 2
            and rec.failures[0].startswith("over-cap: raised CapExceeded")
            and rec.failures[1].startswith(corrupted)
            and "differs from reference" in rec.failures[1]
            and len(rec.latencies) == round_size - 1
        )
        print(f"[{'PASS' if good else 'FAIL'}] {wl.NAME}: {rec.failed} of {rec.attempted} "
              f"queries failed: {[f.splitlines()[0][:80] for f in rec.failures]}")
        ok = ok and good
    return ok


def check_counts_repeat(seed: int, seconds: float) -> bool:
    """Two traced runs with the same seed must give identical counts."""
    script = Path(__file__).with_name("run.py")
    counts = [name for name, unit in spans.PER_LAYER.items() if unit == "count"]
    ok = True
    for name in run.WORKLOADS:
        results = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, str(script), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "1"],
                capture_output=True, text=True, check=True)
            results.append(json.loads(out.stdout.strip().splitlines()[-1])["metrics"])
        differ = [c for c in counts if results[0][c]["value"] != results[1][c]["value"]]
        print(f"[{'PASS' if not differ else 'FAIL'}] {name}: {len(counts)} counts, "
              f"differing: {differ or 'none'}")
        ok = ok and not differ
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--counts", action="store_true",
                        help="compare the counts of two traced runs instead")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    if not run.engine_available():
        print("error: no modalg sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    ok = check_counts_repeat(args.seed, args.seconds) if args.counts \
        else check_failures_reported(args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
