#!/usr/bin/env python
"""Performance gate: this checkout against a base checkout, on perfbench.

    python benchmarks/perf_gate.py BASE_CHECKOUT

Runs ``perfbench/run.py --workload W`` for every workload in
``BENCHMARK.json``, in ``PAIRS`` pairs of one run in the base checkout
and one in this checkout; each side runs its own ``perfbench/``.  It
exits 1 when, on any workload, the median of any ``end_to_end`` metric
is worse than the base's median by more than that metric's ``bound``
(relative, in the direction ``better`` names), when any run reports
``correct: false``, when a metric is missing from a run, or when this
checkout fails a larger share of the cells it attempted than the base.
Both sides run on the same host, interleaved, so the gate needs no
committed baseline.  To try it locally against the parent commit::

    git worktree add ../base HEAD~1
    python benchmarks/perf_gate.py ../base
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Alternating (base, change) runs per workload.
PAIRS = 3


def run_perfbench(checkout: Path, workload: str) -> dict:
    """One perfbench run in ``checkout``; its last stdout line, parsed.

    A run that prints no result line reads as incorrect, with no metrics.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit code {proc.returncode}, no result line"}


def _share(runs) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def judge(spec: dict, base: dict, change: dict):
    """The gate's verdict over parsed perfbench result lines.

    ``base`` and ``change`` map each workload of ``spec`` (the parsed
    ``BENCHMARK.json``) to its list of runs.  Returns ``(rows,
    failures)``: one row per workload x ``end_to_end`` metric, and one
    message per reason to fail.
    """
    rows, failures = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"base": base.get(workload, []), "change": change.get(workload, [])}
        for side, runs in sides.items():
            if not runs:
                failures.append(f"{workload}: no {side} runs")
            for run in runs:
                if not run.get("correct"):
                    why = run.get("error") or f"{run.get('failed')} cells failed"
                    failures.append(f"{workload}: a {side} run is not correct ({why})")
        if not (sides["base"] and sides["change"]):
            continue
        if _share(sides["change"]) > _share(sides["base"]):
            failures.append(f"{workload}: failed share {_share(sides['change']):.3f} "
                            f"> base {_share(sides['base']):.3f}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            missing = [side for side, runs in sides.items()
                       if any(name not in run.get("metrics", {}) for run in runs)]
            if missing:
                failures.append(f"{workload} {name}: missing from {' and '.join(missing)} runs")
                continue
            old, new = (statistics.median(run["metrics"][name]["value"] for run in runs)
                        for runs in sides.values())
            worse = new - old if metric["better"] == "lower" else old - new
            ratio = worse / abs(old) if old else (0.0 if worse <= 0 else float("inf"))
            verdict = "REGRESSION" if ratio > metric["bound"] else "ok"
            rows.append(f"{workload:16} {name:17} base {old:10.3f}  change {new:10.3f} "
                        f"{metric['unit']:8} worse by {ratio:+7.1%} "
                        f"(bound {metric['bound']:.0%})  {verdict}")
            if verdict != "ok":
                failures.append(f"{workload} {name}: {new:.3f} vs base {old:.3f} "
                                f"{metric['unit']}, {ratio:.1%} worse > bound "
                                f"{metric['bound']:.0%}")
    return rows, failures


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "perfbench" / "run.py").is_file():
        print(__doc__, file=sys.stderr)
        return 2
    base_root = Path(args[0]).resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = {}, {}
    started = time.monotonic()
    sides = [("base", base_root, base), ("change", ROOT, change)]
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            # which side goes first alternates, so drift favours neither
            for side, root, runs in sides if pair % 2 == 0 else sides[::-1]:
                run = run_perfbench(root, workload)
                runs.setdefault(workload, []).append(run)
                print(f"perf-gate: {workload} pair {pair + 1}/{PAIRS} {side}: "
                      f"correct={run.get('correct')}", file=sys.stderr, flush=True)
    rows, failures = judge(spec, base, change)
    print("\n".join(rows))
    print(f"perf-gate: {len(rows)} rows, {PAIRS} pairs per workload, "
          f"{time.monotonic() - started:.0f}s")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
