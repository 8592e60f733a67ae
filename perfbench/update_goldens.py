"""Re-record ``golden.json``: the digest of every cell at seed 0.

Usage (from the root of a checkout)::

    python3 perfbench/update_goldens.py

Runs one untraced pass of every workload at its own scale and at the
self-test's scale, and writes every ``TimingRunResult`` digest and every
rendered figure's digest.  Only re-record after a change that is meant
to alter simulation results; the figures' byte-identity contract is
what these digests enforce.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from types import SimpleNamespace

import benchgrid
import run

#: The program scale the self-test runs every workload at.
SELFTEST_SCALE = 0.05


def main() -> int:
    digests = {}
    rundir = run.WORK / f"goldens-{time.time_ns()}"
    rundir.mkdir(parents=True)
    try:
        passes = [(name, scale) for name, workload in sorted(benchgrid.WORKLOADS.items())
                  for scale in (workload.scale, SELFTEST_SCALE)]
        for index, (name, scale) in enumerate(passes):
            args = SimpleNamespace(workload=name, seed=0, scale=scale)
            deadline = time.monotonic() + run.RUN_LIMIT_S
            report = run.run_child(args, rundir, deadline, index)
            for key, value in report["digests"].items():
                if digests.setdefault(key, value) != value:
                    print(f"{key}: two workloads disagree on its digest", file=sys.stderr)
                    return 1
            print(f"{name} @ {scale}: {len(report['digests'])} digests", file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    benchgrid.GOLDEN_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
