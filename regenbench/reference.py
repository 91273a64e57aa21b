"""Reference figures for the benchmark's README.

Not part of a benchmark run.  Prints, as medians of ``REPEATS`` cold
regenerations on this host:

* ``harness_fanout`` on the socket backend against the local pool, both
  at 2 workers (no result cache);
* the ``tcp_nfs_flow`` netperf experiments (fig06a, fig07a) in packet
  mode against ``flow_mode="auto"``.

    python3 regenbench/reference.py
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path

from tracing import clock
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 3


def median_seconds(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = clock()
        fn()
        samples.append(clock() - start)
    return statistics.median(samples)


def main() -> int:
    sys.path.insert(0, str(SRC))
    # socket workers are separate interpreters started by the backend
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    from repro.exp import run_experiments

    ids = list(WORKLOADS["harness_fanout"].ids)
    for backend in ("local", "socket"):
        seconds = median_seconds(lambda: run_experiments(
            ids, quick=True, jobs=2, backend=backend, workers=2))
        print(f"harness_fanout cold, {backend} backend, 2 workers: "
              f"{seconds:.3f} s")
    for exp_id in ("fig06a", "fig07a"):
        for mode in (None, "auto"):
            seconds = median_seconds(lambda: run_experiments(
                [exp_id], quick=True, jobs=1, flow_mode=mode))
            print(f"{exp_id} {mode or 'packet'}: {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
