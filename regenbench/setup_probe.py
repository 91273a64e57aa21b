"""One set-up of a workload, timed from outside by ``run.py``.

Calls ``repro.exp.run_experiments`` on the workload's ids, exactly as a
round does (same ``jobs``, ``flow_mode`` and, when the workload is
observed, a metrics registry), with an empty result cache.  The first
task entry point is replaced: ``registry.run_experiment`` on the serial
path, ``run_task`` in the pool workers (which inherit the patch when
they fork).  Each call prints ``ready`` and raises :class:`Ready`, so
the program stops before it simulates anything.  The parent's clock,
started just before this process, stops at the first such line: it
covers the import, the registry, the cache lookups, planning and, for a
pooled workload, starting the pool.

    python3 regenbench/setup_probe.py CACHE_DIR WORKLOAD_JSON

``WORKLOAD_JSON`` is a :class:`workloads.Workload` as a JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path


class Ready(Exception):
    """Raised in place of every task: the set-up is over."""


def main(argv) -> int:
    cache_dir, workload = argv[1], json.loads(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.core import registry
    from repro.exp import ResultCache, run_experiments
    from repro.exp.backends import local
    from repro.obs import MetricsRegistry, use_registry

    def first_task(*_args, **_kwargs):
        # one write, so the pool workers' lines cannot interleave
        os.write(sys.stdout.fileno(), b"ready\n")
        raise Ready

    registry.run_experiment = local.run_task = first_task
    scope = (use_registry(MetricsRegistry()) if workload["observed"]
             else contextlib.nullcontext())
    try:
        with scope:
            run_experiments(workload["ids"], quick=True,
                            jobs=workload["jobs"],
                            flow_mode=workload["flow_mode"],
                            cache=ResultCache(cache_dir))
    except Ready:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
