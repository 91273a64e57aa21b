"""The benchmark's workloads: which experiments, through which layers.

Each workload is a set of quick-grid experiment ids that one call of
``repro.exp.run_experiments`` regenerates.  The seed only orders the
ids; the program sees the same experiments whatever the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    ids: Tuple[str, ...]
    #: ``jobs`` for ``run_experiments``; 1 runs in-process, 2 uses the
    #: local pool with two workers
    jobs: int = 1
    #: ``flow_mode`` for ``run_experiments`` (``None`` is packet mode)
    flow_mode: Optional[str] = None
    #: run under ``repro.obs.use_registry`` with a fresh registry
    observed: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # event kernel, fabric/Longbow pumps, verbs RC, MPI and NAS
    Workload("mpi_packet", ("fig12", "ext_hier_allreduce")),
    # TCP/IPoIB through the flow gate; the NFS reads stay packet
    Workload("tcp_nfs_flow", ("fig06a", "fig07a", "ext_readahead"),
             flow_mode="auto"),
    # many small experiments: planning, pickling, the pool and cache
    # I/O, with each task observed and its metrics merged in the parent
    Workload("harness_fanout", (
        "table1", "fig03", "fig04a", "fig04b", "fig05a", "fig05b",
        "fig07b", "fig09a", "fig09b", "opt_coalescing", "opt_adaptive",
        "abl_rc_window", "abl_credits", "ext_hier_allreduce",
        "ext_readahead", "ext_dlm", "flt01a", "flt01d", "flt02"),
        jobs=2, observed=True),
)}


def ordered_ids(workload: Workload, seed: int) -> List[str]:
    """The workload's ids in the order ``seed`` gives them."""
    def rank(exp_id: str) -> bytes:
        return hashlib.sha256(f"{seed}:{exp_id}".encode()).digest()
    return sorted(workload.ids, key=rank)
