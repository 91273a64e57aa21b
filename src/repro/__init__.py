"""repro — reproduction of *Performance of HPC Middleware over InfiniBand
WAN* (Narravula et al., ICPP 2008) on a discrete-event IB-WAN simulator.

Quick tour
----------

>>> from repro import Simulator, build_cluster_of_clusters
>>> from repro.verbs import perftest
>>> sim = Simulator()
>>> fabric = build_cluster_of_clusters(sim, 1, 1, wan_delay_us=10.0)
>>> bw = perftest.run_send_bw(sim, fabric, fabric.cluster_a[0],
...                           fabric.cluster_b[0], size=65536, iters=32)

Sub-packages: :mod:`repro.sim` (event kernel), :mod:`repro.fabric` (IB
fabric), :mod:`repro.wan` (Longbow WAN extenders), :mod:`repro.verbs`
(RC/UD/RDMA), :mod:`repro.tcp` + :mod:`repro.ipoib` (TCP over IB),
:mod:`repro.mpi` (MVAPICH2-like library), :mod:`repro.nfs` (NFS over
RDMA / IPoIB), :mod:`repro.apps` (NAS benchmark skeletons),
:mod:`repro.obs` (metrics + tracing) and :mod:`repro.core` (the paper's
scenarios, optimizations and experiment registry).
"""

from .calibration import DEFAULT_PROFILE, KB, MB, US_PER_KM, HardwareProfile
from .fabric import (Fabric, build_back_to_back, build_cluster,
                     build_cluster_of_clusters)
from .obs import MetricsRegistry
from .sim import Simulator

__version__ = "1.2.0"

__all__ = ["Simulator", "HardwareProfile", "DEFAULT_PROFILE", "KB", "MB",
           "US_PER_KM", "Fabric", "build_back_to_back", "build_cluster",
           "build_cluster_of_clusters", "MetricsRegistry", "__version__"]
