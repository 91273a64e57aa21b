"""Experiment definitions: one entry per paper table/figure plus ablations.

Each experiment is registered with :func:`repro.core.registry.experiment`
and produces an :class:`~repro.core.registry.ExperimentResult`.
``quick=True`` (the default used by the pytest-benchmark suite) trims
iteration counts and sweep points; ``quick=False`` runs the full sweeps
used to fill EXPERIMENTS.md.  Message *sizes* are never trimmed — sizes
are what determine WAN behaviour.

The big sweeps additionally declare a :class:`~repro.core.registry.CellPlan`:
each table row (a size, window, MTU or stream count swept across the
delay axis) is computed by a standalone cell function that builds its
own fresh scenario.  The serial runner and the parallel engine
(:mod:`repro.exp`) both go through the same cell functions, which is
why ``--jobs N`` output is byte-identical to a serial run.

Run everything from the command line::

    python -m repro.cli experiments             # quick sweeps
    python -m repro.cli experiments --full      # full sweeps
    python -m repro.cli experiments fig05a fig13b
    python -m repro.cli experiments --jobs 4    # worker processes
"""

from __future__ import annotations

from typing import List

from ..apps.nas import run_nas
from ..calibration import DEFAULT_PROFILE, KB, MB
from ..ipoib import netperf
from ..mpi.benchmarks import (
    run_osu_bcast,
    run_osu_bibw,
    run_osu_bw,
    run_osu_mbw_mr,
)
from ..mpi.tuning import DEFAULT_TUNING
from ..nfs.iozone import run_iozone_read
from ..verbs import perftest
from ..wan.delaymap import table1
from . import scenario
from .adaptive import probe_path, recommend_tuning
from .optimizations import coalesced_message_rate
from .registry import (
    CELL_PLANS,
    EXPERIMENTS,
    CellPlan,
    ExperimentResult,
    experiment,
    run_all,
    run_experiment,
)
from .scenario import back_to_back, lan, wan_clusters, wan_pair

__all__ = ["ExperimentResult", "EXPERIMENTS", "CELL_PLANS",
           "run_experiment", "run_all"]

DELAYS = (0.0, 10.0, 100.0, 1000.0, 10000.0)


def _delay_cols(delays) -> List[str]:
    return [f"{int(d)}us" for d in delays]


# ---------------------------------------------------------------------------
# Table 1 / Fig. 3 — delay map & verbs latency
# ---------------------------------------------------------------------------

@experiment("table1", "WAN delay vs emulated wire length (5 us/km)")
def _table1(quick):
    rows = [(f"{km:g} km", f"{us:g} us") for km, us in table1()]
    return ["distance", "one-way delay"], rows, ""


@experiment("fig03", "Verbs small-message latency (us), 0 km")
def _fig03(quick):
    iters = 20 if quick else 100
    rows = []
    s = wan_pair(0.0)
    rows.append(("Send/Recv UD (Longbows)", perftest.run_send_lat(
        s.sim, s.a, s.b, 2, iters, transport="ud")))
    s = wan_pair(0.0)
    rows.append(("Send/Recv RC (Longbows)", perftest.run_send_lat(
        s.sim, s.a, s.b, 2, iters)))
    s = wan_pair(0.0)
    rows.append(("RDMA Write RC (Longbows)", perftest.run_write_lat(
        s.sim, s.a, s.b, 2, iters)))
    s = back_to_back()
    rows.append(("Send/Recv RC (back-to-back)", perftest.run_send_lat(
        s.sim, *s.fabric.nodes, 2, iters)))
    return ["operation", "latency_us"], rows, \
        "Longbow pair adds ~5 us over the back-to-back baseline"


# ---------------------------------------------------------------------------
# Fig. 4 / Fig. 5 — verbs bandwidth
# ---------------------------------------------------------------------------

def _bw_iters(size):
    return 96 if size <= 4 * KB else (48 if size <= 256 * KB else 16)


def _verbs_bw_row(size, transport, bidir):
    row = [size]
    for d in DELAYS:
        s = wan_pair(d)
        fn = perftest.run_bidir_bw if bidir else perftest.run_send_bw
        row.append(fn(s.sim, s.a, s.b, size, iters=_bw_iters(size),
                      transport=transport, fabric=s.fabric))
    return tuple(row)


def _fig04a_sizes(quick):
    return [2, 512, 2048] if quick else [2, 64, 256, 512, 1024, 2048]


def _fig04a_cell(quick, i):
    return _verbs_bw_row(_fig04a_sizes(quick)[i], "ud", False)


@experiment("fig04a", "Verbs UD bandwidth (MB/s) vs size and delay",
            cells=CellPlan(_fig04a_sizes, _fig04a_cell))
def _fig04a(quick, rows):
    return ["size"] + _delay_cols(DELAYS), rows, \
        "UD bandwidth is delay-independent (no ACKs)"


def _fig04b_sizes(quick):
    return [2048] if quick else [2, 512, 1024, 2048]


def _fig04b_cell(quick, i):
    return _verbs_bw_row(_fig04b_sizes(quick)[i], "ud", True)


@experiment("fig04b", "Verbs UD bidirectional bandwidth (MB/s)",
            cells=CellPlan(_fig04b_sizes, _fig04b_cell))
def _fig04b(quick, rows):
    return ["size"] + _delay_cols(DELAYS), rows, ""


def _fig05a_sizes(quick):
    return ([2 * KB, 64 * KB, 256 * KB, 4 * MB] if quick else
            [2, 256, 2 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB])


def _fig05a_cell(quick, i):
    return _verbs_bw_row(_fig05a_sizes(quick)[i], "rc", False)


@experiment("fig05a", "Verbs RC bandwidth (MB/s) vs size and delay",
            cells=CellPlan(_fig05a_sizes, _fig05a_cell))
def _fig05a(quick, rows):
    return ["size"] + _delay_cols(DELAYS), rows, \
        "RC window limits small/medium messages over long pipes"


def _fig05b_sizes(quick):
    return [64 * KB, 4 * MB] if quick else [2 * KB, 64 * KB, 1 * MB, 4 * MB]


def _fig05b_cell(quick, i):
    return _verbs_bw_row(_fig05b_sizes(quick)[i], "rc", True)


@experiment("fig05b", "Verbs RC bidirectional bandwidth (MB/s)",
            cells=CellPlan(_fig05b_sizes, _fig05b_cell))
def _fig05b(quick, rows):
    return ["size"] + _delay_cols(DELAYS), rows, ""


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 7 — IPoIB
# ---------------------------------------------------------------------------

def _ipoib_delays(quick):
    return (0.0, 100.0, 1000.0, 10000.0) if quick else DELAYS


def _fig06a_windows(quick):
    return [64 * KB, 256 * KB, 512 * KB, None]  # None = default


def _fig06a_cell(quick, i):
    w = _fig06a_windows(quick)[i]
    total = 4 * MB if quick else 64 * MB
    label = "default" if w is None else f"{w // KB}K"
    row = [label]
    for d in _ipoib_delays(quick):
        s = wan_pair(d)
        row.append(netperf.run_stream_bw(
            s.sim, s.fabric, s.a, s.b, total_bytes=total, mode="ud",
            window=w))
    return tuple(row)


@experiment("fig06a", "IPoIB-UD single-stream throughput (MB/s) vs TCP window",
            cells=CellPlan(_fig06a_windows, _fig06a_cell))
def _fig06a(quick, rows):
    return ["window"] + _delay_cols(_ipoib_delays(quick)), rows, \
        "larger windows sustain longer pipes; all degrade eventually"


def _fig06b_streams(quick):
    return (1, 2, 4, 8) if quick else (1, 2, 4, 6, 8)


def _fig06b_delays(quick):
    return (0.0, 1000.0, 10000.0) if quick else DELAYS


def _fig06b_cell(quick, i):
    n = _fig06b_streams(quick)[i]
    total = 8 * MB if quick else 64 * MB
    row = [n]
    for d in _fig06b_delays(quick):
        s = wan_pair(d)
        row.append(netperf.run_parallel_stream_bw(
            s.sim, s.fabric, s.a, s.b, total_bytes=total, streams=n,
            mode="ud"))
    return tuple(row)


@experiment("fig06b", "IPoIB-UD parallel-stream throughput (MB/s)",
            cells=CellPlan(_fig06b_streams, _fig06b_cell))
def _fig06b(quick, rows):
    return ["streams"] + _delay_cols(_fig06b_delays(quick)), rows, \
        "parallel streams recover throughput on high-delay links"


def _fig07a_mtus(quick):
    return [2044, 16384, 65520]


def _fig07a_cell(quick, i):
    mtu = _fig07a_mtus(quick)[i]
    total = 8 * MB if quick else 64 * MB
    row = [f"{(mtu + 4) // 1024}K MTU"]
    for d in _ipoib_delays(quick):
        s = wan_pair(d)
        row.append(netperf.run_stream_bw(
            s.sim, s.fabric, s.a, s.b, total_bytes=total, mode="rc",
            mtu=mtu))
    return tuple(row)


@experiment("fig07a", "IPoIB-RC single-stream throughput (MB/s) vs IP MTU",
            cells=CellPlan(_fig07a_mtus, _fig07a_cell))
def _fig07a(quick, rows):
    return ["mtu"] + _delay_cols(_ipoib_delays(quick)), rows, \
        "64K MTU amortizes per-packet cost; collapses at >=1ms delays"


def _fig07b_cell(quick, i):
    n = _fig06b_streams(quick)[i]
    total = 8 * MB if quick else 64 * MB
    row = [n]
    for d in _fig06b_delays(quick):
        s = wan_pair(d)
        row.append(netperf.run_parallel_stream_bw(
            s.sim, s.fabric, s.a, s.b, total_bytes=total, streams=n,
            mode="rc"))
    return tuple(row)


@experiment("fig07b", "IPoIB-RC parallel-stream throughput (MB/s)",
            cells=CellPlan(_fig06b_streams, _fig07b_cell))
def _fig07b(quick, rows):
    return ["streams"] + _delay_cols(_fig06b_delays(quick)), rows, ""


# ---------------------------------------------------------------------------
# Fig. 8 / 9 / 10 / 11 — MPI
# ---------------------------------------------------------------------------

def _fig08a_sizes(quick):
    return ([2 * KB, 8 * KB, 64 * KB, 256 * KB, 4 * MB] if quick else
            [2, 256, 2 * KB, 8 * KB, 16 * KB, 64 * KB, 256 * KB,
             1 * MB, 4 * MB])


def _fig08a_cell(quick, i):
    size = _fig08a_sizes(quick)[i]
    row = [size]
    for d in DELAYS:
        s = wan_pair(d)
        iters = 4 if size >= MB else 6
        row.append(run_osu_bw(s.sim, s.fabric, size, window=64,
                              iters=iters))
    return tuple(row)


@experiment("fig08a", "MPI bandwidth (MB/s) vs size and delay (MVAPICH2-like)",
            cells=CellPlan(_fig08a_sizes, _fig08a_cell))
def _fig08a(quick, rows):
    return ["size"] + _delay_cols(DELAYS), rows, \
        "rendezvous handshake penalizes medium sizes under delay"


def _fig08b_sizes(quick):
    return [64 * KB, 4 * MB] if quick else [2 * KB, 64 * KB, 1 * MB, 4 * MB]


def _fig08b_cell(quick, i):
    size = _fig08b_sizes(quick)[i]
    row = [size]
    for d in DELAYS:
        s = wan_pair(d)
        iters = 3 if size >= MB else 6
        row.append(run_osu_bibw(s.sim, s.fabric, size, window=32,
                                iters=iters))
    return tuple(row)


@experiment("fig08b", "MPI bidirectional bandwidth (MB/s)",
            cells=CellPlan(_fig08b_sizes, _fig08b_cell))
def _fig08b(quick, rows):
    return ["size"] + _delay_cols(DELAYS), rows, ""


@experiment("fig09a", "MPI bandwidth at 10ms delay: default vs tuned threshold")
def _fig09a(quick):
    sizes = ([8 * KB, 16 * KB, 32 * KB] if quick else
             [1 * KB, 2 * KB, 4 * KB, 8 * KB, 16 * KB, 32 * KB])
    tuned = DEFAULT_TUNING.with_overrides(eager_threshold=64 * KB + 1)
    rows = []
    for size in sizes:
        s = wan_pair(10000.0)
        orig = run_osu_bw(s.sim, s.fabric, size, window=32, iters=4)
        s = wan_pair(10000.0)
        new = run_osu_bw(s.sim, s.fabric, size, window=32, iters=4,
                         tuning=tuned)
        rows.append((size, orig, new, 100.0 * (new - orig) / orig))
    return ["size", "thresh-8K", "thresh-64K", "improvement_%"], rows, \
        "paper reports large gains for 8K-32K at high delay"


@experiment("fig09b", "MPI bidirectional bandwidth at 10ms: default vs tuned")
def _fig09b(quick):
    sizes = [8 * KB, 32 * KB] if quick else [8 * KB, 16 * KB, 32 * KB,
                                             64 * KB]
    tuned = DEFAULT_TUNING.with_overrides(eager_threshold=64 * KB + 1)
    rows = []
    for size in sizes:
        s = wan_pair(10000.0)
        orig = run_osu_bibw(s.sim, s.fabric, size, window=32, iters=4)
        s = wan_pair(10000.0)
        new = run_osu_bibw(s.sim, s.fabric, size, window=32, iters=4,
                           tuning=tuned)
        rows.append((size, orig, new, 100.0 * (new - orig) / orig))
    return ["size", "thresh-8K", "thresh-64K", "improvement_%"], rows, ""


def _fig10_params(quick):
    delays = (10.0, 1000.0, 10000.0)
    sizes = [1, 1 * KB, 8 * KB] if quick else [1, 256, 1 * KB, 4 * KB,
                                               8 * KB, 32 * KB]
    return [(d, size) for d in delays for size in sizes]


def _fig10_cell(quick, i):
    d, size = _fig10_params(quick)[i]
    iters = 3 if quick else 6
    row = [f"{int(d)}us", size]
    for pairs in (4, 8, 16):
        s = wan_clusters(pairs, pairs, d)
        _, rate = run_osu_mbw_mr(s.sim, s.fabric, pairs, size,
                                 window=32, iters=iters)
        row.append(rate)
    return tuple(row)


@experiment("fig10", "Multi-pair aggregate message rate (msg/s)",
            cells=CellPlan(_fig10_params, _fig10_cell))
def _fig10(quick, rows):
    return ["delay", "size", "4 pairs", "8 pairs", "16 pairs"], rows, \
        "message rate scales with pairs; more streams fill long pipes"


def _fig11_params(quick):
    delays = (10.0, 100.0, 1000.0)
    sizes = ([4 * KB, 32 * KB, 128 * KB] if quick else
             [4 * KB, 16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB])
    return [(d, size) for d in delays for size in sizes]


def _fig11_cell(quick, i):
    d, size = _fig11_params(quick)[i]
    nodes = 8 if quick else 32            # per cluster, 2 ranks per node
    iters = 3 if quick else 10
    s = wan_clusters(nodes, nodes, d)
    orig = run_osu_bcast(s.sim, s.fabric, size, ppn=2, iters=iters)
    s = wan_clusters(nodes, nodes, d)
    hier = run_osu_bcast(s.sim, s.fabric, size, ppn=2, iters=iters,
                         algorithm="hierarchical")
    return (f"{int(d)}us", size, orig, hier,
            100.0 * (orig - hier) / orig)


@experiment("fig11", "Broadcast latency (us): default vs hierarchical",
            cells=CellPlan(_fig11_params, _fig11_cell))
def _fig11(quick, rows):
    nodes = 8 if quick else 32
    return ["delay", "size", "original_us", "hierarchical_us",
            "improvement_%"], rows, \
        f"{4 * nodes} ranks, block placement, ACK-based OSU loop"


# ---------------------------------------------------------------------------
# Fig. 12 — NAS
# ---------------------------------------------------------------------------

def _fig12_benches(quick):
    if quick:
        return (("IS", 0.2), ("FT", 0.05), ("CG", 0.027))
    return (("IS", 0.4), ("FT", 0.1), ("CG", 0.067), ("MG", 0.25),
            ("EP", 1.0))


def _fig12_cell(quick, i):
    bench, bscale = _fig12_benches(quick)[i]
    nodes = 8 if quick else 16
    base = None
    row = [bench]
    for d in (0.0, 100.0, 1000.0, 10000.0):
        s = wan_clusters(nodes, nodes, d)
        r = run_nas(s.sim, s.fabric, bench, ppn=1, scale=bscale)
        if base is None:
            base = r.runtime_us
        row.append(r.runtime_us / base)
    return tuple(row)


@experiment("fig12", "NAS class-B runtime vs WAN delay (normalized)",
            cells=CellPlan(_fig12_benches, _fig12_cell))
def _fig12(quick, rows):
    nodes = 8 if quick else 16
    return ["benchmark"] + _delay_cols((0.0, 100.0, 1000.0, 10000.0)), \
        rows, (f"{2 * nodes} ranks; slowdown relative to 0-delay; IS/FT "
               f"tolerate delay, CG degrades (paper Fig. 12)")


# ---------------------------------------------------------------------------
# Fig. 13 — NFS
# ---------------------------------------------------------------------------

def _fig13a_streams(quick):
    return (1, 2, 4, 8)


def _fig13a_cell(quick, i):
    n = _fig13a_streams(quick)[i]
    read = 8 * MB if quick else 64 * MB
    row = [n]
    s = lan(2)
    row.append(run_iozone_read(s.sim, s.fabric, s.fabric.nodes[0],
                               s.fabric.nodes[1], "rdma", n_streams=n,
                               read_bytes=read))
    for d in (0.0, 10.0, 100.0, 1000.0):
        s = wan_pair(d)
        row.append(run_iozone_read(s.sim, s.fabric, s.a, s.b, "rdma",
                                   n_streams=n, read_bytes=read))
    return tuple(row)


@experiment("fig13a", "NFS/RDMA read throughput (MB/s) vs client streams",
            cells=CellPlan(_fig13a_streams, _fig13a_cell))
def _fig13a(quick, rows):
    return ["streams", "LAN", "0us", "10us", "100us", "1000us"], rows, \
        "LAN runs at DDR; WAN at SDR; 4K chunks collapse at 1ms"


def _fig13_compare(delay_us, quick):
    streams = (1, 2, 4, 8)
    read = 8 * MB if quick else 32 * MB
    rows = []
    for n in streams:
        row = [n]
        for tr in ("rdma", "ipoib-rc", "ipoib-ud"):
            s = wan_pair(delay_us)
            row.append(run_iozone_read(s.sim, s.fabric, s.a, s.b, tr,
                                       n_streams=n, read_bytes=read))
        rows.append(tuple(row))
    return ["streams", "RDMA", "IPoIB-RC", "IPoIB-UD"], rows


@experiment("fig13b", "NFS read throughput by transport, 10us delay (MB/s)")
def _fig13b(quick):
    cols, rows = _fig13_compare(10.0, quick)
    return cols, rows, "RDMA wins at low delay (no copies)"


@experiment("fig13c", "NFS read throughput by transport, 1ms delay (MB/s)")
def _fig13c(quick):
    cols, rows = _fig13_compare(1000.0, quick)
    return cols, rows, "IPoIB-RC wins at high delay (4K RDMA chunks stall)"


# ---------------------------------------------------------------------------
# Optimizations & ablations
# ---------------------------------------------------------------------------

@experiment("opt_streams", "Parallel-stream gain over single stream (IPoIB-UD)")
def _opt_streams(quick):
    total = 8 * MB
    rows = []
    for d in (100.0, 1000.0, 10000.0):
        s = wan_pair(d)
        one = netperf.run_parallel_stream_bw(s.sim, s.fabric, s.a, s.b,
                                             total, streams=1, mode="ud")
        s = wan_pair(d)
        eight = netperf.run_parallel_stream_bw(s.sim, s.fabric, s.a, s.b,
                                               total, streams=8, mode="ud")
        rows.append((f"{int(d)}us", one, eight,
                     100.0 * (eight - one) / one))
    return ["delay", "1 stream", "8 streams", "gain_%"], rows, \
        "the paper's 'up to ~50%' parallel-stream claim"


@experiment("opt_coalescing", "Message coalescing gain (small-message rate)")
def _opt_coalescing(quick):
    from ..mpi.runtime import MPIJob
    count = 256 if quick else 1024
    rows = []
    for d in (100.0, 1000.0):
        rates = []
        for threshold in (None, 64 * KB):
            s = wan_pair(d)
            job = MPIJob(s.fabric, nprocs=2, ppn=1, placement="cyclic")
            rates.append(coalesced_message_rate(
                s.sim, job.procs[0], job.procs[1], msg_bytes=512,
                count=count, threshold=threshold))
        rows.append((f"{int(d)}us", rates[0], rates[1],
                     rates[1] / rates[0]))
    return ["delay", "individual msg/s", "coalesced msg/s", "speedup"], \
        rows, "512B messages, 64K coalescing buffer"


@experiment("opt_adaptive", "Adaptive threshold tuning vs static default")
def _opt_adaptive(quick):
    rows = []
    for d in (1000.0, 10000.0):
        s = wan_pair(d)
        est = probe_path(s.sim, s.fabric)
        tuned = recommend_tuning(est)
        s = wan_pair(d)
        orig = run_osu_bw(s.sim, s.fabric, 16 * KB, window=32, iters=4)
        s = wan_pair(d)
        new = run_osu_bw(s.sim, s.fabric, 16 * KB, window=32, iters=4,
                         tuning=tuned)
        rows.append((f"{int(d)}us", tuned.eager_threshold, orig, new,
                     100.0 * (new - orig) / max(orig, 1e-9)))
    return ["delay", "chosen_threshold", "default MB/s", "adaptive MB/s",
            "gain_%"], rows, "probe RTT+BW, set threshold ~ BDP"


@experiment("abl_rc_window", "Ablation: RC send window vs 64K bandwidth")
def _abl_rc_window(quick):
    rows = []
    for window in (4, 16, 64):
        row = [window]
        for d in (100.0, 1000.0, 10000.0):
            s = wan_pair(d)
            row.append(perftest.run_send_bw(s.sim, s.a, s.b, 64 * KB,
                                            iters=48, window=window))
        rows.append(tuple(row))
    return ["window", "100us", "1000us", "10000us"], rows, \
        "window vs BDP is the whole RC-over-WAN story"


@experiment("abl_credits", "Ablation: Longbow buffer credits vs throughput")
def _abl_credits(quick):
    rows = []
    for credits in (64 * KB, 1 * MB, 64 * MB):
        profile = DEFAULT_PROFILE.with_overrides(
            longbow_buffer_bytes=credits)
        s = wan_pair(1000.0, profile=profile)
        bw = perftest.run_send_bw(s.sim, s.a, s.b, 256 * KB, iters=24)
        rows.append((f"{credits // KB}K", bw))
    return ["credit pool", "256K bw @1ms (MB/s)"], rows, \
        "deep buffers are what make long-haul IB work at all"


@experiment("abl_bcast", "Ablation: bcast algorithm comparison at 128K")
def _abl_bcast(quick):
    nodes = 8 if quick else 16
    iters = 3 if quick else 6
    rows = []
    for d in (10.0, 1000.0):
        row = [f"{int(d)}us"]
        for algo in ("binomial", "scatter_allgather",
                     "scatter_rd_allgather", "hierarchical"):
            s = wan_clusters(nodes, nodes, d)
            row.append(run_osu_bcast(s.sim, s.fabric, 128 * KB, ppn=2,
                                     iters=iters, algorithm=algo))
        rows.append(tuple(row))
    return ["delay", "binomial", "scat+ring", "scat+rd", "hierarchical"], \
        rows, "WAN crossings dominate: 1 (binomial/hier) vs O(P) (ring)"


@experiment("ext_hier_allreduce", "Extension: hierarchical vs flat allreduce")
def _ext_hier_allreduce(quick):
    from ..mpi.collectives import allreduce
    from ..mpi.runtime import MPIJob
    from .hierarchical import hierarchical_allreduce
    nodes = 8 if quick else 16
    size = 64 * KB
    rows = []
    for d in (10.0, 1000.0):
        times = []
        for fn in (allreduce, hierarchical_allreduce):
            s = wan_clusters(nodes, nodes, d)
            job = MPIJob(s.fabric, ppn=1, placement="block")

            def prog(proc, fn=fn):
                t0 = proc.sim.now
                for _ in range(3):
                    yield from fn(proc, size)
                return (proc.sim.now - t0) / 3

            times.append(max(job.run(prog)))
        rows.append((f"{int(d)}us", times[0], times[1],
                     100.0 * (times[0] - times[1]) / times[0]))
    return ["delay", "flat_us", "hierarchical_us", "improvement_%"], rows, \
        "future-work item from the paper's conclusions"


@experiment("ext_sdp", "Extension: SDP vs IPoIB socket paths (MB/s)")
def _ext_sdp(quick):
    from ..sdp import run_sdp_stream_bw
    total = 8 * MB
    rows = []
    for d in (0.0, 1000.0, 10000.0):
        s = wan_pair(d)
        sdp = run_sdp_stream_bw(s.sim, s.fabric, s.a, s.b, total)
        s = wan_pair(d)
        rc = netperf.run_stream_bw(s.sim, s.fabric, s.a, s.b, total,
                                   mode="rc")
        s = wan_pair(d)
        ud = netperf.run_stream_bw(s.sim, s.fabric, s.a, s.b, total,
                                   mode="ud")
        rows.append((f"{int(d)}us", sdp, rc, ud))
    return ["delay", "SDP", "IPoIB-RC", "IPoIB-UD"], rows, \
        "SDP skips the TCP stack ([19]'s ttcp-over-SDP comparison)"


@experiment("ext_pfs", "Extension: striped parallel FS read over WAN (MB/s)")
def _ext_pfs(quick):
    from ..pfs import run_pfs_read
    file_bytes = 8 * MB if quick else 32 * MB
    rows = []
    for d in (0.0, 1000.0):
        row = [f"{int(d)}us"]
        for n_oss in (1, 2, 4):
            s = wan_clusters(n_oss, 1, d)
            row.append(run_pfs_read(s.sim, s.fabric,
                                    s.fabric.cluster_a[:n_oss],
                                    s.fabric.cluster_b[0],
                                    file_bytes=file_bytes))
        rows.append(tuple(row))
    return ["delay", "1 OSS", "2 OSS", "4 OSS"], rows, \
        "striping = parallel streams for filesystems (paper future work)"


@experiment("ext_readahead", "Extension: NFS client readahead over WAN")
def _ext_readahead(quick):
    from ..nfs.iozone import mount
    rows = []
    for ra in (1, 4, 8):
        row = [ra]
        for d in (100.0, 1000.0):
            s = wan_pair(d)
            server, factory = mount(s.fabric, s.a, s.b, "ipoib-rc")
            server.export("/f", 64 * MB)
            span = {}

            def main(ra=ra, span=span, factory=factory, s=s):
                client = yield from factory()
                t0 = s.sim.now
                yield from client.read_file("/f", 8 * MB, 256 * 1024,
                                            readahead=ra)
                span["t"] = s.sim.now - t0

            done = s.sim.process(main())
            s.sim.run(until=done)
            row.append(8 * MB / span["t"])
        rows.append(tuple(row))
    return ["readahead", "100us (MB/s)", "1000us (MB/s)"], rows, \
        "client readahead pipelines RPC round trips like parallel streams"


@experiment("ext_dlm", "Extension: RDMA-atomic lock handoff over WAN")
def _ext_dlm(quick):
    from .dlm import LockClient, LockServer
    rows = []
    for d in (0.0, 100.0, 1000.0, 10000.0):
        s = wan_pair(d)
        server = LockServer(s.a)
        client = LockClient(s.b, server, client_id=1)
        addr = server.create_lock()
        span = {}

        def main(s=s, client=client, addr=addr, span=span):
            t0 = s.sim.now
            for _ in range(5):
                yield from client.acquire(addr)
                yield from client.release(addr)
            span["t"] = (s.sim.now - t0) / 5

        s.sim.run(until=s.sim.process(main()))
        rows.append((f"{int(d)}us", span["t"]))
    return ["delay", "acquire+release_us"], rows, \
        "each handoff costs ~2 WAN RTTs; atomics cannot hide distance"


# ---------------------------------------------------------------------------
# Fault injection — goodput vs loss rate x WAN delay, plus recovery
# ---------------------------------------------------------------------------

FAULT_DELAYS = (10.0, 1000.0)


def _flt_losses(quick) -> List[float]:
    return [0.0, 0.02] if quick else [0.0, 0.005, 0.02, 0.08]


def _flt_spec(loss: float) -> str:
    """Default Gilbert-Elliott spec averaging ``loss`` overall.

    With p(good->bad)=0.1 and p(bad->good)=0.3 the chain spends 25 % of
    frames in the bad state, so a bad-state drop rate of 4x the target
    averages out to the target loss while still arriving in bursts.
    """
    if loss <= 0.0:
        return ""
    return f"burst={min(0.9, 4.0 * loss):g}/0.1/0.3,seed=23"


def _flt_plan(loss: float):
    """Plan for one sweep row; a CLI ``--faults SPEC`` (the process-wide
    active spec) overrides the row default for what-if runs — the cache
    keys results under the active spec, so clean results are unharmed."""
    from ..faults import FaultPlan, get_active_spec
    spec = get_active_spec() or _flt_spec(loss)
    return FaultPlan.parse(spec) if spec else None


def _flt01_row(quick, i, runner, **kwargs):
    loss = _flt_losses(quick)[i]
    row = [f"{loss:g}"]
    for d in FAULT_DELAYS:
        stats = runner(d, _flt_plan(loss), **kwargs)
        row.append(stats["goodput_mb_s"])
    return tuple(row)


def _flt01a_cell(quick, i):
    from ..faults.workloads import run_rc_goodput
    return _flt01_row(quick, i, run_rc_goodput,
                      duration_us=20000.0 if quick else 40000.0)


@experiment("flt01a", "Faults: verbs RC goodput (MB/s) vs loss and delay",
            cells=CellPlan(_flt_losses, _flt01a_cell))
def _flt01a(quick, rows):
    return ["loss"] + _delay_cols(FAULT_DELAYS), rows, \
        "RC loss recovery costs a retransmit RTT: degradation compounds " \
        "with delay"


def _flt01b_cell(quick, i):
    from ..faults.workloads import run_ud_goodput
    return _flt01_row(quick, i, run_ud_goodput,
                      duration_us=20000.0 if quick else 40000.0)


@experiment("flt01b", "Faults: verbs UD goodput (MB/s) vs loss and delay",
            cells=CellPlan(_flt_losses, _flt01b_cell))
def _flt01b(quick, rows):
    return ["loss"] + _delay_cols(FAULT_DELAYS), rows, \
        "UD goodput is delay-independent and drops only by the delivered " \
        "fraction"


def _flt01c_cell(quick, i):
    from ..faults.workloads import run_tcp_goodput
    return _flt01_row(quick, i, run_tcp_goodput,
                      total_bytes=MB if quick else 2 * MB)


@experiment("flt01c", "Faults: IPoIB-UD TCP goodput (MB/s) vs loss and delay",
            cells=CellPlan(_flt_losses, _flt01c_cell))
def _flt01c(quick, rows):
    return ["loss"] + _delay_cols(FAULT_DELAYS), rows, \
        "TCP completes under burst loss via RTO/fast retransmit " \
        "(go-back-N over the WAN)"


def _flt01d_cell(quick, i):
    from ..faults.workloads import run_nfs_goodput
    return _flt01_row(quick, i, run_nfs_goodput,
                      read_bytes=MB if quick else 2 * MB)


@experiment("flt01d", "Faults: NFS/RDMA read goodput (MB/s) vs loss and delay",
            cells=CellPlan(_flt_losses, _flt01d_cell))
def _flt01d(quick, rows):
    return ["loss"] + _delay_cols(FAULT_DELAYS), rows, \
        "RPC timeouts retransmit under the same xid; the server DRC " \
        "absorbs replays"


@experiment("flt02", "Faults: RC recovery timeline under a link flap")
def _flt02(quick):
    from ..faults import FaultPlan
    from ..faults.workloads import run_rc_goodput
    duration = 40000.0 if quick else 60000.0
    scenarios = (
        ("baseline", ""),
        ("flap 15ms", "flap@5000:15000,seed=7"),
        ("flap+loss", "flap@5000:15000,burst=0.2/0.05/0.3,seed=7"),
    )
    rows = []
    for label, spec in scenarios:
        plan = FaultPlan.parse(spec) if spec else None
        st = run_rc_goodput(100.0, plan, duration_us=duration)
        rows.append((label, st["goodput_mb_s"], st["rc_retransmissions"],
                     st["qp_errors"], st["reconnects"],
                     st["wan_frames_dropped"]))
    return ["scenario", "goodput_mb_s", "retransmissions", "qp_errors",
            "reconnects", "wan_drops"], rows, \
        "retry-budget exhaustion -> QP error -> reconnect -> traffic resumes"
