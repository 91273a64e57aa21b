"""Command-line tools mirroring the utilities the paper's authors ran.

Four subcommands, each the simulated twin of a classic tool:

* ``repro perftest`` — OFED perftest (ib_send_lat / ib_send_bw /
  ib_write_bw, RC or UD, with the Longbow delay knob);
* ``repro netperf``  — TCP throughput over IPoIB (window / MTU /
  parallel streams) plus SDP;
* ``repro iozone``   — NFS read throughput over RDMA / IPoIB;
* ``repro experiments`` — regenerate paper tables/figures by id.

Examples::

    python -m repro.cli perftest bw --size 65536 --delay-us 1000
    python -m repro.cli perftest lat --transport ud
    python -m repro.cli netperf --mode rc --mtu 65520 --streams 4
    python -m repro.cli iozone --transport ipoib-rc --delay-us 1000
    python -m repro.cli experiments fig05a fig13c
    python -m repro.cli experiments --jobs 4 --cache --out results.jsonl

``experiments`` runs on the parallel engine (:mod:`repro.exp`):
``--jobs N`` fans experiments and sweep rows out to worker processes
(byte-identical output to a serial run), ``--cache`` reuses unchanged
results from ``.repro-cache/``, and ``--out`` writes the JSON-lines
store that tables are rendered from.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import Simulator, build_cluster_of_clusters
from .calibration import MB

__all__ = ["main"]


def _fabric(delay_us: float, nodes: int = 1, faults: Optional[str] = None):
    sim = Simulator()
    fabric = build_cluster_of_clusters(sim, nodes, nodes,
                                       wan_delay_us=delay_us)
    if faults:
        from .faults import FaultPlan
        FaultPlan.parse(faults).apply(fabric)
    return sim, fabric


def _cmd_perftest(args) -> int:
    from .verbs import perftest
    sim, fabric = _fabric(args.delay_us, faults=args.faults)
    a, b = fabric.cluster_a[0], fabric.cluster_b[0]
    if args.test == "lat":
        lat = perftest.run_send_lat(sim, a, b, args.size, args.iters,
                                    transport=args.transport)
        print(f"{args.transport.upper()} send latency, {args.size}B, "
              f"delay {args.delay_us:g}us: {lat:.2f} us")
    elif args.test == "bw":
        bw = perftest.run_send_bw(sim, a, b, args.size, args.iters,
                                  transport=args.transport, fabric=fabric)
        print(f"{args.transport.upper()} send bandwidth, {args.size}B, "
              f"delay {args.delay_us:g}us: {bw:.1f} MB/s")
    elif args.test == "write_bw":
        bw = perftest.run_write_bw(sim, a, b, args.size, args.iters)
        print(f"RDMA write bandwidth, {args.size}B, "
              f"delay {args.delay_us:g}us: {bw:.1f} MB/s")
    else:
        bw = perftest.run_bidir_bw(sim, a, b, args.size, args.iters,
                                   transport=args.transport, fabric=fabric)
        print(f"{args.transport.upper()} bidirectional bandwidth, "
              f"{args.size}B, delay {args.delay_us:g}us: {bw:.1f} MB/s")
    return 0


def _cmd_netperf(args) -> int:
    sim, fabric = _fabric(args.delay_us, faults=args.faults)
    a, b = fabric.cluster_a[0], fabric.cluster_b[0]
    if args.mode == "sdp":
        from .sdp import run_sdp_stream_bw
        bw = run_sdp_stream_bw(sim, fabric, a, b, args.bytes)
        label = "SDP"
    else:
        from .ipoib import netperf
        if args.streams > 1:
            bw = netperf.run_parallel_stream_bw(
                sim, fabric, a, b, args.bytes, streams=args.streams,
                mode=args.mode, mtu=args.mtu, window=args.window)
        else:
            bw = netperf.run_stream_bw(
                sim, fabric, a, b, args.bytes, mode=args.mode,
                mtu=args.mtu, window=args.window)
        label = f"IPoIB-{args.mode.upper()}"
    print(f"{label} throughput, {args.streams} stream(s), "
          f"delay {args.delay_us:g}us: {bw:.1f} MB/s")
    return 0


def _cmd_iozone(args) -> int:
    from .nfs import run_iozone_read
    sim, fabric = _fabric(args.delay_us, faults=args.faults)
    bw = run_iozone_read(sim, fabric, fabric.cluster_a[0],
                         fabric.cluster_b[0], args.transport,
                         n_streams=args.threads,
                         read_bytes=args.bytes)
    print(f"NFS/{args.transport} read, {args.threads} thread(s), "
          f"delay {args.delay_us:g}us: {bw:.1f} MB/s")
    return 0


def _cmd_experiments(args) -> int:
    import json

    from .core.registry import UnknownExperimentError
    from .exp import DryRunBackend, ResultCache, run_experiments, write_jsonl
    from .exp.journal import JournalError, new_run_id
    cache = ResultCache(args.cache_dir) if args.cache else None
    backend = args.backend
    dryrun = None
    if backend == "dryrun":
        backend = dryrun = DryRunBackend()
    # Settle the run id here so scripts can capture it (stderr, before
    # any work happens) and pass it back to --resume after a crash.
    journal_id = args.journal_id
    if args.resume is None and (args.journal or args.journal_dir
                                or journal_id):
        if journal_id is None:
            journal_id = new_run_id()
        print(f"repro: journaling run {journal_id} under "
              f"{args.journal_dir or '.repro-cache/journal'}",
              file=sys.stderr)
    journaling = args.resume is not None or journal_id is not None
    failures = []
    try:
        results = run_experiments(ids=args.ids, quick=not args.full,
                                  jobs=args.jobs, cache=cache,
                                  timeout_s=args.timeout,
                                  retries=args.retries,
                                  keep_going=args.keep_going,
                                  failures=failures,
                                  faults_spec=args.faults,
                                  flow_mode=args.flow,
                                  backend=backend,
                                  journal_dir=(args.journal_dir
                                               if journaling else None),
                                  journal_id=journal_id,
                                  resume=args.resume)
    except (UnknownExperimentError, JournalError) as exc:
        print(f"repro experiments: {exc}", file=sys.stderr)
        return 2
    if dryrun is not None:
        plan = dryrun.last_plan or {"backend": "dryrun", "n_tasks": 0,
                                    "tasks": []}
        print(json.dumps(plan, indent=2, sort_keys=True))
        if cache is not None:
            print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
                  f"in {cache.root}", file=sys.stderr)
        return 0
    if args.out:
        write_jsonl(args.out, results)
    for result in results:
        print(result.to_text())
        print()
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"in {cache.root}", file=sys.stderr)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    metrics_help = "collect metrics and print a summary table after the run"
    faults_help = ("WAN fault-injection spec (see repro.faults.FaultPlan), "
                   "e.g. 'loss=0.02,flap@5000:2000,seed=7'")
    flow_help = ("flow-level acceleration for bulk transfers (see "
                 "repro.flow): 'auto'/'on' collapse proved steady-state "
                 "tails analytically, 'off' forces packet mode; "
                 "automatically disabled under --faults/--metrics")

    p = sub.add_parser("perftest", help="verbs microbenchmarks")
    p.add_argument("test", choices=["lat", "bw", "bibw", "write_bw"])
    p.add_argument("--size", type=int, default=65536)
    p.add_argument("--iters", type=int, default=48)
    p.add_argument("--transport", choices=["rc", "ud"], default="rc")
    p.add_argument("--delay-us", type=float, default=0.0)
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help=faults_help)
    p.add_argument("--metrics", action="store_true", help=metrics_help)
    p.add_argument("--flow", choices=["auto", "on", "off"], default=None,
                   help=flow_help)
    p.set_defaults(fn=_cmd_perftest)

    p = sub.add_parser("netperf", help="socket throughput (IPoIB / SDP)")
    p.add_argument("--mode", choices=["ud", "rc", "sdp"], default="ud")
    p.add_argument("--mtu", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--bytes", type=int, default=8 * MB)
    p.add_argument("--delay-us", type=float, default=0.0)
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help=faults_help)
    p.add_argument("--metrics", action="store_true", help=metrics_help)
    p.add_argument("--flow", choices=["auto", "on", "off"], default=None,
                   help=flow_help)
    p.set_defaults(fn=_cmd_netperf)

    p = sub.add_parser("iozone", help="NFS read throughput")
    p.add_argument("--transport", choices=["rdma", "ipoib-rc", "ipoib-ud"],
                   default="rdma")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--bytes", type=int, default=8 * MB)
    p.add_argument("--delay-us", type=float, default=0.0)
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help=faults_help)
    p.add_argument("--metrics", action="store_true", help=metrics_help)
    p.set_defaults(fn=_cmd_iozone)

    p = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p.add_argument("ids", nargs="*")
    p.add_argument("--full", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: all CPUs); output is "
                        "byte-identical to --jobs 1")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="reuse results from the on-disk cache when the "
                        "experiment source/version is unchanged")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="cache directory (default: %(default)s)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write results as JSON-lines to PATH")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help=faults_help + "; applied process-wide and keyed "
                        "into the cache")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-task wall-clock budget; overruns fail the task")
    p.add_argument("--retries", type=int, default=0,
                   help="retry failed/crashed tasks this many times "
                        "(default: %(default)s)")
    p.add_argument("--keep-going", action="store_true",
                   help="report failed experiments and exit 1 instead of "
                        "aborting the whole sweep")
    p.add_argument("--metrics", action="store_true", help=metrics_help)
    p.add_argument("--flow", choices=["auto", "on", "off"], default=None,
                   help=flow_help + "; keyed into the cache when set")
    p.add_argument("--backend", choices=["local", "dryrun"],
                   default=None,
                   help="execution backend: 'local' process pool "
                        "(default), 'dryrun' prints the task plan "
                        "without executing")
    p.add_argument("--journal", action="store_true",
                   help="write a durable run journal (enables --resume "
                        "after a crash); the run id is printed on stderr")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="journal directory (default: "
                        ".repro-cache/journal); implies --journal")
    p.add_argument("--journal-id", default=None, metavar="RUN_ID",
                   help="explicit run id for the journal (default: "
                        "generated); implies --journal")
    p.add_argument("--resume", default=None, metavar="RUN_ID",
                   help="resume a journaled run: skip journaled tasks, "
                        "re-execute the rest, and produce the same "
                        "bytes an uninterrupted run would have")
    p.set_defaults(fn=_cmd_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .flow.context import activated as flow_activated
    from .sim import SimulationError
    try:
        with flow_activated(getattr(args, "flow", None)):
            if getattr(args, "metrics", False):
                from .obs import MetricsRegistry, format_summary, use_registry
                registry = MetricsRegistry()
                with use_registry(registry):
                    status = args.fn(args)
                print()
                print(format_summary(registry))
                return status
            return args.fn(args)
    except SimulationError as exc:
        # Typically a closed-loop benchmark starved by injected faults
        # (every in-flight message dropped, nothing left to wake it).
        print(f"repro: simulation stalled: {exc}", file=sys.stderr)
        if getattr(args, "faults", None):
            print("repro: the fault spec likely dropped every outstanding "
                  "message; lossy closed-loop benchmarks need a transport "
                  "with recovery (rc) or the flt* experiments",
                  file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
