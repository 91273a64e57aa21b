"""Benchmark: event-kernel fast-path throughput.

Unlike the figure benchmarks, this measures the *simulator*, not the
paper: raw scheduler throughput on the frame-delivery storm, the
pattern every link/switch/Longbow hop pays per frame.

The assertion here is a sanity floor, not a perf target (CI boxes are
noisy); the committed reference numbers, with the frozen baseline of
the original allocation-per-event dispatch, live in
``BENCH_kernel.json``, regenerated with ``tools/bench_kernel.py``.
"""

from tools.bench_kernel import _DeliveryChains, _run_storm

FRAMES = 40_000


def _storm_best(rounds: int = 3) -> float:
    return max(_run_storm(_DeliveryChains, FRAMES) for _ in range(rounds))


def test_frame_storm_events_per_sec(benchmark):
    """Fast-path scheduler throughput on the frame-delivery storm."""
    rate = benchmark.pedantic(_storm_best, rounds=1, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(rate)
    assert rate > 100_000  # sanity floor, not a perf target
