"""Tests for measurement helpers, OSU collectives, LU profile,
calibration and experiment plumbing."""


import pytest

from repro.calibration import DEFAULT_PROFILE, KB
from repro.core import wan_clusters
from repro.sim import Simulator, ThroughputMeter, TimeSeries, mbps_from_bytes


# ---------------------------------------------------------------------------
# monitor helpers
# ---------------------------------------------------------------------------

def test_mbps_conversion():
    # 1 MillionBytes/sec == 1 byte/us
    assert mbps_from_bytes(1000, 10.0) == 100.0
    with pytest.raises(ValueError):
        mbps_from_bytes(1, 0.0)


def test_throughput_meter():
    sim = Simulator()
    meter = ThroughputMeter(sim)
    meter.start()

    def feed():
        for _ in range(4):
            yield sim.timeout(10.0)
            meter.account(1000)

    sim.run(until=sim.process(feed()))
    meter.stop()
    assert meter.bytes == 4000
    assert meter.messages == 4
    assert meter.elapsed_us == 40.0
    assert meter.mbps == 100.0
    assert meter.msg_rate == pytest.approx(4 / 40e-6)


def test_throughput_meter_requires_start():
    meter = ThroughputMeter(Simulator())
    with pytest.raises(RuntimeError):
        _ = meter.elapsed_us


def test_time_series_records_timestamps():
    sim = Simulator()
    ts = TimeSeries(sim)

    def feed():
        for v in (1.0, 2.0):
            yield sim.timeout(5.0)
            ts.record(v)

    sim.run(until=sim.process(feed()))
    assert ts.samples == [(5.0, 1.0), (10.0, 2.0)]
    assert ts.values() == [1.0, 2.0]
    assert len(ts) == 2


# ---------------------------------------------------------------------------
# calibration profile
# ---------------------------------------------------------------------------

def test_profile_is_immutable():
    with pytest.raises(Exception):
        DEFAULT_PROFILE.sdr_rate = 1.0  # frozen dataclass


def test_with_overrides_creates_variant():
    p = DEFAULT_PROFILE.with_overrides(rc_send_window=99)
    assert p.rc_send_window == 99
    assert DEFAULT_PROFILE.rc_send_window != 99


def test_link_rate_selector():
    assert DEFAULT_PROFILE.link_rate(wan=True) == DEFAULT_PROFILE.wan_rate
    assert DEFAULT_PROFILE.link_rate(wan=False) == DEFAULT_PROFILE.ddr_rate


def test_calibrated_rates_are_sane():
    p = DEFAULT_PROFILE
    assert p.ddr_rate == 2 * p.sdr_rate  # DDR doubles SDR
    assert p.ipoib_ud_mtu < p.ib_mtu
    assert p.ipoib_rc_mtu > 16 * p.ipoib_ud_mtu


# ---------------------------------------------------------------------------
# OSU collective benchmarks
# ---------------------------------------------------------------------------

def test_osu_allreduce_scales_with_delay():
    near = wan_clusters(2, 2, 10.0)
    t_near = __import__("repro.mpi.benchmarks", fromlist=["x"]) \
        .run_osu_allreduce(near.sim, near.fabric, 8 * KB, iters=3)
    far = wan_clusters(2, 2, 1000.0)
    t_far = __import__("repro.mpi.benchmarks", fromlist=["x"]) \
        .run_osu_allreduce(far.sim, far.fabric, 8 * KB, iters=3)
    assert t_far > t_near + 1500.0  # at least one WAN round trip more


def test_osu_barrier_crosses_wan_once_hierarchically():
    from repro.mpi.benchmarks import run_osu_barrier
    s = wan_clusters(4, 4, 1000.0)
    flat = run_osu_barrier(s.sim, s.fabric, iters=3)
    s = wan_clusters(4, 4, 1000.0)
    hier = run_osu_barrier(s.sim, s.fabric, iters=3, hierarchical=True)
    assert hier < flat  # dissemination crosses the WAN log(P) times


def test_osu_alltoall_bandwidth_bound():
    from repro.mpi.benchmarks import run_osu_alltoall
    s = wan_clusters(2, 2, 0.0)
    t0 = run_osu_alltoall(s.sim, s.fabric, 256 * KB, iters=2)
    s = wan_clusters(2, 2, 1000.0)
    t1 = run_osu_alltoall(s.sim, s.fabric, 256 * KB, iters=2)
    # concurrent posting: one extra RTT-ish, not one per peer
    assert t1 < t0 + 3 * 2000.0


# ---------------------------------------------------------------------------
# LU profile
# ---------------------------------------------------------------------------

def test_lu_profile_exists_and_is_latency_bound():
    from repro.apps import message_size_distribution, nas_profile
    p = nas_profile("LU", 16)
    dist = message_size_distribution(p, 16)
    assert dist["large"] == 0.0
    assert p.neighbor_count >= 20


def test_lu_degrades_with_delay():
    from repro.apps import run_nas
    from repro.fabric import build_cluster_of_clusters
    runtimes = []
    for delay in (0.0, 10000.0):
        sim = Simulator()
        f = build_cluster_of_clusters(sim, 8, 8, wan_delay_us=delay)
        runtimes.append(run_nas(sim, f, "LU", scale=0.02).runtime_us)
    assert runtimes[1] > 1.5 * runtimes[0]


# ---------------------------------------------------------------------------
# experiment plumbing
# ---------------------------------------------------------------------------

def test_experiment_registry_ids_unique_and_callable():
    from repro.core import EXPERIMENTS
    assert len(EXPERIMENTS) >= 25
    for exp_id, fn in EXPERIMENTS.items():
        assert fn.exp_id == exp_id
        assert fn.title


def test_experiment_column_accessor_unknown():
    from repro.core import run_experiment
    res = run_experiment("table1")
    with pytest.raises(ValueError):
        res.column("nope")


def test_cli_main_module_entry():
    import repro.cli
    parser = repro.cli.build_parser()
    args = parser.parse_args(["perftest", "lat"])
    assert args.test == "lat"


def test_package_version_is_repro_version():
    """The installed distribution reports the version the cache keys,
    plan digests and wire handshake use."""
    import pathlib
    import warnings

    from setuptools.config.pyprojecttoml import read_configuration

    import repro
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        project = read_configuration(str(pyproject), expand=True)["project"]
    assert project["version"] == repro.__version__
