"""Every output check passes a sound result and rejects a corrupted row."""

import pytest
from checks import CHECKS, SDR_4X_MBPS, differing, problems

from repro.core.registry import ExperimentResult

DELAYS = ["0us", "10us", "100us", "1000us", "10000us"]


def result(exp_id, columns, rows):
    return ExperimentResult(exp_id, "t", list(columns),
                            [tuple(r) for r in rows])


# exp_id -> (columns, sound rows, corrupted rows); each corrupted row
# breaks exactly one property
CASES = {
    "table1": (["distance", "one-way delay"],
               [("1 km", "5 us"), ("2000 km", "10000 us")],
               [("20 km", "99 us")]),
    "fig04a": (["size"] + DELAYS,
               [(2048, 959.7, 959.7, 959.7000000000001, 959.7, 959.7)],
               [(2048, 959.7, 959.7, 950.0, 959.7, 959.7),
                (2048, 1000.5, 1000.5, 1000.5, 1000.5, 1000.5)]),
    "fig04b": (["size"] + DELAYS,
               [(2048, 1919.4, 1919.4, 1919.4, 1919.4, 1919.4)],
               [(2048, 2000.1, 1919.4, 1919.4, 1919.4, 1919.4)]),
    "fig05a": (["size"] + DELAYS,
               [(2048, 985.5, 814.6, 170.8, 19.2, 1.9)],
               [(2048, 985.5, 814.6, 870.8, 19.2, 1.9),
                (4194304, 1001.0, 985.5, 985.5, 985.5, 985.5)]),
    "fig05b": (["size"] + DELAYS,
               [(65536, 1970.2, 1970.2, 1970.3, 1196.2, 149.9)],
               [(65536, 2100.0, 1970.2, 1970.3, 1196.2, 149.9)]),
    "fig06a": (["window", "0us", "100us", "1000us", "10000us"],
               [("64K", 415.3, 271.3, 31.9, 3.2),
                ("default", 415.2, 405.1, 324.4, 45.3)],
               [("64K", 415.3, 271.3, 40.0, 3.2),
                ("default", 415.2, 405.1, 324.4, 60.0),
                ("256K", 1200.0, 406.3, 122.8, 12.7)]),
    "fig07a": (["mtu", "0us", "100us", "1000us", "10000us"],
               [("63K MTU", 864.9, 838.9, 407.4, 43.8)],
               [("63K MTU", 1864.9, 838.9, 407.4, 43.8)]),
    "fig07b": (["streams", "0us", "1000us", "10000us"],
               [(8, 866.1, 418.2, 43.9)],
               [(8, 866.1, 1418.2, 43.9)]),
    "fig08a": (["size"] + DELAYS,
               [(65536, 972.5, 953.6, 791.6, 242.9, 26.0)],
               [(65536, 972.5, 953.6, 991.6, 242.9, 26.0),
                (4194304, 1087.3, 986.9, 984.2, 957.3, 724.9)]),
    "fig08b": (["size"] + DELAYS,
               [(4194304, 1970.1, 1968.7, 1956.2, 1839.6, 1114.8)],
               [(4194304, 1970.1, 1968.7, 1956.2, 1839.6, 2114.8)]),
    "fig09a": (["size", "thresh-8K", "thresh-64K", "improvement_%"],
               [(8192, 3.3, 6.5, 99.6)],
               [(8192, 3.3, 1006.5, 30000.0)]),
    "fig09b": (["size", "thresh-8K", "thresh-64K", "improvement_%"],
               [(8192, 4.2, 11.6, 177.2)],
               [(8192, 4.2, 2011.6, 47800.0)]),
    "fig11": (["delay", "size", "original_us", "hierarchical_us",
               "improvement_%"],
              [("10us", 4096, 81.9, 81.9, 0.0),
               ("1000us", 32768, 66644.2, 4159.3, 93.8)],
              [("1000us", 4096, 900.0, 800.0, 11.1),
               ("10us", 32768, 199.3, 1304.2, -554.4)]),
    "fig12": (["benchmark", "0us", "100us", "1000us", "10000us"],
              [("IS", 1.0, 1.0003, 1.006, 1.07),
               ("FT", 1.0, 1.0, 1.001, 1.012),
               ("CG", 1.0, 1.011, 1.18, 2.96)],
              [("FT", 1.0, 0.9998, 1.001, 1.012),
               ("IS", 1.0, 1.0003, 1.006, 3.5)]),
    "fig13c": (["streams", "RDMA", "IPoIB-RC", "IPoIB-UD"],
               [(1, 25.9, 103.0, 89.9), (8, 31.9, 363.5, 267.0)],
               [(4, 331.9, 322.0, 253.9)]),
    "opt_adaptive": (["delay", "chosen_threshold", "default MB/s",
                      "adaptive MB/s", "gain_%"],
                     [("1000us", 1036453, 62.9, 121.5, 93.2)],
                     [("1000us", 1036453, 62.9, 1121.5, 1683.0)]),
    "abl_rc_window": (["window", "100us", "1000us", "10000us"],
                      [(64, 985.6, 985.6, 985.6)],
                      [(64, 985.6, 1985.6, 985.6)]),
    "abl_credits": (["credit pool", "256K bw @1ms (MB/s)"],
                    [("64K", 260.9)],
                    [("64K", 1260.9)]),
    "ext_hier_allreduce": (["delay", "flat_us", "hierarchical_us",
                            "improvement_%"],
                           [("10us", 718.9, 379.8, 47.2),
                            ("1000us", 4663.3, 4324.5, 7.3)],
                           [("1000us", 4663.3, 824.5, 82.3),
                            ("10us", 380.0, 718.9, -89.2)]),
    "ext_readahead": (["readahead", "100us (MB/s)", "1000us (MB/s)"],
                      [(1, 351.7, 103.0), (8, 833.4, 363.5)],
                      [(1, 351.7, 403.0), (8, 1033.4, 363.5)]),
}


def test_every_checked_experiment_has_a_case():
    assert set(CASES) == set(CHECKS)


@pytest.mark.parametrize("exp_id", sorted(CASES))
def test_sound_result_passes(exp_id):
    columns, sound, _ = CASES[exp_id]
    assert problems(result(exp_id, columns, sound)) == []


@pytest.mark.parametrize("exp_id,bad", [
    (exp_id, bad) for exp_id, (_, _, bads) in sorted(CASES.items())
    for bad in bads])
def test_corrupted_row_is_rejected(exp_id, bad):
    columns, sound, _ = CASES[exp_id]
    rows = [r for r in sound if r[0] != bad[0]] + [bad]
    found = problems(result(exp_id, columns, rows))
    assert found, f"{exp_id}: {bad} was not rejected"


def test_sdr_rate_is_1000_mb_per_s():
    assert SDR_4X_MBPS == pytest.approx(1000.0)


def test_unchecked_experiment_has_no_problems():
    assert problems(result("ext_dlm", ["delay", "x"], [("0us", 1.0)])) == []


def test_malformed_result_is_a_problem_not_a_crash():
    assert problems(result("fig11", ["delay"], [("10us",)]))


def test_differing_names_changed_and_missing_results():
    a = result("fig05a", ["size", "0us"], [(2048, 985.5)])
    b = result("fig07b", ["streams", "0us"], [(1, 864.9)])
    changed = result("fig05a", ["size", "0us"], [(2048, 985.50000001)])
    assert differing([a, b], [a, b]) == []
    assert differing([a, b], [changed, b]) == ["fig05a"]
    assert differing([a, b], [a]) == ["fig07b"]
