"""Cache-key invalidation, corruption and concurrency tolerance for the
on-disk cache (CellCache, and ResultCache, its whole-experiment view).

The key is (experiment id, cell index, quick/full, package version,
source digest); each invalidation test flips exactly one
ingredient and asserts the cached entry is no longer found.  Corruption
tests truncate/garble the entry on disk and expect a silent miss plus
recompute, never an exception.  Concurrency tests hammer one key from
many threads and crash a writer mid-write: atomic rename means readers
only ever see complete entries.
"""

import json
import os
import threading

import pytest

import repro
from repro.core.registry import ExperimentResult
from repro.exp import CellCache, ResultCache, run_experiments, source_digest
from repro.exp import cache as cache_mod
from repro.exp.cache import cell_key
from repro.faults.context import activated
from repro.flow.context import activated as flow_activated


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def warm(cache):
    """A cache holding a fresh table1 result."""
    result = run_experiments(["table1"], quick=True, jobs=1,
                             cache=cache)[0]
    assert cache.misses == 1 and cache.hits == 0
    return result


def test_hit_after_save(cache, warm):
    assert cache.load("table1", True).to_json() == warm.to_json()
    assert cache.hits == 1


def test_source_edit_invalidates(cache, warm, monkeypatch):
    monkeypatch.setattr(cache_mod, "source_digest",
                        lambda exp_id: "0" * 64)
    assert cache.load("table1", True) is None


def test_version_bump_invalidates(cache, warm, monkeypatch):
    monkeypatch.setattr(repro, "__version__", "999.0.0")
    assert cache.load("table1", True) is None


def test_quick_full_are_separate_keys(cache, warm):
    assert cache.load("table1", False) is None
    assert cell_key("table1", True, None) != cell_key("table1", False, None)


def test_corrupted_entry_is_discarded(cache, warm):
    path = cache.path("table1", True)
    path.write_text("{definitely not json")
    assert cache.load("table1", True) is None
    assert not path.exists(), "corrupted entry should be deleted"
    # and the engine just recomputes
    again = run_experiments(["table1"], quick=True, jobs=1, cache=cache)[0]
    assert again.to_json() == warm.to_json()


def test_truncated_entry_is_discarded(cache, warm):
    path = cache.path("table1", True)
    path.write_text(path.read_text()[:20])
    assert cache.load("table1", True) is None


def test_empty_entry_is_discarded(cache, warm):
    path = cache.path("table1", True)
    path.write_text("")
    assert cache.load("table1", True) is None
    assert not path.exists()


def test_wrong_experiment_in_entry_is_discarded(cache, warm):
    key = cell_key("table1", True, None)
    impostor = ExperimentResult("fig03", "t", ["c"], [(1,)], "")
    cache.cells.save(key, impostor.to_dict())
    # the entry is well formed: only the exp_id guard can reject it
    assert cache.cells.load(key)["exp_id"] == "fig03"
    assert cache.load("table1", True) is None
    assert not cache.path("table1", True).exists()


def test_missing_dir_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert cache.load("table1", True) is None
    assert cache.misses == 1


def test_clear_removes_entries(cache, warm):
    assert cache.clear() == 1
    assert cache.load("table1", True) is None


def test_digest_covers_cell_plan_functions():
    """Cell-decomposed sweeps digest their plan functions too, so the
    digest of a plain experiment and a sweep differ even though both
    digest *something*."""
    d_plain = source_digest("table1")
    d_sweep = source_digest("fig04a")
    assert d_plain != d_sweep
    assert len(d_plain) == len(d_sweep) == 64
    int(d_sweep, 16)  # hex


def test_key_payload_is_stable(cache):
    """Same ingredients, same key — the key is a pure function."""
    assert cell_key("table1", True, None) == cell_key("table1", True, None)
    assert json.loads(ExperimentResult("x", "t", ["c"], [(1,)]).to_json())


def test_active_fault_spec_changes_key(cache):
    """An active --faults spec is part of the key; clearing it restores
    the exact clean key, so historical entries survive fault runs."""
    clean = cell_key("table1", True, None)
    with activated("loss=0.1,seed=1"):
        faulted = cell_key("table1", True, None)
        assert faulted != clean
        with activated("loss=0.2,seed=1"):
            assert cell_key("table1", True, None) != faulted
    assert cell_key("table1", True, None) == clean


def test_clean_entry_not_served_under_fault_spec(cache, warm):
    with activated("loss=0.1,seed=1"):
        assert cache.load("table1", True) is None
    assert cache.load("table1", True) is not None


def test_flow_mode_changes_key_only_when_accelerating(cache):
    """``--flow auto``/``on`` are part of the key; ``off`` and unset
    share the exact historical packet-mode key, so flow runs never
    collide with (or shadow) packet-mode entries."""
    clean = cell_key("table1", True, None)
    with flow_activated("auto"):
        auto = cell_key("table1", True, None)
        assert auto != clean
    with flow_activated("on"):
        on = cell_key("table1", True, None)
        assert on != clean and on != auto
    with flow_activated("off"):
        assert cell_key("table1", True, None) == clean
    assert cell_key("table1", True, None) == clean


def test_packet_entry_not_served_under_flow_mode(cache, warm):
    with flow_activated("auto"):
        assert cache.load("table1", True) is None
    assert cache.load("table1", True) is not None


# -- concurrent writers and torn files (satellite of ISSUE 7) ----------------

def test_concurrent_result_writers_never_tear(cache, warm):
    """Many threads saving the same key concurrently: every load in
    between and after sees either nothing or one *complete* entry."""
    bad = []
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            cache.save("table1", True, warm)

    def reader():
        while not stop.is_set():
            got = cache.load("table1", True)
            if got is not None and got.to_json() != warm.to_json():
                bad.append(got)

    threads = ([threading.Thread(target=writer) for _ in range(4)]
               + [threading.Thread(target=reader) for _ in range(2)])
    for t in threads:
        t.start()
    threading.Event().wait(0.5)
    stop.set()
    for t in threads:
        t.join(timeout=30)
    assert not bad, "a reader observed a torn/partial entry"
    assert cache.load("table1", True).to_json() == warm.to_json()
    # no leaked temp files: every writer renamed or died atomically
    entries = list(cache.cells.root.iterdir())
    assert cache.path("table1", True) in entries
    assert [p for p in entries if ".tmp." in p.name] == []


def test_crash_mid_write_leaves_cache_recoverable(cache, warm,
                                                 monkeypatch):
    """A writer dying between temp-write and rename leaves only a temp
    file: loads still hit the old complete entry, and a later save
    completes normally."""
    original_replace = os.replace
    crashed = {}

    def dying_replace(src, dst):
        if not crashed:
            crashed["tmp"] = str(src)
            raise OSError("simulated crash before rename")
        return original_replace(src, dst)

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(OSError, match="simulated crash"):
        cache.save("table1", True, warm)
    # the half-written temp file never shadows the real entry
    assert cache.load("table1", True).to_json() == warm.to_json()
    again = cache.save("table1", True, warm)
    assert cache.load("table1", True).to_json() == warm.to_json()
    assert again.exists()


# -- CellCache: the store behind ResultCache and the run journal -----------

@pytest.fixture
def cells(tmp_path):
    return CellCache(tmp_path / "cache")


def test_cell_roundtrip_and_counters(cells):
    key = cell_key("fig04a", True, 1)
    assert cells.load(key) is None and cells.misses == 1
    cells.save(key, [1, 2.5, "x"])
    assert cells.load(key) == [1, 2.5, "x"]
    assert (cells.hits, cells.misses) == (1, 1)


def test_cell_key_ingredients(cells):
    """id, index, quick and fault/flow context all key the entry."""
    base = cell_key("fig04a", True, 0)
    assert cell_key("fig04a", True, 1) != base
    assert cell_key("fig04a", False, 0) != base
    assert cell_key("fig05a", True, 0) != base
    assert cell_key("fig04a", True, None) != base
    with activated("loss=0.1,seed=1"):
        assert cell_key("fig04a", True, 0) != base
    with flow_activated("auto"):
        assert cell_key("fig04a", True, 0) != base
    assert cell_key("fig04a", True, 0) == base


@pytest.mark.parametrize("evil", [
    "", "short", "x" * 64, "../../../../etc/passwd",
    "a" * 63 + "/", "A" * 64,                   # uppercase: not canonical
    "0" * 64 + "\n",
])
def test_cell_wire_keys_are_validated(cells, evil):
    """Keys are read back from journal records; anything but a bare
    SHA-256 hex digest is rejected (load: silent miss, save:
    ValueError) — never a path."""
    with pytest.raises(ValueError):
        cells.path_of(evil)
    assert cells.load(evil) is None
    with pytest.raises(ValueError):
        cells.save(evil, [1])


def test_cell_torn_file_recovers(cells):
    key = cell_key("fig04a", True, 2)
    cells.save(key, [3, 4])
    path = cells.path_of(key)
    path.write_text('{"key": "' + key + '", "payl')     # torn mid-write
    assert cells.load(key) is None
    assert not path.exists(), "torn entry should be deleted"
    cells.save(key, [3, 4])
    assert cells.load(key) == [3, 4]


def test_cell_concurrent_writers_never_tear(cells):
    key = cell_key("fig04a", True, 0)
    payload = [1, 2, 3, "row"]
    bad = []
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            cells.save(key, payload)

    def reader():
        while not stop.is_set():
            got = cells.load(key)
            if got is not None and got != payload:
                bad.append(got)

    threads = ([threading.Thread(target=writer) for _ in range(4)]
               + [threading.Thread(target=reader) for _ in range(2)])
    for t in threads:
        t.start()
    threading.Event().wait(0.5)
    stop.set()
    for t in threads:
        t.join(timeout=30)
    assert not bad, "a reader observed a torn/partial cell entry"
    assert cells.load(key) == payload
    leftovers = [p for p in cells.root.iterdir() if ".tmp." in p.name]
    assert leftovers == []


def test_cell_clear(cells):
    for index in range(3):
        cells.save(cell_key("fig04a", True, index), [index])
    assert cells.clear() == 3
    assert cells.load(cell_key("fig04a", True, 0)) is None


def test_plan_less_experiment_is_one_cell(tmp_path):
    """An experiment's cached result is its cell entry at index None:
    the same file, the same payload, and its bytes are ``to_json()``."""
    result = run_experiments(["table1"], quick=True, jobs=1,
                             cache=ResultCache(tmp_path))[0]
    cells = CellCache(tmp_path)
    key = cell_key("table1", True, None)
    assert cells.load(key) == result.to_dict()
    assert cells.path_of(key).read_text() == result.to_json()
