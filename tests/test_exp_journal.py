"""Durability wall for :mod:`repro.exp.journal` and ``--resume``.

Three layers:

* journal primitives — checksummed append-only records, torn-tail
  truncation, corruption fail-closed, run-id hygiene, plan digests;
* in-process resume — ``run_experiments(resume=...)`` adopts the
  journaled plan, skips journaled tasks, re-executes the rest, and
  produces results byte-identical to an uninterrupted run (counted via
  ``repro.obs``);
* the crash wall — a run SIGKILLed *at each named crash point*
  (via ``REPRO_EXP_CRASH_POINT``) is resumed through the CLI and must
  reproduce the uninterrupted store byte for byte.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.exp import run_experiments, write_jsonl
from repro.exp.journal import (CRASH_POINTS, JournalError, ResumeError,
                               RunJournal, maybe_crash, new_run_id,
                               plan_digest, reset_crash_counts)
from repro.obs import MetricsRegistry, use_registry

IDS = ["table1", "fig04a"]          # 1 single-shot + 3 cells = 4 tasks
N_TASKS = 4
REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# journal primitives
# ---------------------------------------------------------------------------

def test_append_resume_roundtrip(tmp_path):
    journal = RunJournal.create(tmp_path, "run-a")
    journal.append({"type": "plan", "ids": ["x"]})
    journal.append({"type": "result", "task": "x", "key": "k" * 64})
    journal.close()
    replayed = RunJournal.resume(tmp_path, "run-a")
    assert [r["type"] for r in replayed.records()] == ["plan", "result"]
    assert replayed.truncated is False
    assert replayed.completed() == {"x": "k" * 64}
    replayed.close()


def test_create_refuses_existing_run(tmp_path):
    RunJournal.create(tmp_path, "dup").close()
    with pytest.raises(JournalError, match="already exists"):
        RunJournal.create(tmp_path, "dup")


@pytest.mark.parametrize("bad", ["", "../escape", "a/b", "x" * 65, "-x"])
def test_malformed_run_ids_rejected(tmp_path, bad):
    # The constructor is the choke point: create() and resume() both
    # pass through it (an empty id just means "generate one").
    with pytest.raises(JournalError, match="malformed run id"):
        RunJournal(tmp_path, bad)


def test_new_run_ids_are_wellformed_and_distinct():
    ids = {new_run_id() for _ in range(3)}
    for run_id in ids:
        RunJournal(os.devnull + "-unused", run_id)  # validates the id


def test_torn_tail_is_truncated_and_appends_continue(tmp_path):
    journal = RunJournal.create(tmp_path, "torn")
    journal.append({"type": "plan", "ids": []})
    journal.append({"type": "result", "task": "x", "key": "k" * 64})
    journal.close()
    # A crash mid-write leaves half a line; fsync ordering means only
    # the tail can be torn.
    with open(journal.path, "ab") as fh:
        fh.write(b'{"seq":2,"sha":"dead')
    replayed = RunJournal.resume(tmp_path, "torn")
    assert replayed.truncated is True
    assert len(replayed.records()) == 2
    replayed.append({"type": "end", "failures": 0})
    replayed.close()
    clean = RunJournal.resume(tmp_path, "torn")
    assert clean.truncated is False
    assert [r["type"] for r in clean.records()] == ["plan", "result",
                                                    "end"]
    clean.close()


def test_corrupted_record_drops_every_later_line(tmp_path):
    journal = RunJournal.create(tmp_path, "bitrot")
    for i in range(3):
        journal.append({"type": "result", "task": f"t{i}",
                        "key": str(i) * 64})
    journal.close()
    lines = journal.path.read_bytes().splitlines(keepends=True)
    # Flip one byte inside the middle record's payload.
    lines[1] = lines[1].replace(b'"task":"t1"', b'"task":"tX"')
    journal.path.write_bytes(b"".join(lines))
    replayed = RunJournal.resume(tmp_path, "bitrot")
    # The checksum catches the flip; line 2 is dropped too, because
    # everything after a bad record is suspect.
    assert replayed.truncated is True
    assert [r["task"] for r in replayed.records()] == ["t0"]
    replayed.close()
    clean = RunJournal.resume(tmp_path, "bitrot")
    assert clean.truncated is False   # the bad tail is physically gone
    clean.close()


def test_resume_unknown_run_lists_known_ids(tmp_path):
    RunJournal.create(tmp_path, "known-run").close()
    with pytest.raises(ResumeError, match="known-run"):
        RunJournal.resume(tmp_path, "ghost")


def test_plan_digest_tracks_every_plan_ingredient():
    base = plan_digest(IDS, True, None, None)
    assert base == plan_digest(IDS, True, None, None)
    assert base != plan_digest(IDS[:1], True, None, None)
    assert base != plan_digest(IDS, False, None, None)
    assert base != plan_digest(IDS, True, "loss=0.01,seed=1", None)
    assert base != plan_digest(IDS, True, None, "on")


# ---------------------------------------------------------------------------
# in-process resume through run_experiments
# ---------------------------------------------------------------------------

def _result_bytes(results, tmp_path, name):
    path = tmp_path / name
    write_jsonl(path, results)
    return path.read_bytes()


def test_journaled_run_records_plan_leases_results_end(tmp_path):
    run_experiments(IDS, quick=True, jobs=2,
                    journal_dir=str(tmp_path), journal_id="full")
    journal = RunJournal.resume(tmp_path, "full")
    kinds = [r["type"] for r in journal.records()]
    assert kinds[0] == "plan"
    assert kinds[-1] == "end"
    assert kinds.count("result") == N_TASKS
    assert kinds.count("lease") >= N_TASKS
    plan = journal.plan_record()
    assert plan["ids"] == IDS and plan["quick"] is True
    assert plan["tasks"] == ["table1", "fig04a#0", "fig04a#1", "fig04a#2"]
    assert plan["digest"] == plan_digest(IDS, True, None, None)
    journal.close()


def test_journaled_single_worker_run_stays_in_process(tmp_path,
                                                     monkeypatch):
    """A journaled ``jobs=1`` run goes through the local backend in
    this process: it builds no pool, its store is the unjournaled one,
    and its journal records the same plan, leases, results and end."""
    from repro.exp.backends import local

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker run built a process pool")

    monkeypatch.setattr(local, "ProcessPoolExecutor", no_pool)
    plain = run_experiments(IDS, quick=True, jobs=1)
    journaled = run_experiments(IDS, quick=True, jobs=1,
                                journal_dir=str(tmp_path),
                                journal_id="inproc")
    assert (_result_bytes(journaled, tmp_path, "j.jsonl")
            == _result_bytes(plain, tmp_path, "p.jsonl"))
    journal = RunJournal.resume(tmp_path, "inproc")
    records = journal.records()
    kinds = [r["type"] for r in records]
    assert kinds[0] == "plan" and kinds[-1] == "end"
    assert kinds.count("lease") == N_TASKS
    assert kinds.count("result") == N_TASKS
    assert records[-1]["failures"] == 0
    assert journal.plan_record()["tasks"] == ["table1", "fig04a#0",
                                              "fig04a#1", "fig04a#2"]
    journal.close()


def test_resume_of_complete_run_skips_everything(tmp_path):
    baseline = run_experiments(IDS, quick=True, jobs=2,
                               journal_dir=str(tmp_path),
                               journal_id="done")
    reg = MetricsRegistry()
    with use_registry(reg):
        resumed = run_experiments(resume="done",
                                  journal_dir=str(tmp_path))
    assert (_result_bytes(resumed, tmp_path, "resumed.jsonl")
            == _result_bytes(baseline, tmp_path, "baseline.jsonl"))
    assert reg.get("exp", "resume_tasks", kind="skipped").value == N_TASKS
    assert reg.get("exp", "resume_tasks",
                   kind="reexecuted").value == 0


def test_partial_journal_reexecutes_only_missing_tasks(tmp_path):
    baseline = run_experiments(IDS, quick=True, jobs=2,
                               journal_dir=str(tmp_path),
                               journal_id="full2")
    full = RunJournal.resume(tmp_path, "full2")
    records = full.records()
    full.close()
    # Rebuild a journal that died after its first result: plan record
    # plus exactly one journaled payload.
    partial = RunJournal.create(tmp_path, "partial")
    partial.append(next(r for r in records if r["type"] == "plan"))
    first = next(r for r in records if r["type"] == "result")
    payload = RunJournal(tmp_path, "full2").cells.load(first["key"])
    assert payload is not None
    partial.cells.save(first["key"], payload)
    partial.append(first)
    partial.close()

    reg = MetricsRegistry()
    with use_registry(reg):
        resumed = run_experiments(resume="partial",
                                  journal_dir=str(tmp_path))
    assert (_result_bytes(resumed, tmp_path, "r.jsonl")
            == _result_bytes(baseline, tmp_path, "b.jsonl"))
    assert reg.get("exp", "resume_tasks", kind="skipped").value == 1
    assert reg.get("exp", "resume_tasks",
                   kind="reexecuted").value == N_TASKS - 1
    # The resumed journal now holds every result: a second resume is
    # idempotent and runs nothing.
    reg2 = MetricsRegistry()
    with use_registry(reg2):
        again = run_experiments(resume="partial",
                                journal_dir=str(tmp_path))
    assert (_result_bytes(again, tmp_path, "a.jsonl")
            == _result_bytes(baseline, tmp_path, "b.jsonl"))
    assert reg2.get("exp", "resume_tasks",
                    kind="skipped").value == N_TASKS


def test_resume_cannot_change_the_experiment_set(tmp_path):
    run_experiments(IDS, quick=True, jobs=2, journal_dir=str(tmp_path),
                    journal_id="pinned")
    with pytest.raises(ResumeError, match="cannot change"):
        run_experiments(["fig03"], resume="pinned",
                        journal_dir=str(tmp_path))


def test_resume_fails_closed_on_plan_digest_mismatch(tmp_path):
    stale = RunJournal.create(tmp_path, "stale")
    stale.append({"type": "plan", "ids": IDS, "quick": True,
                  "faults": None, "flow": None, "digest": "0" * 64,
                  "backend": "local", "tasks": ["table1"]})
    stale.close()
    with pytest.raises(ResumeError, match="digest mismatch"):
        run_experiments(resume="stale", journal_dir=str(tmp_path))


def test_resume_without_plan_record_fails_closed(tmp_path):
    RunJournal.create(tmp_path, "empty").close()
    with pytest.raises(ResumeError, match="no plan record"):
        run_experiments(resume="empty", journal_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# the crash wall: SIGKILL at named points, resume via the CLI
# ---------------------------------------------------------------------------

def test_maybe_crash_ignores_other_points_and_counts_hits(monkeypatch):
    reset_crash_counts()
    monkeypatch.setenv("REPRO_EXP_CRASH_POINT", "journal.plan:3")
    maybe_crash("journal.result")       # different point: untouched
    maybe_crash("journal.plan")         # hit 1 of 3: survives
    maybe_crash("journal.plan")         # hit 2 of 3: survives
    reset_crash_counts()


def test_maybe_crash_is_inert_without_the_env(monkeypatch):
    monkeypatch.delenv("REPRO_EXP_CRASH_POINT", raising=False)
    for point in CRASH_POINTS:
        maybe_crash(point)


def _cli(args, env_extra=None, timeout=110):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=timeout)


@pytest.fixture(scope="module")
def baseline_bytes(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline") / "out.jsonl"
    assert main(["experiments", *IDS, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("backend,crash_point", [
    ("local", "journal.plan"),
    ("local", "journal.result:2"),
    ("local", "scheduler.finalize"),
    ("local", "backend.lease:2"),
])
def test_sigkilled_coordinator_resumes_byte_identical(
        tmp_path, baseline_bytes, backend, crash_point):
    run_id = f"crash-{backend}-{crash_point.replace('.', '-').replace(':', '-')}"
    out = tmp_path / "out.jsonl"
    args = ["experiments", *IDS, "--jobs", "2",
            "--journal-dir", str(tmp_path), "--journal-id", run_id,
            "--out", str(out)]
    crashed = _cli(args, {"REPRO_EXP_CRASH_POINT": crash_point})
    assert crashed.returncode == -signal.SIGKILL, crashed.stderr
    assert not out.exists(), "the store must not exist half-written"

    resumed = _cli(["experiments", "--resume", run_id,
                    "--journal-dir", str(tmp_path), "--out", str(out)])
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_bytes() == baseline_bytes

    journal = RunJournal.resume(tmp_path, run_id)
    records = journal.records()
    resumes = [r for r in records if r["type"] == "resume"]
    assert len(resumes) == 1
    assert resumes[0]["skipped"] + resumes[0]["reexecuted"] == N_TASKS
    # Only unjournaled tasks re-executed: result records are unique.
    result_tasks = [r["task"] for r in records if r["type"] == "result"]
    assert sorted(result_tasks) == sorted(set(result_tasks))
    assert len(result_tasks) == N_TASKS
    assert records[-1]["type"] == "end"
    journal.close()


def test_cli_resume_of_unknown_run_exits_2(tmp_path):
    rc = main(["experiments", "--resume", "ghost",
               "--journal-dir", str(tmp_path)])
    assert rc == 2
