"""Error/edge paths of ``repro.cli experiments`` and the new engine flags.

Covers: unknown experiment ids, id filtering, --jobs validation,
--metrics together with --jobs > 1, --out JSON-lines output, --cache
round trips and the --backend dryrun plan — all through the real
``main`` entry point.
"""

import json

import pytest

from repro.cli import main
from repro.exp import read_jsonl
from repro.exp.store import main as store_main


def test_unknown_id_exits_nonzero_with_message(capsys):
    assert main(["experiments", "no_such_figure"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment id 'no_such_figure'" in err
    assert "table1" in err, "message should list the known ids"


def test_unknown_id_among_valid_ones_runs_nothing(capsys):
    assert main(["experiments", "table1", "bogus"]) == 2
    captured = capsys.readouterr()
    assert "== table1" not in captured.out


@pytest.mark.parametrize("jobs", ["0", "-4", "zero"])
def test_bad_jobs_rejected(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "table1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_negative_retries_rejected_before_a_journal_opens(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "table1", "--retries", "-1",
              "--journal-dir", str(tmp_path / "journal")])
    assert exc.value.code == 2
    assert "--retries" in capsys.readouterr().err
    assert not (tmp_path / "journal").exists()


def test_metrics_summary_with_parallel_jobs(capsys):
    assert main(["experiments", "ext_dlm", "abl_credits",
                 "--jobs", "2", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "== ext_dlm" in out and "== abl_credits" in out
    start = out.index("metric")
    assert "counter" in out[start:], "summary table should follow results"


def test_out_writes_valid_json_lines(tmp_path, capsys):
    out_path = tmp_path / "results.jsonl"
    assert main(["experiments", "table1", "fig03",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)
    results = read_jsonl(out_path)
    assert [r.exp_id for r in results] == ["table1", "fig03"]
    assert results[0].rows[0] == ("1 km", "5 us")


def test_cache_flag_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["experiments", "table1", "--cache", "--cache-dir", cache_dir]
    assert main(args) == 0
    first = capsys.readouterr()
    assert "1 miss(es)" in first.err
    assert main(args) == 0
    second = capsys.readouterr()
    assert "1 hit(s), 0 miss(es)" in second.err
    assert first.out == second.out, "cached output must be identical"


def test_no_cache_is_the_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["experiments", "table1"]) == 0
    capsys.readouterr()
    assert not (tmp_path / ".repro-cache").exists()


def test_store_renderer_cli(tmp_path, capsys):
    out_path = tmp_path / "results.jsonl"
    assert main(["experiments", "table1", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert store_main([str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "== table1" in text and "2000 km" in text
    assert store_main([str(out_path), "--markdown"]) == 0
    md = capsys.readouterr().out
    assert "| distance | one-way delay |" in md


@pytest.mark.parametrize("ids,jobs", [(["table1", "fig03"], "1"),
                                      (["table1", "ext_dlm"], "2")])
def test_cli_runs_exactly_the_named_ids(ids, jobs, capsys):
    assert main(["experiments", *ids, "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    headers = [line.split()[1].rstrip(":") for line in out.splitlines()
               if line.startswith("== ")]
    assert headers == ids


def test_dryrun_cli_prints_the_plan_and_runs_nothing(monkeypatch, capsys):
    from repro.core import registry

    def boom(*args, **kwargs):
        raise AssertionError("--backend dryrun executed an experiment")

    monkeypatch.setattr(registry, "run_experiment", boom)
    monkeypatch.setattr(registry, "run_cell", boom)
    assert main(["experiments", "table1", "fig04a",
                 "--backend", "dryrun"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["n_tasks"] == 4
    assert plan["tasks"] == ["table1", "fig04a#0", "fig04a#1", "fig04a#2"]
