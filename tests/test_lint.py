"""Test wall for :mod:`repro.lint`.

Four layers, mirroring the engine's own structure:

* fixture pairs — every rule catches its bad fixture and stays silent
  on the good one, and each bad fixture triggers *exactly* its rule;
* suppression parsing — line/file scope, standalone-comment targeting,
  mandatory-justification rejection, unknown-rule reporting;
* engine plumbing — JSON report schema, selection expansion, exit
  codes, incremental cache reuse and invalidation;
* the PAR family against intentionally broken fixture trees, so the
  parity rules are proved to *fail* when parity rots.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (RULES, LintCache, LintEngine, Violation,
                        discover_files, load_builtin_rules,
                        parse_suppressions)
from repro.lint.registry import SelectionError, expand_selection

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent

load_builtin_rules()

#: rule id -> fixture stem; PAR/WIRE rules use whole fixture trees
#: instead.
FILE_RULES = ["DET101", "DET102", "DET103", "DET104", "DET105",
              "SIM201", "SIM202", "SIM203", "SIM204",
              "CON401", "CON402", "CON403", "CON404"]
PAR_RULES = ["PAR303", "PAR304", "PAR305", "PAR306", "PAR307"]
WIRE_RULES = ["WIRE501", "WIRE502", "WIRE503", "WIRE504"]


def lint_paths(*paths, select=None, ignore=(), cache=None, root=None):
    engine = LintEngine(select=select, ignore=ignore, cache=cache)
    return engine.run(discover_files([Path(p) for p in paths]),
                      root=root or Path.cwd())


# ---------------------------------------------------------------------------
# fixture pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule", FILE_RULES)
def test_bad_fixture_triggers_exactly_its_rule(rule):
    report = lint_paths(FIXTURES / f"{rule.lower()}_bad.py")
    assert report.violations, f"{rule} bad fixture produced no violations"
    assert {v.rule for v in report.violations} == {rule}


@pytest.mark.parametrize("rule", FILE_RULES)
def test_good_fixture_is_clean(rule):
    report = lint_paths(FIXTURES / f"{rule.lower()}_good.py")
    assert report.violations == [], (
        f"{rule} good fixture flagged: {report.violations}")


@pytest.mark.parametrize("tree,rule", [("par303_bad", "PAR303"),
                                       ("par304_bad", "PAR304"),
                                       ("par305_bad", "PAR305"),
                                       ("par306_bad", "PAR306"),
                                       ("par307_bad", "PAR307")])
def test_par_bad_tree_triggers_exactly_its_rule(tree, rule):
    report = lint_paths(FIXTURES / tree, root=FIXTURES / tree)
    assert report.violations
    assert {v.rule for v in report.violations} == {rule}


def test_par_good_tree_is_clean():
    report = lint_paths(FIXTURES / "par_good", root=FIXTURES / "par_good")
    assert report.violations == []


def test_par303_names_the_missing_field():
    report = lint_paths(FIXTURES / "par303_bad",
                        root=FIXTURES / "par303_bad", select=["PAR303"])
    assert len(report.violations) == 1
    assert "wire_rate" in report.violations[0].message
    assert "HardwareProfile" in report.violations[0].message


def test_par303_silent_without_calibration_in_lint_set():
    # Linting only the flow module (calibration outside the file set)
    # must not guess at the schema.
    report = lint_paths(
        FIXTURES / "par303_bad" / "repro" / "flow" / "analytic.py",
        root=FIXTURES / "par303_bad", select=["PAR303"])
    assert report.violations == []


def test_par304_catches_missing_and_rotted_twin_pointer():
    report = lint_paths(FIXTURES / "par304_bad",
                        root=FIXTURES / "par304_bad", select=["PAR304"])
    messages = "\n".join(v.message for v in report.violations)
    assert "no PACKET_TWIN" in messages          # shadowing, undeclared
    assert "repro.gone.runner" in messages       # declared, unresolvable
    assert len(report.violations) == 2


def test_par304_skips_resolution_without_package_root(tmp_path):
    # A single-file lint of the ghost module cannot distinguish a
    # rotted pointer from an unlinted twin, so resolution is skipped.
    report = lint_paths(
        FIXTURES / "par304_bad" / "repro" / "flow" / "ghost.py",
        root=FIXTURES / "par304_bad", select=["PAR304"])
    assert report.violations == []


def test_par305_catches_missing_method_drift_and_nameless():
    report = lint_paths(FIXTURES / "par305_bad",
                        root=FIXTURES / "par305_bad", select=["PAR305"])
    messages = "\n".join(v.message for v in report.violations)
    assert "implements no 'close'" in messages     # incomplete surface
    assert "signature" in messages                 # run_tasks drift
    assert "`name` class" in messages              # registry attr missing
    assert len(report.violations) == 3


def test_par305_silent_without_base_in_lint_set():
    # Linting only the backend module (base outside the file set) must
    # not guess at the abstract surface.
    report = lint_paths(
        FIXTURES / "par305_bad" / "repro" / "exp" / "backends" / "stub.py",
        root=FIXTURES / "par305_bad", select=["PAR305"])
    assert report.violations == []


def test_par306_names_every_banned_clock():
    report = lint_paths(FIXTURES / "par306_bad",
                        root=FIXTURES / "par306_bad", select=["PAR306"])
    messages = "\n".join(v.message for v in report.violations)
    assert "`time.time()`" in messages
    assert "`time.time_ns()`" in messages
    assert "`time.perf_counter()`" in messages
    assert "`datetime.datetime.now()`" in messages
    assert len(report.violations) == 4


def test_par306_only_polices_the_exp_package(tmp_path):
    # The same wall-clock read outside repro/exp/ is DET101's business,
    # not PAR306's.
    mod = tmp_path / "repro" / "sim" / "bench.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("import time\n\ndef stamp():\n    return time.time()\n")
    report = lint_paths(mod, root=tmp_path, select=["PAR306"])
    assert report.violations == []


def test_par307_names_the_uncovered_frame_type():
    report = lint_paths(FIXTURES / "par307_bad",
                        root=FIXTURES / "par307_bad", select=["PAR307"])
    assert len(report.violations) == 1
    assert "'PING'" in report.violations[0].message
    assert "FAIL_CLOSED_FIXTURES" in report.violations[0].message


def test_par307_silent_without_protocol_in_lint_set(tmp_path):
    # A tree with no repro/exp/protocol.py has no vocabulary to check.
    mod = tmp_path / "repro" / "exp" / "other.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("X = 1\n")
    report = lint_paths(mod, root=tmp_path, select=["PAR307"])
    assert report.violations == []


def test_at_least_eight_rules_have_fixture_coverage():
    # The acceptance bar: >= 8 distinct rules demonstrably catch their
    # bad fixture.  13 file rules + 9 project rules are covered above.
    assert len(FILE_RULES) + len(PAR_RULES) + len(WIRE_RULES) >= 8


# ---------------------------------------------------------------------------
# CON rule semantics
# ---------------------------------------------------------------------------

def test_con401_names_attr_and_contexts():
    report = lint_paths(FIXTURES / "con401_bad.py", select=["CON401"])
    assert len(report.violations) == 1
    msg = report.violations[0].message
    assert "`Relay._frames`" in msg
    assert "spawned thread" in msg and "main-thread" in msg


def test_con401_silent_without_thread_entries(tmp_path):
    # The same unguarded writes with no Thread(target=...) in the
    # module are single-threaded code, not a race.
    mod = _write(tmp_path, "mod.py", (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "    def put(self, x):\n"
        "        self._items.append(x)\n"
        "    def drain(self):\n"
        "        out = list(self._items)\n"
        "        self._items = []\n"
        "        return out\n"))
    assert lint_paths(mod, select=["CON401"]).violations == []


def test_con401_different_locks_are_not_a_common_guard(tmp_path):
    mod = _write(tmp_path, "mod.py", (
        "import threading\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self._a_lock = threading.Lock()\n"
        "        self._b_lock = threading.Lock()\n"
        "        self._items = []\n"
        "        self._t = threading.Thread(target=self._pump)\n"
        "    def _pump(self):\n"
        "        with self._a_lock:\n"
        "            self._items.append(1)\n"
        "    def drain(self):\n"
        "        with self._b_lock:\n"
        "            self._items = []\n"))
    report = lint_paths(mod, select=["CON401"])
    assert len(report.violations) == 1
    assert "no single lock covers" in report.violations[0].message


def test_con402_flags_sleep_and_socket_send_under_lock():
    report = lint_paths(FIXTURES / "con402_bad.py", select=["CON402"])
    messages = "\n".join(v.message for v in report.violations)
    assert "`time.sleep()`" in messages
    assert "sendall" in messages
    assert len(report.violations) == 2


def test_con403_names_the_lock():
    report = lint_paths(FIXTURES / "con403_bad.py", select=["CON403"])
    assert len(report.violations) == 1
    assert "_registry_lock.acquire()" in report.violations[0].message


def test_con404_silent_without_a_pool(tmp_path):
    # A daemon thread mutating module state is only CON404's business
    # when the module also forks a pool.
    mod = _write(tmp_path, "mod.py", (
        "import threading\n"
        "_STATE = {}\n"
        "def _watch():\n"
        "    _STATE['x'] = 1\n"
        "def start():\n"
        "    threading.Thread(target=_watch, daemon=True).start()\n"))
    assert lint_paths(mod, select=["CON404"]).violations == []


# ---------------------------------------------------------------------------
# WIRE trees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tree,rule", [("wire501_bad", "WIRE501"),
                                       ("wire502_bad", "WIRE502"),
                                       ("wire503_bad", "WIRE503"),
                                       ("wire504_bad", "WIRE504")])
def test_wire_bad_tree_triggers_exactly_its_rule(tree, rule):
    report = lint_paths(FIXTURES / tree, root=FIXTURES / tree)
    assert report.violations
    assert {v.rule for v in report.violations} == {rule}


def test_wire_good_tree_is_clean():
    report = lint_paths(FIXTURES / "wire_good",
                        root=FIXTURES / "wire_good")
    assert report.violations == []


def test_wire501_names_the_orphan_frame_type():
    report = lint_paths(FIXTURES / "wire501_bad",
                        root=FIXTURES / "wire501_bad", select=["WIRE501"])
    messages = "\n".join(v.message for v in report.violations)
    assert "'PING'" in messages
    assert "never dispatches" in messages        # sent but unhandled
    assert "no dispatch arm in either" in messages  # vocab orphan
    assert len(report.violations) == 2


def test_wire502_names_the_function_and_types():
    report = lint_paths(FIXTURES / "wire502_bad",
                        root=FIXTURES / "wire502_bad", select=["WIRE502"])
    assert len(report.violations) == 1
    msg = report.violations[0].message
    assert "`run`" in msg and "BYE" in msg and "WELCOME" in msg


def test_wire503_catches_unvalidated_path_and_validator_clears_it():
    report = lint_paths(FIXTURES / "wire503_bad",
                        root=FIXTURES / "wire503_bad", select=["WIRE503"])
    assert len(report.violations) == 1
    assert "filesystem" in report.violations[0].message
    # The good tree differs only by routing through valid_key().
    clean = lint_paths(FIXTURES / "wire_good",
                       root=FIXTURES / "wire_good", select=["WIRE503"])
    assert clean.violations == []


def test_wire504_names_field_and_version():
    report = lint_paths(FIXTURES / "wire504_bad",
                        root=FIXTURES / "wire504_bad", select=["WIRE504"])
    assert len(report.violations) == 1
    msg = report.violations[0].message
    assert "'resume'" in msg and "protocol v2" in msg


def test_wire_rules_silent_without_both_endpoints(tmp_path):
    # WIRE501 needs protocol + worker + coordinator in the lint set;
    # a protocol-only run must not produce phantom duality findings.
    report = lint_paths(
        FIXTURES / "wire501_bad" / "repro" / "exp" / "protocol.py",
        root=FIXTURES / "wire501_bad", select=["WIRE"])
    assert report.violations == []


def test_deleting_a_coordinator_handler_breaks_the_gate(tmp_path):
    """Acceptance criterion: removing any `_handle` dispatch branch in
    backends/socket.py makes `python -m repro.lint` exit nonzero."""
    exp = tmp_path / "repro" / "exp"
    (exp / "backends").mkdir(parents=True)
    real = REPO_ROOT / "src" / "repro" / "exp"
    (exp / "protocol.py").write_text(
        (real / "protocol.py").read_text())
    (exp / "worker.py").write_text((real / "worker.py").read_text())
    # Renaming the comparison constant is equivalent to deleting the
    # HEARTBEAT dispatch branch: the arm no longer matches the frame.
    coord = (real / "backends" / "socket.py").read_text()
    assert '== "HEARTBEAT"' in coord
    (exp / "backends" / "socket.py").write_text(
        coord.replace('== "HEARTBEAT"', '== "HEARTBEAT_X"'))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
        env=_pythonpath_env())
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "WIRE501" in proc.stdout


def test_deleting_a_worker_handler_breaks_the_gate(tmp_path):
    """Acceptance criterion, worker side: removing the CACHE handler
    from worker.py trips WIRE501 on the coordinator's sends."""
    exp = tmp_path / "repro" / "exp"
    (exp / "backends").mkdir(parents=True)
    real = REPO_ROOT / "src" / "repro" / "exp"
    (exp / "protocol.py").write_text(
        (real / "protocol.py").read_text())
    (exp / "backends" / "socket.py").write_text(
        (real / "backends" / "socket.py").read_text())
    worker = (real / "worker.py").read_text()
    assert '== "CACHE"' in worker
    (exp / "worker.py").write_text(
        worker.replace('== "CACHE"', '== "CACHE_X"'))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
        env=_pythonpath_env())
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "WIRE501" in proc.stdout


def _pythonpath_env():
    import os
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


def test_trailing_suppression_silences_its_line(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "import time\n"
        "t0 = time.time()  # repro-lint: disable=DET101 -- bench timing\n"
        "t1 = time.time()\n"))
    report = lint_paths(path)
    assert [v.line for v in report.violations] == [3]


def test_standalone_suppression_applies_to_next_code_line(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "import time\n"
        "# repro-lint: disable=DET101 -- startup stamp, logged only\n"
        "t0 = time.time()\n"
        "t1 = time.time()\n"))
    report = lint_paths(path)
    assert [v.line for v in report.violations] == [4]


def test_file_scope_suppression(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "# repro-lint: disable-file=DET101 -- host-side tool, wall clock ok\n"
        "import time\n"
        "t0 = time.time()\n"
        "t1 = time.time()\n"))
    assert lint_paths(path).violations == []


def test_suppression_without_justification_is_inert_and_reported(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "import time\n"
        "t0 = time.time()  # repro-lint: disable=DET101\n"))
    report = lint_paths(path)
    assert {v.rule for v in report.violations} == {"DET101", "LNT001"}


def test_suppression_of_unknown_rule_reports_lnt002(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "import time\n"
        "t0 = time.time()  # repro-lint: disable=DET999,DET101 -- legacy\n"))
    report = lint_paths(path)
    # DET101 is known and justified, so it is suppressed; DET999 is not.
    assert {v.rule for v in report.violations} == {"LNT002"}


def test_suppression_comment_inside_string_is_ignored():
    supp, meta = parse_suppressions("m.py", (
        's = "# repro-lint: disable=DET101 -- not a comment"\n'))
    assert not supp.file_rules and not supp.line_rules and not meta


def test_multi_rule_suppression(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "import time, uuid\n"
        "x = (time.time(), uuid.uuid4())"
        "  # repro-lint: disable=DET101,DET102 -- fixture exercising both\n"))
    assert lint_paths(path).violations == []


def test_file_and_line_pragmas_coexist(tmp_path):
    # A file-wide disable and a same-line disable for a *different*
    # rule must compose: neither widens or cancels the other.
    path = _write(tmp_path, "mod.py", (
        "# repro-lint: disable-file=DET101 -- bench module, wall clock ok\n"
        "import time, uuid\n"
        "t = time.time()\n"
        "u = uuid.uuid4()  # repro-lint: disable=DET102 -- probe id\n"
        "v = uuid.uuid4()\n"))
    report = lint_paths(path)
    assert [(v.rule, v.line) for v in report.violations] == [("DET102", 5)]


def test_unknown_rule_in_file_pragma_reports_lnt002(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "# repro-lint: disable-file=NOPE999 -- typo'd family\n"
        "import time\n"
        "t = time.time()\n"))
    report = lint_paths(path)
    assert {v.rule for v in report.violations} == {"LNT002", "DET101"}


def test_project_rule_suppressed_from_its_anchor_file(tmp_path):
    # Project-scope findings honour suppressions in the file the
    # violation anchors to, same as file-scope rules.
    tree = tmp_path / "wire502"
    shutil.copytree(FIXTURES / "wire502_bad", tree)
    worker = tree / "repro" / "exp" / "worker.py"
    text = worker.read_text()
    assert "def run(" in text
    worker.write_text(text.replace(
        "def run(",
        "# repro-lint: disable=WIRE502 -- fall-through is this "
        "fixture's point\ndef run(", 1))
    report = lint_paths(tree, root=tree, select=["WIRE502"])
    assert report.violations == []


def test_syntax_error_reported_as_lnt003(tmp_path):
    path = _write(tmp_path, "mod.py", "def broken(:\n")
    report = lint_paths(path)
    assert [v.rule for v in report.violations] == ["LNT003"]
    assert report.exit_code == 1


# ---------------------------------------------------------------------------
# selection, report schema, CLI
# ---------------------------------------------------------------------------

def test_selection_expands_families_and_rejects_unknown():
    det = expand_selection(["DET"])
    assert det == [r for r in RULES if r.startswith("DET")]
    assert expand_selection(["SIM203"]) == ["SIM203"]
    with pytest.raises(SelectionError):
        expand_selection(["NOPE"])


def test_select_and_ignore_narrow_the_run(tmp_path):
    path = _write(tmp_path, "mod.py", (
        "import time, uuid\n"
        "x = time.time()\n"
        "y = uuid.uuid4()\n"))
    assert {v.rule for v in lint_paths(path, select=["DET101"]).violations} \
        == {"DET101"}
    assert {v.rule for v in lint_paths(path, ignore=["DET101"]).violations} \
        == {"DET102"}


def test_json_report_schema(tmp_path):
    bad = FIXTURES / "det101_bad.py"
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(bad), "--format", "json",
         "--out", str(out)],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    assert json.loads(proc.stdout) == doc
    assert doc["tool"] == "repro.lint"
    assert set(doc) == {"tool", "version", "files_checked", "violations",
                        "counts", "cache"}
    assert doc["files_checked"] == 1
    assert doc["counts"] == {"DET101": 2}
    for v in doc["violations"]:
        assert set(v) == {"rule", "name", "path", "line", "col", "message"}
        assert v["rule"] == "DET101"
    assert set(doc["cache"]) == {"incremental", "hits", "misses"}


def test_cli_exit_codes(tmp_path):
    clean = _write(tmp_path, "clean.py", "x = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(clean)],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(clean),
         "--select", "BOGUS"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tmp_path / "missing")],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 2


def test_cli_list_rules(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0
    for rid in (FILE_RULES + PAR_RULES + WIRE_RULES
                + ["LNT001", "LNT002", "LNT003"]):
        assert rid in proc.stdout
    for retired in ("PAR301", "PAR302"):
        assert retired not in proc.stdout


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------

def test_incremental_cache_hits_and_invalidation(tmp_path):
    src = _write(tmp_path, "mod.py", "import time\nx = time.time()\n")
    cache_dir = tmp_path / "cache"

    first = lint_paths(src, cache=LintCache(cache_dir))
    assert (first.cache_hits, first.cache_misses) == (0, 1)
    second = lint_paths(src, cache=LintCache(cache_dir))
    assert (second.cache_hits, second.cache_misses) == (1, 0)
    assert second.violations == first.violations

    # Editing the file invalidates its entry.
    src.write_text("import time\ny = 1\nx = time.time()\n")
    third = lint_paths(src, cache=LintCache(cache_dir))
    assert (third.cache_hits, third.cache_misses) == (0, 1)
    assert [v.line for v in third.violations] == [3]

    # Changing the enabled rule set changes the key too.
    fourth = lint_paths(src, cache=LintCache(cache_dir),
                        select=["DET101"])
    assert fourth.cache_misses == 1


def test_corrupted_cache_entry_is_a_miss(tmp_path):
    src = _write(tmp_path, "mod.py", "import time\nx = time.time()\n")
    cache_dir = tmp_path / "cache"
    lint_paths(src, cache=LintCache(cache_dir))
    entries = list((cache_dir / "lint").glob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{ truncated")
    report = lint_paths(src, cache=LintCache(cache_dir))
    assert (report.cache_hits, report.cache_misses) == (0, 1)
    assert [v.rule for v in report.violations] == ["DET101"]


def test_violation_round_trip():
    v = Violation("DET101", "wall-clock", "a/b.py", 3, 7, "msg")
    assert Violation.from_dict(v.to_dict()) == v


# ---------------------------------------------------------------------------
# the gate itself
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------

#: Structural subset of the SARIF 2.1.0 schema covering everything the
#: renderer emits.  The full schema is ~200 KB; this pins the invariants
#: code-scanning upload actually relies on.
SARIF_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "columnKind": {"enum": ["utf16CodeUnits",
                                            "unicodeCodePoints"]},
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {"driver": {
                            "type": "object",
                            "required": ["name", "rules"],
                            "properties": {"rules": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["id", "name",
                                                 "shortDescription"],
                                    "properties": {"shortDescription": {
                                        "type": "object",
                                        "required": ["text"],
                                    }},
                                },
                            }},
                        }},
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "level", "message",
                                         "locations"],
                            "properties": {
                                "level": {"enum": ["none", "note",
                                                   "warning", "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {"physicalLocation": {
                                            "type": "object",
                                            "required": ["artifactLocation",
                                                         "region"],
                                            "properties": {"region": {
                                                "type": "object",
                                                "required": ["startLine"],
                                                "properties": {
                                                    "startLine": {
                                                        "type": "integer",
                                                        "minimum": 1},
                                                    "startColumn": {
                                                        "type": "integer",
                                                        "minimum": 1},
                                                },
                                            }},
                                        }},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _lint_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True, text=True, cwd=cwd)


def test_sarif_output_validates_against_schema(tmp_path):
    import jsonschema
    proc = _lint_cli(str(FIXTURES / "det101_bad.py"), "--format", "sarif")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SARIF_SCHEMA)
    run = doc["runs"][0]
    # ruleIndex must point at the matching driver rule for every result.
    rules = run["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == list(RULES)
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
    # Columns are 1-based in SARIF; the engine reports 0-based cols.
    json_proc = _lint_cli(str(FIXTURES / "det101_bad.py"),
                          "--format", "json")
    cols = [v["col"] for v in json.loads(json_proc.stdout)["violations"]]
    sarif_cols = [r["locations"][0]["physicalLocation"]["region"]
                  ["startColumn"] for r in run["results"]]
    assert sarif_cols == [c + 1 for c in cols]


def test_sarif_clean_run_still_lists_all_rules(tmp_path):
    clean = _write(tmp_path, "clean.py", "x = 1\n")
    proc = _lint_cli(str(clean), "--format", "sarif")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    run = doc["runs"][0]
    assert run["results"] == []
    ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert ids == list(RULES)
    assert "PAR301" not in ids and "PAR302" not in ids


# ---------------------------------------------------------------------------
# --jobs parallelism
# ---------------------------------------------------------------------------

def test_jobs_output_is_byte_identical_to_serial():
    """Acceptance criterion: ``--jobs N`` may not reorder or alter the
    report relative to the serial run."""
    argv = (str(FIXTURES / "con401_bad.py"),
            str(FIXTURES / "con402_bad.py"),
            str(FIXTURES / "det101_bad.py"),
            str(FIXTURES / "wire502_bad"),
            "--format", "json")
    serial = _lint_cli(*argv, "--jobs", "1")
    pooled = _lint_cli(*argv, "--jobs", "2")
    assert serial.returncode == 1, serial.stderr
    assert pooled.returncode == 1, pooled.stderr
    assert serial.stdout == pooled.stdout


def test_jobs_rejects_nonpositive():
    proc = _lint_cli(str(FIXTURES / "det101_bad.py"), "--jobs", "0")
    assert proc.returncode == 2


def test_repo_tree_lints_clean():
    """The merged tree must satisfy its own gate (acceptance criterion)."""
    report = lint_paths(REPO_ROOT / "src", REPO_ROOT / "tools",
                        REPO_ROOT / "benchmarks", root=REPO_ROOT)
    assert report.violations == [], "\n".join(
        f"{v.path}:{v.line}: {v.rule} {v.message}"
        for v in report.violations)
    assert report.files_checked > 100
