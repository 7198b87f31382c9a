"""Engine mechanics: suppressions, baseline, cache, CLI exit codes."""

from __future__ import annotations

import json

from analysis_helpers import FIXTURES, REPO_ROOT, check_paths, findings_for

from repro.analysis.engine import (
    Finding,
    load_baseline,
    main,
    registered_checkers,
    rule_catalogue,
    run_checks,
    write_baseline,
)

LOCKVIOL = FIXTURES / "lockviol.py"


def test_builtin_suite_registers_all_checkers():
    names = set(registered_checkers())
    assert {"lock-discipline", "lock-order", "monotonic-clock",
            "wire-protocol", "banned-patterns"} <= names
    rules = rule_catalogue()
    for rule in ("LOCK001", "LOCK002", "MONO001", "MONO002", "WIRE003",
                 "BAN001", "BAN002", "BAN003"):
        assert rule in rules
    # Route and payload drift cannot happen: serve/protocol.py declares
    # the protocol once, so those rules are gone from the catalogue.
    assert not {"WIRE001", "WIRE002"} & set(rules)
    assert main(["--explain", "WIRE001"]) == 1
    assert main(["--explain", "WIRE003"]) == 0


def test_finding_key_is_line_independent():
    a = Finding("LOCK001", "x.py", 10, 0, "msg")
    b = Finding("LOCK001", "x.py", 99, 4, "msg")
    assert a.key == b.key


def test_baseline_roundtrip_and_stale_detection(tmp_path):
    report = check_paths(LOCKVIOL)
    assert report.new  # without a baseline, findings are new

    path = tmp_path / "baseline.json"
    write_baseline(str(path), report.findings)
    baseline = load_baseline(str(path))
    rebaselined = check_paths(LOCKVIOL, baseline=baseline)
    assert rebaselined.new == []
    assert len(rebaselined.baselined) == len(report.findings)
    assert rebaselined.stale_baseline == []

    stale = baseline | {"LOCK001:gone.py:never fires"}
    with_stale = check_paths(LOCKVIOL, baseline=stale)
    assert with_stale.stale_baseline == ["LOCK001:gone.py:never fires"]


def test_cache_reuses_file_scope_findings(tmp_path):
    cache = tmp_path / "cache.json"
    first = run_checks([str(LOCKVIOL)], root=str(REPO_ROOT),
                       use_cache=True, cache_path=str(cache))
    assert first.cache_hits == 0
    assert cache.exists()
    second = run_checks([str(LOCKVIOL)], root=str(REPO_ROOT),
                        use_cache=True, cache_path=str(cache))
    assert second.cache_hits == 1
    assert [f.to_dict() for f in second.findings] == \
           [f.to_dict() for f in first.findings]


def test_cache_invalidated_by_content_change(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import time\n\ndef f(t0):\n    return time.time() - t0\n")
    cache = tmp_path / "cache.json"
    first = run_checks([str(src)], root=str(tmp_path),
                       use_cache=True, cache_path=str(cache))
    assert len(findings_for("MONO001", first)) == 1
    src.write_text("import time\n\ndef f(t0):\n    return time.monotonic() - t0\n")
    second = run_checks([str(src)], root=str(tmp_path),
                        use_cache=True, cache_path=str(cache))
    assert second.cache_hits == 0
    assert second.findings == []


def test_syntax_error_reported_not_crashed(tmp_path):
    src = tmp_path / "broken.py"
    src.write_text("def f(:\n")
    report = run_checks([str(src)], root=str(tmp_path), use_cache=False)
    assert [f.rule for f in report.findings] == ["PARSE001"]


def test_cli_exit_codes_and_json_output(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    argv = [str(LOCKVIOL), "--root", str(REPO_ROOT), "--no-cache",
            "--baseline", str(baseline)]

    assert main(argv + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_rule"]["LOCK001"] == 2

    assert main(argv + ["--write-baseline"]) == 0
    capsys.readouterr()
    assert main(argv + ["--strict"]) == 0

    # Strict mode fails on stale entries once the violations are gone.
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    stale_argv = [str(clean), "--root", str(tmp_path), "--no-cache",
                  "--baseline", str(baseline)]
    capsys.readouterr()
    assert main(stale_argv) == 0          # non-strict tolerates stale
    assert main(stale_argv + ["--strict"]) == 1


def test_human_output_has_source_excerpt(capsys):
    argv = [str(LOCKVIOL), "--root", str(REPO_ROOT), "--no-cache",
            "--baseline", "/nonexistent.json"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "tests/analysis/fixtures/lockviol.py:" in out
    assert "LOCK001" in out
    assert "| " in out and "^" in out  # diff-style gutter + caret
