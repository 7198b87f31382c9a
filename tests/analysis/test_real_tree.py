"""The real source tree passes its own static analysis.

This is the acceptance gate CI enforces (`repro check --strict`): every
guarded class obeys its declared lock, no wall-clock duration math, the
report schema matches its dataclasses, the lock graph is acyclic, and
the committed baseline is empty (no grandfathered findings).
"""

from __future__ import annotations

from analysis_helpers import REPO_ROOT, SRC, check_paths

from repro.analysis.engine import load_baseline


def test_repo_tree_is_clean(tmp_path, monkeypatch):
    # Pin the sanitizer report to a path that does not exist, so a stale
    # local .repro_sanitize_report.json (e.g. from a sanitize run that
    # exercised the fixture packages) cannot skew the SAN001 diff here.
    monkeypatch.setenv("REPRO_SANITIZE_REPORT", str(tmp_path / "absent.json"))
    report = check_paths(SRC)
    assert report.findings == [], "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in report.findings)
    assert report.files_checked > 100  # the whole package was actually walked


def test_committed_baseline_is_empty_and_fresh():
    baseline = load_baseline(str(REPO_ROOT / "tools" / "check_baseline.json"))
    assert baseline == set()


def test_lock_graph_sees_the_real_cross_class_edges():
    """Guard against the checker passing vacuously: the scheduler really
    does take the queue/pool locks inside its own, and that must show up
    as graph edges (just not as a cycle)."""
    from repro.analysis import locks
    from repro.analysis.engine import ParsedFile, Project, discover_files

    files = [ParsedFile(str(REPO_ROOT), p)
             for p in discover_files([str(SRC)])]
    project = Project(str(REPO_ROOT), files)
    classes = {info.name
               for pf in files for info in locks._collect_guarded_classes(pf)}
    assert {"Scheduler", "JobQueue", "Router", "NodeRegistry", "EvalCache",
            "NodeAgent", "SpanStore", "TraceLogger", "ProcessJobPool",
            "Counter", "Gauge", "Histogram", "MetricFamily",
            "MetricsRegistry"} <= classes
    edges = locks.collect_lock_edges(project)
    edge_set = {(e.src, e.dst) for e in edges}
    assert ("Scheduler._lock", "JobQueue._cond") in edge_set
    assert ("Scheduler._lock", "ProcessJobPool._lock") in edge_set
    assert locks._find_cycles(edges) == []
