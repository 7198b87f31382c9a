"""``repro check`` — dependency-free, ``ast``-based static analysis.

The service tier's correctness rests on hand-maintained conventions:
lock discipline in the threaded modules, the monotonic clock convention
(``*_mono``), and report dataclasses that match their wire dicts.  This
engine makes those conventions machine-checked at lint time.

Architecture
------------
* **Checkers** register themselves via :func:`checker` with a *scope*:

  - ``"file"`` checkers see one :class:`ParsedFile` at a time and are
    cached per file, keyed by content hash;
  - ``"project"`` checkers see the whole :class:`Project` (cross-file
    facts: lock-acquisition graph, report-schema agreement) and always
    run.

* **Suppressions**: a ``# repro: ignore[RULE]`` comment on the flagged
  line silences that rule there (``# repro: ignore`` silences all).
* **Baseline**: a committed JSON file of accepted findings keyed by
  ``rule:path:message`` (line numbers excluded, so pure code motion does
  not churn it).  ``--strict`` fails on any *new* finding and on stale
  baseline entries that no longer fire.

Importing :mod:`repro.analysis.checkers` registers the built-in suite;
see ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and how to add a
checker.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "Finding",
    "ParsedFile",
    "Project",
    "CheckReport",
    "checker",
    "registered_checkers",
    "rule_catalogue",
    "run_checks",
    "main",
]

#: Bump to invalidate every per-file cache entry on engine changes.
ENGINE_VERSION = 1

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")

DEFAULT_BASELINE = os.path.join("tools", "check_baseline.json")
DEFAULT_CACHE = ".repro_check_cache.json"


# ---------------------------------------------------------------------------
# findings


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violated at a location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str

    @property
    def key(self) -> str:
        """Baseline identity — deliberately excludes line/col so moving
        code around does not invalidate a committed baseline."""
        return f"{self.rule}:{self.path}:{self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            message=str(payload["message"]),
        )


# ---------------------------------------------------------------------------
# parsed files / project


class ParsedFile:
    """One source file: text, AST, content hash, and suppression map."""

    def __init__(self, root: str, abspath: str) -> None:
        self.abspath = abspath
        rel = os.path.relpath(abspath, root)
        self.path = rel.replace(os.sep, "/")
        with open(abspath, "r", encoding="utf-8") as fh:
            self.source = fh.read()
        self.lines = self.source.splitlines()
        self.sha = hashlib.sha256(self.source.encode("utf-8")).hexdigest()
        self.syntax_error: SyntaxError | None = None
        try:
            self.tree: ast.Module = ast.parse(self.source, filename=self.path)
        except SyntaxError as exc:
            self.syntax_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])
        #: line -> None (ignore all rules) or a set of rule ids.
        self.suppressions: dict[int, set[str] | None] = {}
        for lineno, text in enumerate(self.lines, start=1):
            if "#" not in text:
                continue
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                self.suppressions[lineno] = None
            else:
                ids = {r.strip() for r in rules.split(",") if r.strip()}
                self.suppressions[lineno] = ids

    def suppressed(self, finding: Finding) -> bool:
        if finding.line not in self.suppressions:
            return False
        rules = self.suppressions[finding.line]
        return rules is None or finding.rule in rules

    def finding(self, rule: str, node: ast.AST | None, message: str,
                line: int | None = None, col: int | None = None) -> Finding:
        """Build a finding anchored at ``node`` (or explicit line/col)."""
        if node is not None:
            line = getattr(node, "lineno", line or 1)
            col = getattr(node, "col_offset", col or 0)
        return Finding(rule=rule, path=self.path, line=line or 1,
                       col=col or 0, message=message)


class Project:
    """All files under check, with suffix lookup for role-based checkers."""

    def __init__(self, root: str, files: list[ParsedFile]) -> None:
        self.root = root
        self.files = files
        self._by_path = {pf.path: pf for pf in files}

    def find(self, suffix: str) -> ParsedFile | None:
        """The unique file whose repo-relative path ends with ``suffix``."""
        matches = [pf for pf in self.files if pf.path.endswith(suffix)]
        return matches[0] if len(matches) == 1 else None

    def get(self, path: str) -> ParsedFile | None:
        return self._by_path.get(path)


# ---------------------------------------------------------------------------
# checker registry


@dataclass(frozen=True)
class Checker:
    name: str
    scope: str  # "file" | "project"
    rules: dict  # rule id -> one-line description
    version: int
    fn: Callable
    examples: dict  # rule id -> (violating snippet, clean snippet)


_CHECKERS: dict[str, Checker] = {}


def checker(name: str, *, scope: str, rules: dict, version: int = 1,
            examples: dict | None = None):
    """Register a checker.

    ``scope="file"``: ``fn(pf: ParsedFile) -> list[Finding]`` — results
    are cached per file by content hash.
    ``scope="project"``: ``fn(project: Project) -> list[Finding]`` —
    always runs (cross-file facts cannot be cached per file).
    ``examples`` maps each rule id to a ``(violating, clean)`` snippet
    pair shown by ``repro check --explain RULE``; examples are docs, not
    behaviour, so they do not participate in the cache fingerprint.
    """
    if scope not in ("file", "project"):
        raise ValueError(f"scope must be 'file' or 'project', got {scope!r}")

    def register(fn):
        _CHECKERS[name] = Checker(name=name, scope=scope, rules=dict(rules),
                                  version=version, fn=fn,
                                  examples=dict(examples or {}))
        return fn

    return register


def registered_checkers() -> dict[str, Checker]:
    _load_builtin_checkers()
    return dict(_CHECKERS)


def rule_catalogue() -> dict[str, str]:
    """rule id -> description, across every registered checker."""
    out: dict[str, str] = {}
    for chk in registered_checkers().values():
        out.update(chk.rules)
    return dict(sorted(out.items()))


def rule_examples() -> dict[str, tuple[str, str]]:
    """rule id -> (violating, clean) snippet pair, where provided."""
    out: dict[str, tuple[str, str]] = {}
    for chk in registered_checkers().values():
        for rule, pair in chk.examples.items():
            out[rule] = (str(pair[0]), str(pair[1]))
    return dict(sorted(out.items()))


def _load_builtin_checkers() -> None:
    # Import for side effect: each module registers via @checker.
    from repro.analysis import (  # noqa: F401
        banned,
        clocks,
        exceptions,
        exports,
        locks,
        resources,
        wire,
    )
    from repro.analysis.sanitizer import check  # noqa: F401


# ---------------------------------------------------------------------------
# cache


def _checker_fingerprint(checkers: Iterable[Checker]) -> str:
    parts = sorted(f"{c.name}={c.version}" for c in checkers)
    blob = f"engine={ENGINE_VERSION};" + ";".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _load_cache(path: str, fingerprint: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
        return {}
    files = payload.get("files")
    return files if isinstance(files, dict) else {}


def _write_cache(path: str, fingerprint: str, files: dict) -> None:
    payload = {"fingerprint": fingerprint, "files": files}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
    except OSError:  # read-only checkout: caching is best-effort  # repro: ignore[EXC002]
        pass


# ---------------------------------------------------------------------------
# baseline


def load_baseline(path: str) -> set[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError:
        return set()
    entries = payload.get("findings", []) if isinstance(payload, dict) else []
    return {str(e) for e in entries}


def write_baseline(path: str, findings: list[Finding]) -> None:
    payload = {
        "comment": "Accepted repro-check findings; keys are rule:path:message. "
                   "Regenerate with `repro check --write-baseline`.",
        "findings": sorted({f.key for f in findings}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# runner


@dataclass
class CheckReport:
    """Outcome of one ``run_checks`` invocation."""

    findings: list[Finding]
    new: list[Finding]
    baselined: list[Finding]
    stale_baseline: list[str]
    files_checked: int
    cache_hits: int

    @property
    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "new": [f.to_dict() for f in self.new],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": sorted(self.stale_baseline),
            "files_checked": self.files_checked,
            "cache_hits": self.cache_hits,
            "counts_by_rule": self.counts_by_rule,
        }


def default_root() -> str:
    """The repo root: ``src/repro/analysis/engine.py`` -> three levels up."""
    here = os.path.abspath(__file__)
    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(here))))


def discover_files(paths: list[str]) -> list[str]:
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(os.path.abspath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.abspath(os.path.join(dirpath, name)))
    return sorted(set(out))


def run_checks(
    paths: list[str] | None = None,
    *,
    root: str | None = None,
    baseline: set[str] | None = None,
    use_cache: bool = True,
    cache_path: str | None = None,
) -> CheckReport:
    """Run every registered checker over ``paths`` (default: src/repro)."""
    root = os.path.abspath(root or default_root())
    if paths is None:
        paths = [os.path.join(root, "src", "repro")]
    checkers = registered_checkers()
    file_checkers = [c for c in checkers.values() if c.scope == "file"]
    project_checkers = [c for c in checkers.values() if c.scope == "project"]

    files = [ParsedFile(root, p) for p in discover_files(paths)]
    project = Project(root, files)

    fingerprint = _checker_fingerprint(checkers.values())
    cache_path = cache_path or os.path.join(root, DEFAULT_CACHE)
    cached = _load_cache(cache_path, fingerprint) if use_cache else {}
    next_cache: dict[str, dict] = {}

    findings: list[Finding] = []
    cache_hits = 0
    for pf in files:
        if pf.syntax_error is not None:
            exc = pf.syntax_error
            findings.append(Finding(
                rule="PARSE001", path=pf.path, line=exc.lineno or 1,
                col=(exc.offset or 1) - 1, message=f"syntax error: {exc.msg}"))
            continue
        entry = cached.get(pf.path)
        if entry and entry.get("sha") == pf.sha:
            cache_hits += 1
            file_findings = [Finding.from_dict(d) for d in entry["findings"]]
        else:
            file_findings = []
            for chk in file_checkers:
                file_findings.extend(chk.fn(pf))
        next_cache[pf.path] = {
            "sha": pf.sha,
            "findings": [f.to_dict() for f in file_findings],
        }
        findings.extend(file_findings)

    for chk in project_checkers:
        findings.extend(chk.fn(project))

    # Suppressions apply after collection so cached entries stay raw.
    kept: list[Finding] = []
    for f in findings:
        pf = project.get(f.path)
        if pf is not None and pf.suppressed(f):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if use_cache:
        _write_cache(cache_path, fingerprint, next_cache)

    baseline = baseline or set()
    new = [f for f in kept if f.key not in baseline]
    baselined = [f for f in kept if f.key in baseline]
    seen_keys = {f.key for f in kept}
    stale = [k for k in sorted(baseline) if k not in seen_keys]
    return CheckReport(findings=kept, new=new, baselined=baselined,
                       stale_baseline=stale, files_checked=len(files),
                       cache_hits=cache_hits)


# ---------------------------------------------------------------------------
# output


def format_human(report: CheckReport, project_root: str,
                 *, strict: bool) -> str:
    out: list[str] = []
    for f in report.new:
        out.append(f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}")
        src = _source_line(project_root, f)
        if src is not None:
            out.append(f"  {f.line:>5} | {src.rstrip()}")
            out.append(f"  {'':>5} | {' ' * f.col}^")
    if report.baselined:
        out.append(f"note: {len(report.baselined)} baselined finding(s) suppressed"
                   " (see tools/check_baseline.json)")
    for key in report.stale_baseline:
        prefix = "error" if strict else "note"
        out.append(f"{prefix}: stale baseline entry no longer fires: {key}")
    status = "clean" if not report.new else f"{len(report.new)} new finding(s)"
    out.append(
        f"repro check: {status} — {report.files_checked} file(s), "
        f"{len(report.findings)} total finding(s), "
        f"{report.cache_hits} cache hit(s)")
    return "\n".join(out)


def _source_line(root: str, f: Finding) -> str | None:
    try:
        with open(os.path.join(root, f.path), "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return lines[f.line - 1]
    except (OSError, IndexError):
        return None


# ---------------------------------------------------------------------------
# CLI


def build_check_parser(parser: argparse.ArgumentParser | None = None,
                       ) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro check",
            description="Static analysis: lock discipline, clock convention, "
                        "report-schema drift, banned patterns.")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to check (default: src/repro)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--strict", action="store_true",
                        help="also fail on stale baseline entries")
    parser.add_argument("--format", choices=("human", "json"), default="human",
                        help="output format (default: human)")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE})")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept current findings into the baseline and exit 0")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline in place: keep only entries "
                             "that still fire (sorted, stable); new findings "
                             "are NOT accepted and still fail the run")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the per-file result cache")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print one rule's catalogue entry plus a minimal "
                             "violating and clean example, then exit")
    return parser


def explain_rule(rule: str) -> tuple[str, int]:
    """The ``--explain RULE`` text and exit code."""
    catalogue = rule_catalogue()
    if rule not in catalogue:
        known = ", ".join(catalogue)
        return f"unknown rule {rule!r}; known rules: {known}", 1
    out = [f"{rule}  {catalogue[rule]}"]
    pair = rule_examples().get(rule)
    if pair is not None:
        bad, good = pair
        out.append("")
        out.append("violates:")
        out.extend(f"    {line}" for line in bad.strip("\n").splitlines())
        out.append("clean:")
        out.extend(f"    {line}" for line in good.strip("\n").splitlines())
    return "\n".join(out), 0


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule, description in rule_catalogue().items():
            print(f"{rule}  {description}")
        return 0
    if args.explain is not None:
        text, code = explain_rule(args.explain)
        print(text)
        return code
    root = os.path.abspath(args.root or default_root())
    baseline_path = args.baseline or os.path.join(root, DEFAULT_BASELINE)
    paths = [os.path.abspath(p) for p in args.paths] or None
    baseline = load_baseline(baseline_path)
    report = run_checks(paths, root=root, baseline=baseline,
                        use_cache=not args.no_cache)
    if args.write_baseline:
        write_baseline(baseline_path, report.findings)
        print(f"wrote {len(report.findings)} finding(s) to {baseline_path}")
        return 0
    if args.update_baseline:
        stale = set(report.stale_baseline)
        kept = [f for f in report.findings if f.key in baseline]
        write_baseline(baseline_path, kept)
        print(f"baseline rewritten: {len({f.key for f in kept})} entr(ies) "
              f"kept, {len(stale)} stale pruned")
        # fall through: new findings still fail the run below
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_human(report, root, strict=args.strict))
    if report.new:
        return 1
    if args.strict and report.stale_baseline and not args.update_baseline:
        return 1  # --update-baseline just pruned the stale entries
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_check_parser().parse_args(argv if argv is not None else sys.argv[1:])
    return run_from_args(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
