"""Report-schema drift checker.

Every ``/result`` body carries a report dict built by ``api/report.py``.
``WIRE003`` fails when a report dataclass's ``to_dict`` keys differ from
its field names plus the ``kind``/``streamed`` envelope
(``from_stream`` travels as ``streamed``).

The HTTP routes and job payloads need no checker: they are declared
once, in ``serve/protocol.py``, and every server, client and agent
builds from that table.

The check silently skips when the project under analysis does not
contain ``api/report.py``.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, Project, checker

RULES = {
    "WIRE003": "report to_dict keys drift from dataclass fields",
}

REPORT = "api/report.py"

#: Wrapper keys ``to_dict`` may add beyond the dataclass fields.
ENVELOPE_KEYS = {"kind", "streamed"}
#: Field -> wire-key renames the report schema deliberately keeps.
FIELD_ALIASES = {"from_stream": "streamed"}


def _dict_keys(node: ast.Dict) -> set[str] | None:
    """Constant string keys of a dict literal (None if any key is dynamic)."""
    keys: set[str] = set()
    for key in node.keys:
        if key is None:  # **spread — can't reason statically
            return None
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


def _check_reports(project: Project) -> list[Finding]:
    pf = project.find(REPORT)
    if pf is None:
        return []
    findings: list[Finding] = []
    for cls in ast.walk(pf.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        is_dataclass = any(
            (isinstance(d, ast.Name) and d.id == "dataclass")
            or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                and d.func.id == "dataclass")
            or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
            or (isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                and d.func.attr == "dataclass")
            for d in cls.decorator_list)
        if not is_dataclass:
            continue
        fields = []
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.dump(stmt.annotation)):
                fields.append(stmt.target.id)
        to_dict = next((m for m in cls.body
                        if isinstance(m, ast.FunctionDef) and m.name == "to_dict"),
                       None)
        if to_dict is None or not fields:
            continue
        returned = next((s.value for s in ast.walk(to_dict)
                         if isinstance(s, ast.Return)
                         and isinstance(s.value, ast.Dict)), None)
        if returned is None:
            continue
        keys = _dict_keys(returned)
        if keys is None:
            continue
        for field in fields:
            wire_key = FIELD_ALIASES.get(field, field)
            if wire_key not in keys:
                findings.append(pf.finding(
                    "WIRE003", returned,
                    f"{cls.name}.{field} never reaches the wire: "
                    f"to_dict() omits key {wire_key!r}"))
        allowed = set(fields) | ENVELOPE_KEYS | {
            FIELD_ALIASES.get(f, f) for f in fields}
        for key in sorted(keys - allowed):
            findings.append(pf.finding(
                "WIRE003", returned,
                f"{cls.name}.to_dict() emits unknown key {key!r} "
                f"(no matching dataclass field)"))
    return findings


EXAMPLES = {
    "WIRE003": ('def to_dict(self):\n    return {"ratio": self.ratio}  # dataclass also has "seconds"',
                'def to_dict(self):\n    return {"ratio": self.ratio, "seconds": self.seconds}'),
}


@checker("wire-protocol", scope="project", rules=RULES, examples=EXAMPLES)
def check_wire(project: Project) -> list[Finding]:
    return _check_reports(project)
