"""Structural lint: telemetry travels as one handle, not four sinks.

Outside ``repro.obs`` no function parameter or dataclass field may be
named after a single sink (``tracer``, ``metrics``, ``auditor``,
``recorder``) — components take ``telemetry: Telemetry`` instead.  The
two ``arm_telemetry`` functions keep their pinned per-sink signature.
The process-wide ``global_metrics()`` registry is reserved for the
memo tables' ``cache.lookups`` in ``baselines/strategies.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SINKS = {"tracer", "metrics", "auditor", "recorder"}
#: (file, owner, name) entries that hold data, not a sink.
NOT_SINKS = {
    # The chaos oracle's run observation stores a metrics *snapshot*.
    ("chaos/oracles.py", "RunObservation", "metrics"),
}
GLOBAL_METRICS_HOME = "baselines/strategies.py"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("obs/"):
            continue
        yield rel, ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", getattr(target, "attr", ""))
        if name == "dataclass":
            return True
    return False


def _sink_names():
    """(file, owner, name) of every sink-named parameter or field."""
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "arm_telemetry":
                    continue
                args = node.args
                for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                    if arg.arg in SINKS:
                        yield rel, node.name, arg.arg
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)
                            and stmt.target.id in SINKS):
                        yield rel, node.name, stmt.target.id


def test_no_per_sink_parameters_or_fields():
    found = [hit for hit in _sink_names() if hit not in NOT_SINKS]
    assert found == [], (
        "pass `telemetry: Telemetry = NULL_TELEMETRY` instead of single "
        f"sinks: {found}"
    )


def test_arm_telemetry_keeps_its_sink_signature():
    """The exemption above covers exactly the two pinned functions."""
    names = []
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "arm_telemetry"):
                names.append(rel)
                params = [a.arg for a in node.args.args if a.arg != "self"]
                assert params == ["tracer", "metrics", "auditor", "recorder"]
    assert names == ["api.py", "api.py"]


def test_global_metrics_only_for_memo_tables():
    calls = []
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "global_metrics":
                    calls.append(rel)
    assert calls == [GLOBAL_METRICS_HOME], calls


@pytest.mark.parametrize("hit", sorted(NOT_SINKS))
def test_exemptions_are_live(hit):
    """A stale exemption would silently widen the lint."""
    assert hit in set(_sink_names())
