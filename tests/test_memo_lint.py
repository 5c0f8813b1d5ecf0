"""Structural lint: process-wide memoisation lives in one store.

Partitions, relations, plans and priced cells are memoised in
``repro.cache.memo``, whose keys cover the content of every input.  A
module-level ``*_CACHE`` dict elsewhere in ``src/repro`` would bring
back a second, name-keyed memo that can return stale results.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
HOME = "cache.py"
#: (file, name) of the module-level caches that may stay, with why.
ALLOWED = {
    # Keyed on (dataset name, seed), the full recipe of a deterministic
    # builder, so an entry cannot go stale.
    ("graph/datasets.py", "_GRAPH_CACHE"),
}
DICT_FACTORIES = {"dict", "OrderedDict", "defaultdict"}


def _is_dict(value) -> bool:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        return getattr(func, "id", getattr(func, "attr", None)) in DICT_FACTORIES
    return False


def _module_caches():
    """(file, name) of every module-level ``*_CACHE`` dict."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == HOME:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id.endswith("_CACHE") and _is_dict(value)):
                    yield rel, target.id


def test_no_module_level_cache_dicts():
    found = sorted(set(_module_caches()) - ALLOWED)
    assert found == [], (
        "memoise through repro.cache.memo.get(kind, key, compute) with a "
        f"content key instead of a module-level dict: {found}"
    )


def test_allowed_caches_are_live():
    """A stale exemption would silently widen the lint."""
    assert ALLOWED <= set(_module_caches())
