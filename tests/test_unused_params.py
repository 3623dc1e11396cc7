"""Every function and method under src/pmtree/ reads each parameter it takes."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pmtree").glob("*.py"))


def _exempt(fn: ast.FunctionDef, name: str) -> bool:
    """self and cls; and quick, which every acceptance criterion takes because
    run_criterion calls them all the same way."""
    return name in ("self", "cls") or (name == "quick" and fn.name.startswith("crit_"))


def _unread(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
    read = {
        node.id
        for stmt in fn.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [p for p in params if p not in read and not _exempt(fn, p)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [
        f"{fn.name}({p}) (line {fn.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for p in _unread(fn)
    ]
    assert not unread, f"{path.name} has parameters no code reads: {', '.join(unread)}"
