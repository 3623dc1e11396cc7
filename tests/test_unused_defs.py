"""Every top-level function and class under src/pmtree/, and every method
that is not a dunder, is read somewhere in src/ outside __init__.py.

A read is a name or attribute load, or a `from ... import` of the name.
Re-exports in __init__.py do not count, so a definition kept only for a test
or for the package namespace shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "pmtree").glob("*.py") if p.name != "__init__.py")

# Transcript.c_c is the public channel's bit count. The engine tests check it
# beside c_a, c_b and c_m, and it stays for measuring communication per
# channel.
EXEMPT = {("engine.py", "Transcript.c_c")}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, f"{node.name}.{item.name}", item.lineno


def _reads(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_read_in_src():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    read = set().union(*map(_reads, trees.values()))
    unread = [
        f"{path.name}: {qualified} (line {line})"
        for path, tree in trees.items()
        for name, qualified, line in _definitions(tree)
        if name not in read and (path.name, qualified) not in EXEMPT
    ]
    assert not unread, "defined under src/pmtree/ but read nowhere in src/: " + ", ".join(unread)
