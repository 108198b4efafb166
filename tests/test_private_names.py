"""Every module-level private name in the package is used somewhere in it."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "rampdro").glob("*.py"))


def _uses(node):
    # names read under node: loads, attribute reads and imported names
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name] += 1
    return found


def _private_definitions(tree):
    # (name, defining statement) for the module's own private names; dunders
    # such as __all__ and __version__ are public protocol, not helpers
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _unused(sources):
    # "file:line name" of each private name nothing reads outside its own
    # defining statement, over the modules {file name: source}
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    return [
        f"{file}:{stmt.lineno} {name}"
        for file, tree in trees.items()
        for name, stmt in _private_definitions(tree)
        if uses[name] - _uses(stmt)[name] <= 0
    ]


def test_every_private_name_is_used_outside_its_definition():
    assert MODULES
    assert _unused({path.name: path.read_text() for path in MODULES}) == []


def test_the_guard_finds_a_dead_helper():
    # a name read only inside its own definition counts as unused
    source = "_USED = 1\n_DEAD = 2\n\ndef _rec(n):\n    return _rec(n - 1) + _USED\n"
    assert _unused({"m.py": source, "n.py": "from m import _USED\n"}) == ["m.py:2 _DEAD", "m.py:4 _rec"]
