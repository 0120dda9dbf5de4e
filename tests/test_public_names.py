"""Every top-level name and class method in the package has a caller.

A function, class, constant or method whose name has no leading underscore
must be named outside its own definition: somewhere in the package, in a
benchmark script or in the README. Tests do not count as callers; a check
only tests need lives in `tests/oracles.py`, a graph constructor in
`tests/graphs.py`. The CLI module is left out, since its click commands are
reached through `main`.

A private name (one leading underscore) must be named somewhere in the
package outside its own definition. Dunder methods are called by Python.

No package file holds an `assert`: `python -O` strips them, so every guard
raises a real exception.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diffgenus"


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                out.extend((m.name, m) for m in methods)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
    return [(name, node) for name, node in out if not name.startswith("__")]


def _references(tree: ast.AST, skip: ast.stmt | None = None) -> set[str]:
    """Names and attributes the code reads or imports, outside `skip`."""
    inside = set()
    if skip is not None:
        inside = {id(n) for n in ast.walk(skip)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _uncalled(trees: dict[Path, ast.Module], private: bool, also_named: frozenset[str] = frozenset()) -> list[str]:
    """The public (or private) names defined in the package, outside the CLI
    module for public ones, that no tree names outside their definition and
    that are not in `also_named`."""
    elsewhere = {p: _references(t) for p, t in trees.items()}
    uncalled = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or (path.name == "cli.py" and not private):
            continue
        for name, node in _definitions(tree):
            if name.startswith("_") != private:
                continue
            named = name in also_named or name in _references(tree, skip=node) or any(
                name in refs for p, refs in elsewhere.items() if p != path
            )
            if not named:
                uncalled.append(f"{path.name}:{node.lineno} {name}")
    return uncalled


def _parse(paths) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text()) for p in sorted(paths)}


def test_every_public_name_has_a_caller():
    trees = {**_parse(PACKAGE.glob("*.py")), **_parse((ROOT / "bench").glob("*.py"))}
    readme = frozenset(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = _uncalled(trees, private=False, also_named=readme)
    assert not uncalled, "public names nothing in src/, bench/ or README.md uses: " + ", ".join(uncalled)


def test_every_private_name_has_a_caller():
    uncalled = _uncalled(_parse(PACKAGE.glob("*.py")), private=True)
    assert not uncalled, "private names nothing in src/ uses: " + ", ".join(uncalled)


def test_no_assert_in_the_package():
    asserts = [f"{path.name}:{node.lineno}" for path, tree in _parse(PACKAGE.glob("*.py")).items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, "assert statements in src/diffgenus: " + ", ".join(asserts)
