"""Static checks on the package source, read with ast: no import that its
module never reads, no private top-level function or class that nothing
in the package references, no definition that nothing in the package
reads but those a benchmark file names, and no assert statement."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "galoispairs"


def modules() -> dict:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def names_read(tree, skip=None) -> set:
    """Every name a Load reads or an attribute names, and every name an
    ImportFrom takes, outside the subtree `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_imports(name: str, tree) -> list:
    """The names that the imports of one module bind and no Load reads,
    past `from __future__` imports and the re-exports of __init__.py."""
    if name == "__init__.py":
        return []
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    out.append(f"{name}:{node.lineno} {bound}")
    return out


def unreferenced_private_defs(trees: dict) -> list:
    """Private top-level functions and classes that no module of the package
    names outside their own definition."""
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                if not any(node.name in names_read(other, skip=node)
                           for other in trees.values()):
                    out.append(f"{name}:{node.lineno} {node.name}")
    return out


# the definitions that no package module reads, each kept because a file of
# the benchmark under perfbench/ names it
UNREAD_BUT_PINNED = [
    "cases.case_subgroups",  # perfbench/tracing.py SPANS
    "polys.Poly.gcd",  # perfbench/tracing.py METHODS
    "search.find_scaling_conjugates",  # perfbench/tracing.py SPANS, perfbench/child.py run_job
]


def unread_definitions(trees: dict) -> list:
    """The top-level functions and classes and the methods of top-level
    classes, dunders excepted, that no module of the package names outside
    their own definition, as module.name or module.Class.name; the
    re-exports of __init__.py are not reads."""
    readers = [tree for name, tree in trees.items() if name != "__init__.py"]
    out = []
    for name, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                defs += [(f"{top.name}.{node.name}", node) for node in top.body
                         if isinstance(node, ast.FunctionDef)]
            for qualname, node in defs:
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if not any(node.name in names_read(other, skip=node) for other in readers):
                    out.append(f"{name[:-3]}.{qualname}")
    return sorted(out)


def assert_statements(name: str, tree) -> list:
    """Every assert statement of one module. python -O strips them, so a
    check in the package raises an explicit error, and a proved fact is
    tested in tests/."""
    return [f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_every_import_is_read():
    trees = modules()
    assert [bad for name, tree in trees.items()
            for bad in unread_imports(name, tree)] == []


def test_every_private_definition_is_referenced():
    assert unreferenced_private_defs(modules()) == []


def test_every_definition_is_read_or_pinned_by_the_benchmark():
    assert unread_definitions(modules()) == UNREAD_BUT_PINNED


def test_the_package_holds_no_assert():
    assert [bad for name, tree in modules().items()
            for bad in assert_statements(name, tree)] == []


def test_the_checks_flag_what_they_look_for():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nfrom typing import Iterator, Sequence\n"
                     "def _used(x: Sequence): return x\n"
                     "def _unused(): return _unused()\n"
                     "y = _used(1)\n"
                     "assert y, y\n")
    assert unread_imports("m.py", tree) == ["m.py:2 json", "m.py:3 Iterator"]
    assert unreferenced_private_defs({"m.py": tree}) == ["m.py:5 _unused"]
    assert assert_statements("m.py", tree) == ["m.py:7"]


def test_the_definition_check_flags_what_nothing_reads():
    tree = ast.parse("class K:\n"
                     "    def __init__(self): self.used()\n"
                     "    def used(self): return 1\n"
                     "    def unused(self): return self.unused()\n"
                     "def top(): return K()\n"
                     "def lone(): return top()\n")
    exports = ast.parse("from .m import K, lone\n")
    assert unread_definitions({"m.py": tree, "__init__.py": exports}) == ["m.K.unused",
                                                                          "m.lone"]
