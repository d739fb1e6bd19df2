"""Every module-level import in ``src/relocsplit`` is used in its module, listed in its
``__all__``, or marked ``# noqa: F401 - <reason>``; every module-level assignment, function and
class is read somewhere in the package, listed in an ``__all__``, or marked ``# kept - <reason>``.
No linter runs on the package, so without this an import or a name that a deletion leaves unused
would go unnoticed."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relocsplit"
#: a mark names its reason after a dash: ``# noqa: F401 - the benchmark wraps this name``
MARK = re.compile(r"#\s*noqa:\s*F401\s+-\s+\S")
#: the same for a name nothing in the package reads: ``# kept - the benchmark wraps this name``
KEPT = re.compile(r"#\s*kept\s+-\s+\S")


def _exported(tree) -> set[str]:
    """The names the ``__all__`` of a module lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each module-level import of ``source`` that nothing in the module reads,
    ``__all__`` does not list and no reasoned mark on the name's own line excuses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _exported(tree)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported and not MARK.search(lines[alias.lineno - 1]):
                unused.append(f"{node.lineno}: {name}")
    return unused


def _defined(node) -> list[str]:
    """The names a module-level statement binds by assignment, ``def`` or ``class``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
    return []


def unread_names(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each module-level assignment, function or class of ``sources``
    (module name to source) that no module reads, as a name, as an attribute of an imported name
    (``module.name``) or by ``from ... import``, no ``__all__`` lists and no reasoned mark on its
    first line excuses. ``self.name`` reads a class attribute, not the module-level name. Dunder
    names, which Python itself reads, are left out."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read, exported = set(), set()
    for tree in trees.values():
        exported |= _exported(tree)
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and getattr(node.value, "id", None) in imported):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        lines = sources[module].splitlines()
        for node in tree.body:
            for name in _defined(node):
                if (name not in read and name not in exported and not name.startswith("__")
                        and not KEPT.search(lines[node.lineno - 1])):
                    unread.append(f"{module}:{node.lineno}: {name}")
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_exported_or_marked(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\n", ["1: math"]),
    ("import os.path\nos.sep\n", []),
    ("from a import (\n    b,\n    c,\n)\nb()\n", ["1: c"]),
    ("from a import b as c\nc\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b  # noqa: F401\n", ["1: b"]),
    ("from a import b  # noqa: F401 - kept for a caller that patches it\n", []),
    ("from a import (\n    b,  # noqa: F401 - kept for a caller that patches it\n)\n", []),
    ("from a import (\n    b,  # noqa: F401 - kept\n    c,\n)\n", ["1: c"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import math\n", []),
], ids=["unused", "dotted_used", "one_of_two", "alias_used", "exported", "mark_without_reason",
        "mark_with_reason", "mark_inside_parentheses", "mark_excuses_its_name_only", "future",
        "not_module_level"])
def test_the_scan_flags_what_it_should(source, unused):
    assert unused_imports(source) == unused


def test_every_module_level_name_is_read_exported_or_kept():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_names(sources) == []


@pytest.mark.parametrize("sources, unread", [
    ({"m": "X = 1\n"}, ["m:1: X"]),
    ({"m": "X = 1\nprint(X)\n"}, []),
    ({"m": "def f():\n    pass\n"}, ["m:1: f"]),
    ({"m": "class C:\n    pass\n"}, ["m:1: C"]),
    ({"m": "A, B = 1, 2\nA\n"}, ["m:1: B"]),
    ({"m": "X: int = 1\n"}, ["m:1: X"]),
    ({"m": "X = 1\nX = 2\n"}, ["m:1: X", "m:2: X"]),
    ({"m": "X = {}\nX['a'] = 1\n"}, []),
    ({"a": "X = 1\n", "b": "from a import X\n"}, []),
    ({"a": "X = 1\n", "b": "import a\na.X\n"}, []),
    ({"a": "X = 1\n", "b": "import a\na.X = 2\n"}, ["a:1: X"]),
    ({"a": "X = 1\n", "b": "from . import a as m\nm.X\n"}, []),
    ({"m": "X = 1\nclass C:\n    X = 2\n    def f(self):\n        return self.X\nC().f()\n"}, ["m:1: X"]),
    ({"m": "X = 1\n__all__ = ['X']\n"}, []),
    ({"m": "X = 1  # kept\n"}, ["m:1: X"]),
    ({"m": "X = 1  # kept - a caller outside the package wraps it\n"}, []),
    ({"m": "X = (\n    1,  # kept - not on the first line\n)\n"}, ["m:1: X"]),
    ({"m": "def f():\n    y = 1\n    return y\nf()\n"}, []),
    ({"m": "__version__ = '1'\n"}, []),
], ids=["unread", "read", "function", "class", "one_of_two_targets", "annotated", "stored_twice", "item_store_reads",
        "imported_elsewhere", "attribute_elsewhere", "attribute_store", "attribute_of_an_alias",
        "class_attribute_of_the_same_name", "exported",
        "mark_without_reason", "mark_with_reason", "mark_off_the_first_line", "not_module_level",
        "dunder"])
def test_the_name_scan_flags_what_it_should(sources, unread):
    assert unread_names(sources) == unread
