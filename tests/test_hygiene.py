"""Every module-level import in ``src/relocsplit`` is used in its module, listed in its
``__all__``, or marked ``# noqa: F401 - <reason>``. No linter runs on the package, so without this
an import that a deletion leaves unused would go unnoticed."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relocsplit"
#: a mark names its reason after a dash: ``# noqa: F401 - the benchmark wraps this name``
MARK = re.compile(r"#\s*noqa:\s*F401\s+-\s+\S")


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each module-level import of ``source`` that nothing in the module reads,
    ``__all__`` does not list and no reasoned mark on the name's own line excuses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
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
