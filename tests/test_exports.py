"""The package's public names, and a reader in src/ for every other."""

import ast
import re
from pathlib import Path

import stringykit

SRC = Path(stringykit.__file__).resolve().parent


def test_all_names_resolve():
    missing = [n for n in stringykit.__all__ if not hasattr(stringykit, n)]
    assert missing == []
    assert len(set(stringykit.__all__)) == len(stringykit.__all__)


def _reader_names(node, skip):
    """Names that the Name, Attribute and import alias nodes under node
    read, outside the subtree skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _reader_names(child, skip)


def test_every_definition_has_a_src_reader():
    """Every def in src/, dunders excepted, is read somewhere in src/
    outside the def itself, as a name, an attribute or an import, or is
    a public name: no wrapper that only tests read.  A mention in a
    docstring or a comment is no reader."""
    trees = [ast.parse(p.read_text()) for p in SRC.rglob("*.py")]
    unread = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if re.fullmatch(r"__\w+__", name) or name in stringykit.__all__:
                continue
            if not any(name in _reader_names(t, node) for t in trees):
                unread.append(name)
    assert unread == []
