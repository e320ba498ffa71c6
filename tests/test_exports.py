"""The package's public names, and a reader in src/ for every other."""

import re
from pathlib import Path

import stringykit

SRC = Path(stringykit.__file__).resolve().parent


def test_all_names_resolve():
    missing = [n for n in stringykit.__all__ if not hasattr(stringykit, n)]
    assert missing == []
    assert len(set(stringykit.__all__)) == len(stringykit.__all__)


def test_every_definition_has_a_src_reader():
    """Every def in src/, dunders excepted, is named somewhere in src/
    outside its own def lines, or is a public name: no wrapper that only
    tests read."""
    texts = [p.read_text() for p in SRC.rglob("*.py")]
    unread = []
    for text in texts:
        for name in re.findall(r"^\s*def (\w+)", text, re.M):
            if re.fullmatch(r"__\w+__", name) or name in stringykit.__all__:
                continue
            word = re.compile(r"\b%s\b" % name)
            defs = re.compile(r"^\s*def %s\b" % name, re.M)
            if not any(len(word.findall(t)) > len(defs.findall(t))
                       for t in texts):
                unread.append(name)
    assert unread == []
