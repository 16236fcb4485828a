"""Source hygiene that no lint step checks: every imported name is used,
and every local a function assigns is read.

An AST scan of ``src/tbntools/*.py``, ``tests/*.py`` and ``tools/*.py``.
An imported name counts as used when it is read anywhere in its module
(as a name or as the base of an attribute), listed in the module's
``__all__``, or named in a string annotation.  ``from __future__``
imports are exempt.  A local counts as read when the function, or a
function nested in it, reads it or updates it in place (``+=``); names
starting with ``_`` and names declared ``global`` or ``nonlocal`` are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for pattern in ("src/tbntools/*.py", "tests/*.py", "tools/*.py")
    for path in sorted(ROOT.glob(pattern))
]


def imported_names(tree):
    """(bound name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        yield elt.value


def annotation_names(tree):
    """Names read inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
            ):
                if arg is not None:
                    annotations.append(arg.annotation)
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if annotation is None:
            continue
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(
                const.value, str
            ):
                yield from used_names(ast.parse(const.value, mode="eval"))


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id


def unused_imports(source):
    tree = ast.parse(source)
    used = (
        set(used_names(tree))
        | set(exported_names(tree))
        | set(annotation_names(tree))
    )
    return [
        (name, line) for name, line in imported_names(tree)
        if name not in used
    ]


def unread_locals(source):
    """(function, name, line) of each local assigned and never read."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                read.add(node.target.id)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                else:
                    stored.setdefault(node.id, node.lineno)
        unread.extend(
            (fn.name, name, line) for name, line in stored.items()
            if name not in read and not name.startswith("_")
        )
    return unread


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_every_local_is_read(path):
    assert unread_locals(path.read_text()) == []


class TestScan:
    def test_finds_an_unused_import(self):
        source = "import os\nfrom typing import List, Tuple\nx: List = []\n"
        assert unused_imports(source) == [("os", 1), ("Tuple", 2)]

    def test_exempt_uses(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import List, Dict\n"
            "from .core import Tbn\n"
            "__all__ = ['Tbn']\n"
            "def f(x: 'List[int]') -> 'Dict': return os.path.join(x)\n"
        )
        assert unused_imports(source) == []

    def test_finds_an_unread_local(self):
        source = (
            "def f(xs):\n"
            "    total = 0\n"
            "    label = None\n"
            "    for x in xs:\n"
            "        total += 1\n"
            "    return 1\n"
        )
        assert unread_locals(source) == [("f", "label", 3), ("f", "x", 4)]

    def test_exempt_locals(self):
        source = (
            "count = 0\n"
            "def f(pairs):\n"
            "    global count\n"
            "    count = 1\n"
            "    for _k, v in pairs:\n"
            "        def g():\n"
            "            return v\n"
            "    return g\n"
        )
        assert unread_locals(source) == []
