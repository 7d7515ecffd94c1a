"""Every name a ``src`` module exports has a reader in the program.

A name in a module's ``__all__`` must be read somewhere in ``src/`` -- as
a name, an attribute or an import, outside its own definition -- or be
named in ``benchlab/``, whose tracers wrap their targets by name.  So must
every public method and property of a class that a module exports.  Names
that only tests read are deleted, unless they are listed below with the
reason they stay.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bianchi_lab"

# name -> why it stays although only tests read it
TEST_ONLY = {
    "linearize.dein_fd": "the finite-difference reference for dein_closed",
    "algebra.basis_covector": "the exact basis constructor that the sign "
                              "tests use",
}


def _names_read(tree: ast.AST) -> set:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def _exports(tree: ast.AST) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _public_methods(tree: ast.AST) -> list:
    """(class, method) of every public method and property, classmethods
    included, of the classes in the module's ``__all__``."""
    exported = set(_exports(tree))
    return [(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in exported
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def _unread(names, trees: dict) -> list:
    """The dotted names in ``names`` whose last part no module of
    ``trees`` reads and ``benchlab/`` does not name."""
    read = set().union(*map(_names_read, trees.values()))
    bench = "\n".join(p.read_text() for p in (ROOT / "benchlab").glob("*.py"))
    return sorted(
        dotted for dotted in names
        for name in [dotted.rsplit(".", 1)[1]]
        if name not in read and not re.search(rf"\b{name}\b", bench))


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}


def test_every_exported_name_has_a_reader():
    trees = _trees()
    unread = _unread((f"{mod}.{name}" for mod, tree in trees.items()
                      for name in _exports(tree)), trees)
    assert unread == sorted(TEST_ONLY), (
        "exported names with no reader in src/ or benchlab/: "
        f"{sorted(set(unread) - set(TEST_ONLY))}; allowed names that now "
        f"have one: {sorted(set(TEST_ONLY) - set(unread))}")


def test_every_public_method_of_an_exported_class_has_a_reader():
    trees = _trees()
    methods = [f"{mod}.{cls}.{name}" for mod, tree in trees.items()
               for cls, name in _public_methods(tree)]
    assert methods  # the scan sees the classes
    unread = _unread(methods, trees)
    assert unread == [], (
        f"public methods with no reader in src/ or benchlab/: {unread}")
