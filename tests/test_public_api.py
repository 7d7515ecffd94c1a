"""Every name a ``src`` module exports has a reader in the program.

A name in a module's ``__all__`` must be read somewhere in ``src/`` -- as
a name, an attribute or an import, outside its own definition -- or be
named in ``benchlab/``, whose tracers wrap their targets by name.  Names
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


def test_every_exported_name_has_a_reader():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    read = set().union(*map(_names_read, trees.values()))
    bench = "\n".join(p.read_text() for p in (ROOT / "benchlab").glob("*.py"))
    unread = sorted(
        f"{mod}.{name}" for mod, tree in trees.items()
        for name in _exports(tree)
        if name not in read and not re.search(rf"\b{name}\b", bench))
    assert unread == sorted(TEST_ONLY), (
        "exported names with no reader in src/ or benchlab/: "
        f"{sorted(set(unread) - set(TEST_ONLY))}; allowed names that now "
        f"have one: {sorted(set(TEST_ONLY) - set(unread))}")
