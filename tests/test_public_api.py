"""Every name a ``src`` module exports has a reader in the program, and
every option of the public API takes a second value there.

A name in a module's ``__all__`` must be read somewhere in ``src/`` -- as
a name, an attribute or an import, outside its own definition -- or be
named in ``benchlab/``, whose tracers wrap their targets by name.  So must
every public method and property of a class that a module exports.  Names
that only tests read are deleted, unless they are listed below with the
reason they stay.

A defaulted parameter of the same functions and methods, or of a public
function that ``benchlab/`` names, is an option.  An option that every
call in ``src/`` and ``benchlab/`` leaves at one value is pinned: the
value is written once where it is used, unless the option is listed below
with the reason it stays.
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

# option -> why it stays although the program passes it one value
ONE_VALUE = {
    "linearize.dein_fd.eps": "the finite-difference step, which the tests "
                             "vary to measure the error's order",
    "linearize.dboundary_data_fd.eps": "the finite-difference step of a "
                                       "reference route, as for dein_fd",
    "quadrature.dewitt_green_ric_defect.ein_corrected":
        "the correction whose absence the tests show breaks the identity "
        "off Ricci-flat backgrounds",
    "quadrature.green_symmetry_defects.ein_corrected":
        "the same correction for both routes at once",
    "bvp.h0_spectrum.closed_torus": "the torus control, benchmarked by "
                                    "name; cohomology_probe passes it",
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


def _options(trees: dict, bench_names: set) -> list:
    """(dotted name, def, whether calls skip its first parameter) of every
    function that a module exports or ``benchlab/`` names, and of every
    public method of an exported class."""
    out = []
    for mod, tree in trees.items():
        exported = set(_exports(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and (
                    node.name in exported or node.name in bench_names):
                out.append((f"{mod}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                out.extend(
                    (f"{mod}.{node.name}.{item.name}", item, not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in item.decorator_list))
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_"))
    return out


def _calls(tree: ast.AST) -> list:
    """(called name, args, keywords, names bound in the enclosing
    functions) of every call, and of every function reference passed with
    its arguments after it, as in ``tally.op(name, fn, *args, **kwargs)``."""
    out = []

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            bound = bound | {p.arg for p in a.posonlyargs + a.args
                             + a.kwonlyargs} | {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Call):
            for i, ref in enumerate([node.func] + node.args):
                name = getattr(ref, "id", None) or getattr(ref, "attr", None)
                if name and (i == 0 or isinstance(ref, (ast.Name,
                                                        ast.Attribute))):
                    out.append((name, node.args[i:], node.keywords, bound))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return out


def _value(node: ast.AST, bound: set):
    """A literal or a module-level name as source text; any other
    argument, a local variable included, varies (a fresh object)."""
    try:
        ast.literal_eval(node)
        return ast.unparse(node)
    except ValueError:
        if isinstance(node, ast.Name) and node.id not in bound:
            return node.id
        return object()


def test_every_option_has_a_second_value():
    trees = _trees()
    program = [ast.parse(p.read_text())
               for p in [*SRC.glob("*.py"), *(ROOT / "benchlab").glob("*.py")]]
    calls = [c for tree in program for c in _calls(tree)]
    bench_names = {n.attr if isinstance(n, ast.Attribute) else n.value
                   for p in (ROOT / "benchlab").glob("*.py")
                   for n in ast.walk(ast.parse(p.read_text()))
                   if isinstance(n, ast.Attribute)
                   or isinstance(getattr(n, "value", None), str)}
    pinned = []
    for dotted, fn, method in _options(trees, bench_names):
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args][int(method):]
        defaults = dict(zip(params[len(params) - len(a.defaults):],
                            a.defaults))
        defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs,
                                                    a.kw_defaults) if d)
        name = dotted.rsplit(".", 1)[1]
        sites = [(args, kws, bound) for called, args, kws, bound in calls
                 if called == name
                 and not any(isinstance(x, ast.Starred) for x in args)]
        for param, default in defaults.items():
            values = set()
            for args, kws, bound in sites:
                given = {k.arg: k.value for k in kws if k.arg}
                if param in params and params.index(param) < len(args):
                    given[param] = args[params.index(param)]
                values.add(_value(given.get(param, default), bound))
            if len(values) < 2:
                pinned.append(f"{dotted}.{param}")
    assert sorted(pinned) == sorted(ONE_VALUE), (
        "options that the program passes one value: "
        f"{sorted(set(pinned) - set(ONE_VALUE))}; allowed options that now "
        f"take a second value: {sorted(set(ONE_VALUE) - set(pinned))}")
