"""Every module-level function and class of the package, public or private, is
used by code in the package or the benchmark outside its own definition, so
code that only tests run, or that nothing runs, does not build up.

A name counts as used only where it is bound to its own module: referenced as
``<its module>.name`` (import aliases resolved), imported with ``from <its
module> import name``, or named bare in its own module.  In the benchmark, a
string that spells the name counts too, since its tracer wraps callables by
attribute name; in the package it does not.  So ``np.exp`` does not count as a
use of ``ops.exp``, nor the ``gan_mode`` value ``"log"`` as one of an
``ops.log``.

A method of a package class, other than a dunder, is used where package or
benchmark code reads an attribute of its name (``x.name``, on any object), or
where the benchmark spells the name as a string."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "skullsynth"
# the end-to-end test's SR report uses these (tests/test_acceptance.py)
ALLOWED = {"psnr", "trilinear_baseline"}


def _module(path):
    """Dotted module name of a file: skullsynth.engine.ops, perfbench.run."""
    rel = path.relative_to(SRC if path.is_relative_to(SRC) else ROOT).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def _aliases(tree):
    """What each imported local name is bound to, as a dotted name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    bound[a.asname] = a.name
                else:
                    head = a.name.partition(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
    return bound


def _uses(stmt, module, bound):
    """Dotted names `stmt` uses, and the identifiers it spells as strings."""
    names, strings = set(), set()

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(stmt):
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if base:
                names.add(f"{base}.{node.attr}")
        elif isinstance(node, ast.Name):
            names.add(f"{module}.{node.id}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            strings.add(node.value)
    return names, strings


def _statements():
    """(path, module, top-level statement, dotted names used, strings) of every
    module in the package and the benchmark; strings only in the benchmark."""
    for path in sorted([*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module, bound = _module(path), _aliases(tree)
        for stmt in tree.body:
            names, strings = _uses(stmt, module, bound)
            yield path, module, stmt, names, set() if path.is_relative_to(PACKAGE) else strings


def _uncalled(private):
    """The package's module-level functions and classes, public or private
    ones, that no statement but their own definition uses."""
    statements = list(_statements())
    return [
        f"{path.relative_to(PACKAGE)}:{stmt.name}"
        for path, module, stmt, _, _ in statements
        if path.is_relative_to(PACKAGE)
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") == private
        and stmt.name not in ALLOWED
        and not any(
            f"{module}.{stmt.name}" in names or stmt.name in strings
            for _, _, other, names, strings in statements
            if other is not stmt
        )
    ]


def test_every_public_name_has_a_caller():
    assert _uncalled(private=False) == []


def test_every_private_helper_has_a_caller():
    assert _uncalled(private=True) == []


def test_every_method_has_a_caller():
    statements = list(_statements())
    read = set()
    for _, _, stmt, _, strings in statements:
        read |= strings
        read.update(node.attr for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    uncalled = [
        f"{path.relative_to(PACKAGE)}:{stmt.name}.{method.name}"
        for path, _, stmt, _, _ in statements
        if path.is_relative_to(PACKAGE) and isinstance(stmt, ast.ClassDef)
        for method in stmt.body
        if isinstance(method, ast.FunctionDef)
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in read
    ]
    assert uncalled == []
