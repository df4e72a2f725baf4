"""Every public module-level function and class of the package is named by
code in the package or the benchmark outside its own definition, so code
that only tests run does not build up.  Names are matched by identifier, as
a name, an attribute or a string (the benchmark wraps callables by attribute
name)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skullsynth"
# the SR report of ROADMAP item B is to use these
ALLOWED = {"psnr", "trilinear_baseline"}


def _statements():
    """(path, top-level statement) of every module in the package and the benchmark."""
    for path in sorted([*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path, stmt


def _identifiers(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            yield n.value


def test_every_public_name_has_a_caller():
    statements = [(path, stmt, set(_identifiers(stmt))) for path, stmt in _statements()]
    uncalled = [
        f"{path.relative_to(PACKAGE)}:{stmt.name}"
        for path, stmt, _ in statements
        if path.is_relative_to(PACKAGE)
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in ALLOWED
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert uncalled == []
