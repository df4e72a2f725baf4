"""`cli.main` is the one place that turns a path error (FileNotFoundError,
IsADirectoryError, NotADirectoryError) into a message.  The code that opens a
path lets `open`'s own error through, so no other ``except`` clause in the
package names one of them: a loader that filters them through a list of its
own gets that list wrong."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PATH_ERRORS = {"FileNotFoundError", "IsADirectoryError", "NotADirectoryError"}


def _handlers(node, scope):
    """(dotted scope, except clause) of every clause under `node`; a function
    or class adds its name to the scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _handlers(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.ExceptHandler):
            yield scope, child
        yield from _handlers(child, scope)


def _named(handler):
    """The exception names an except clause spells, bare or as an attribute."""
    if handler.type is None:
        return set()
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(handler.type)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_cli_main_handles_path_errors():
    owners = []
    for path in sorted((SRC / "skullsynth").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        owners += [scope for scope, handler in _handlers(ast.parse(path.read_text()), module)
                   if _named(handler) & PATH_ERRORS]
    assert owners == ["skullsynth.cli.main"]
