"""Print, per source file of the package, the statements inside functions that
a fixed run of the program never executes.

Usage: python tools/traffic_lines.py [CHECKOUT]

Imports the package from CHECKOUT's ``src`` (by default the checkout holding
this file) and, in one process under ``sys.settrace``, runs:

- the CLI scenario of ``tools/artifact_digest.py``, through
  ``skullsynth.cli.main`` in a temp dir;
- each perfbench workload's ``setup`` at seed 0, its ``checks``, and
  operations 1 and 2, each with its ``verify``.

A statement counts as run when a line event fell anywhere in its lines, those
of the statements nested in it included; statements that share a line are
counted together.  Docstrings are not statements here.  For each file under
``src/`` it prints ``<path>: <n> of <total> statements inside functions not
run``, then the unrun ones, outermost only: a function none of whose
statements ran is one ``never called`` line.  Module and class bodies, which
run at import, are not counted.

Standard library only; the code it traces needs the package's dependencies.
Expect a few minutes: the trace slows pure-Python code several times over.
"""

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _traced(run, prefix):
    """Call ``run()`` under `sys.settrace`; {file name: lines executed} of the
    files whose names start with `prefix`."""
    seen = {}
    local_tracers = {}

    def local_for(filename):
        lines = seen.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if filename not in local_tracers:
            local_tracers[filename] = local_for(filename)
        return local_tracers[filename]

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def _digest_scenario():
    """The ``artifact_digest`` scenario, in-process, in a temp dir."""
    import artifact_digest
    from skullsynth import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for args in artifact_digest._scenario():
                if args[0] == "evaluate":
                    artifact_digest._pair_masks(work)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(args)
                if code != 0:
                    raise RuntimeError(f"exit {code} from {' '.join(args)}")
        finally:
            os.chdir(cwd)


def _workloads():
    """Each perfbench workload: set-up at seed 0, checks, operations 1 and 2."""
    import workloads

    for name, make in workloads.WORKLOADS.items():
        workload = make()
        with tempfile.TemporaryDirectory() as work:
            workload.setup(work, 0)
            failed = [check for check, ok in workload.checks() if not ok]
            for i in (1, 2):
                _, result = workload.run(i)
                failed += workload.verify(i, result)[0]
        for failure in failed:
            print(f"warning: {name}: {failure}", file=sys.stderr)


def _body(node):
    """`node`'s statements, less a leading docstring."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _children(stmt):
    """The statements nested directly in `stmt`."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return _body(stmt)
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += getattr(stmt, field, [])
    for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        out += part.body
    return out


def _span(stmt):
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    return start, stmt.end_lineno


def _count(stmts):
    return sum(1 + _count(_children(s)) for s in stmts)


def _functions(stmts):
    """The functions of a module or class body, methods of nested classes included."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from _functions(stmt.body)
        else:
            yield from _functions(_children(stmt))


def _report(path, executed):
    """(statements inside functions, unrun ones, lines describing them) of `path`."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()

    def ran(stmt):
        start, end = _span(stmt)
        return any(n in executed for n in range(start, end + 1))

    def unrun(stmts):
        for stmt in stmts:
            if ran(stmt):
                yield from unrun(_children(stmt))
            else:
                start, end = _span(stmt)
                yield _count([stmt]), f"  {start}-{end}: {text[start - 1].strip()}"

    total, missed, lines = 0, 0, []
    for fn in _functions(ast.parse(source).body):
        body = _body(fn)
        total += _count(body)
        if body and not any(ran(s) for s in body):
            missed += _count(body)
            lines.append(f"  {fn.lineno}-{fn.end_lineno}: def {fn.name} (never called)")
            continue
        for n, line in unrun(body):
            missed += n
            lines.append(line)
    return total, missed, lines


def main(argv):
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0]).resolve() if argv else ROOT
    src = root / "src"
    sys.path[:0] = [str(src), str(root / "perfbench"), str(ROOT / "tools")]
    package = src / "skullsynth"
    executed = _traced(lambda: (_digest_scenario(), _workloads()), str(package))
    for path in sorted(package.rglob("*.py")):
        total, missed, lines = _report(path, executed.get(str(path), set()))
        print(f"{path.relative_to(root)}: {missed} of {total} statements inside functions not run")
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
