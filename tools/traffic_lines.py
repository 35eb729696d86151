"""The lines of ``src/`` that the program's own traffic never runs.

    python3 tools/traffic_lines.py [ROOT]

ROOT is a source tree, by default the one this script sits in. The script
imports the package from ``ROOT/src`` and the benchmark's workloads from
``ROOT/perfbench/workloads.py``, which it only reads, and writes no file
there. Under ``sys.settrace`` it then drives the traffic:

- each workload of ``WORKLOADS`` at seed 5, in a temporary directory:
  ``setup()``, ``reset()``, one cycle of ``check(op, run(prepare(op)))``,
  then ``state()`` and ``info()``;
- ``cli.main`` for ``report`` and for ``bench --table 1|2|3``, each in
  ``text``, ``csv`` and ``json``, and for ``attack --kind K`` of each kind.

It prints one JSON object. ``missed`` maps each module under ``ROOT/src``,
and each of its functions by qualified name, to the statement lines that
never ran; a function that ran every statement is left out. ``never_entered``
lists, per module, the functions that were never called. A statement is one
that compiles to code, so a docstring or a ``global`` is none; it ran when
any line of its header ran (its decorators and signature, its condition,
or the whole of a simple statement). Module and class bodies are not
functions. The commands' own output is discarded.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEED = 5
FORMATS = ("text", "csv", "json")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.ClassDef, ast.Lambda)


def _header(stmt: ast.stmt) -> range:
    """The lines that run when ``stmt`` itself runs: all of a simple
    statement; a compound one's decorators and first line up to its body."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if not isinstance(body, list):
        return range(first, stmt.end_lineno + 1)
    return range(first, max(stmt.lineno, body[0].lineno - 1) + 1)


def _code_lines(source: str, path: Path) -> set[int]:
    """Every line that some instruction of the compiled file belongs to."""
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def functions(path: Path) -> dict[str, tuple[int, list[tuple[int, range]]]]:
    """Each function of the file by qualified name: the first line its code
    object reports (a decorator's, if it has one), and each of its
    statements as its line and header, nested function and class bodies
    left out."""
    source = path.read_text()
    code_lines = _code_lines(source, path)
    found = {}

    def own_statements(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if code_lines.intersection(_header(child)):
                    yield child.lineno, _header(child)
            if not isinstance(child, _SCOPES):
                yield from own_statements(child)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                name = prefix + child.name
                found[name] = (_header(child).start, list(own_statements(child)))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def _module_name(src: Path, path: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def collect(src: Path, drive) -> dict:
    """Run ``drive()`` under ``sys.settrace`` and report the functions of
    the ``.py`` files under ``src`` that it never entered, and the statement
    lines it never ran."""
    src = src.resolve()
    files = {str(path): path for path in sorted(src.rglob("*.py"))}
    ran = {name: set() for name in files}
    entered = set()
    known = {}  # co_filename -> the key of ``files``, or None

    def local(frame, event, arg):
        if event == "line":
            ran[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in known:
            real = os.path.realpath(filename)
            known[filename] = real if real in files else None
        if known[filename] is None:
            return None
        entered.add((known[filename], frame.f_code.co_firstlineno))
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        drive()
    finally:
        sys.settrace(previous)

    missed, never_entered = {}, {}
    for name, path in files.items():
        module = _module_name(src, path)
        for qualname, (first, statements) in functions(path).items():
            lines = [line for line, header in statements if ran[name].isdisjoint(header)]
            if lines:
                missed.setdefault(module, {})[qualname] = lines
            if (name, first) not in entered:
                never_entered.setdefault(module, []).append(qualname)
    return {"missed": missed, "never_entered": never_entered}


def traffic(root: Path) -> None:
    """The workloads' cycles and the report, bench and attack commands."""
    spec = importlib.util.spec_from_file_location(
        "traffic_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    from sshaf.harness import attacks, cli

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name, workload in workloads.WORKLOADS.items():
            wl = workload(SEED, Path(tmp) / name)
            wl.setup()
            wl.reset()
            for op in wl.cycle():
                wl.check(op, wl.run(wl.prepare(op)))
            wl.state()
            wl.info()
        for fmt in FORMATS:
            cli.main(["report", "--format", fmt])
            for table in ("1", "2", "3"):
                cli.main(["bench", "--table", table, "--format", fmt])
        for kind in attacks.ATTACK_KINDS:
            cli.main(["attack", "--kind", kind])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if not (src / "sshaf" / "__init__.py").is_file():
        print(f"error: no sshaf package under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    print(json.dumps(collect(src, lambda: traffic(root)), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
