"""Paired benchmark runs of two source trees.

    python3 tools/paired_bench.py PARENT CHANGE --workloads W [W ...] --seeds 101-110

PARENT and CHANGE are checkouts of the two versions, each with its own
``BENCHMARK.json`` and ``perfbench/``. For each workload and each seed the
script runs the benchmark command of CHANGE's ``BENCHMARK.json`` once in each
checkout, at that file's ``run_seconds`` with tracing off, one run at a time.
Pair i runs the parent first when i is even and the change first when it is
odd, so neither side always runs on a machine the other has just warmed.

Each run's last stdout line is the benchmark's JSON result. Per workload and
end-to-end metric the script reports both sides' values, medians and
inclusive quartiles, the change's median over the parent's, and
``change_wins``: the pairs in which the change reads better, by the metric's
``better`` direction; ties count for neither side. It also compares each
pair's ``digest=`` line, the hash of every checked result. The report is one
JSON object on stdout, in the layout of the ``BENCH_*.json`` files; progress
goes to stderr.

The report also carries ``net_src_lines``: the lines added and removed in the
``.py`` files under ``src/`` from PARENT to CHANGE, per changed file and in
total, as ``difflib`` matches them. A file on one side only counts whole.
``net_code_lines`` is the same count over the lines that hold code (see
``code_lines``), so an edit to a comment or a docstring alone counts 0.
``net_test_lines`` is the count of ``net_src_lines`` over the ``.py`` files
under ``tests/``, so code moved from ``src/`` into the tests shows in both.
``settable_options`` counts, for each side, the options of the ``.py`` files
under ``src/``: every value a caller may leave out (see ``option_names``).
``options_changed`` names the options the change ``lost`` and ``gained``,
such as ``sshaf.context_engine.ContextSnapshot.timestamp`` or
``sshaf.harness.attacks.attack_replay(seed)``. ``symbols_changed`` names
the module-level functions, classes and assigned names (see
``top_level_definitions``) that the change ``lost`` and ``gained``, such as
``sshaf.errors.NoSchemeAvailable``.

Exit status: 0 when every run was correct and no operation failed, 1 when a
run reported ``correct: false`` or ``failed > 0`` or printed no result, 2 on
bad arguments. The script writes no file.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import io
import json
import re
import statistics
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

SIDES = ("parent", "change")
_DIGEST = re.compile(r"\bdigest=(\w+)")


def _seed_range(text: str) -> list[int]:
    """``A-B`` is the seeds A to B inclusive; ``A`` is one seed."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


def _tree_text(checkout: Path, tree: str, name: str) -> str:
    path = checkout / tree / name
    return path.read_text() if path.is_file() else ""


_LAYOUT_TOKENS = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> list[str]:
    """The lines of Python source ``text`` that hold code, each without its
    trailing comment: blank lines, comment-only lines and docstrings (the
    string that opens a module, class or function body) are left out."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    lines, code = text.split("\n"), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col].rstrip()
        elif token.type not in _LAYOUT_TOKENS and token.start not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    return [lines[row - 1] for row in sorted(code)]


def net_lines(parent: Path, change: Path, tree: str, lines_of) -> dict:
    """Lines added and removed in the ``.py`` files under ``tree`` (``"src"``
    or ``"tests"``) from ``parent`` to ``change``, where ``lines_of`` splits a
    file's text into the lines compared: ``files`` maps each changed file to
    its counts, and the totals follow."""
    names = sorted({
        path.relative_to(root / tree).as_posix()
        for root in (parent, change) for path in (root / tree).rglob("*.py")
    })
    files = {}
    for name in names:
        old, new = (lines_of(_tree_text(root, tree, name)) for root in (parent, change))
        added = removed = 0
        matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag != "equal":
                removed += i2 - i1
                added += j2 - j1
        if added or removed:
            files[name] = {"added": added, "removed": removed, "net": added - removed}
    added, removed = (sum(counts[key] for counts in files.values()) for key in ("added", "removed"))
    return {"files": files, "added": added, "removed": removed, "net": added - removed}


def _is_record_class(node) -> bool:
    """A dataclass (decorated ``dataclass`` or ``dataclass(...)``) or a
    ``NamedTuple`` subclass."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
            return True
    return any("NamedTuple" in (getattr(b, "id", None), getattr(b, "attr", None)) for b in node.bases)


def _init_false(value) -> bool:
    """``field(..., init=False)``: a computed field, not settable."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def option_names(tree) -> list[str]:
    """Every defaulted parameter of every function, method and lambda,
    keyword-only ones included, plus every defaulted field of every
    dataclass and NamedTuple, except ``field(init=False)``. A caller may
    leave each of them out, so each is a value some caller could set
    differently. A parameter is named ``function(parameter)``, a method's
    under its class (``Class.method(parameter)``, ``Class(parameter)`` for
    ``__init__``), and a field ``Class.field``."""
    names = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record_class(child):
                    names.extend(
                        f"{scope}{child.name}.{stmt.target.id}" for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and not _init_false(stmt.value)
                    )
                visit(child, f"{scope}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                owner = scope[:-1] if name == "__init__" and scope else scope + name
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
                ]
                names.extend(f"{owner}({arg.arg})" for arg in defaulted)
                visit(child, f"{owner}.")
            else:
                visit(child, scope)

    visit(tree, "")
    return names


def _module_names(root: Path, names_in) -> list[str]:
    """``names_in(tree)`` of every ``.py`` file under ``root``, each name
    prefixed with its module's dotted path from ``root``, sorted."""
    names = []
    for path in root.rglob("*.py"):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        names += [f"{module}.{name}" for name in names_in(ast.parse(path.read_text()))]
    return sorted(names)


def settable_option_names(root: Path) -> list[str]:
    """The ``option_names`` under ``root``, module-qualified, sorted."""
    return _module_names(root, option_names)


def settable_options(root: Path) -> int:
    """How many options ``settable_option_names`` finds under ``root``."""
    return len(settable_option_names(root))


def top_level_definitions(tree):
    """(statement index, name) of each module-level function, class and
    assigned name, dunders aside."""
    for index, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield index, stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield index, target.id


def symbol_names(root: Path) -> list[str]:
    """The ``top_level_definitions`` under ``root``, module-qualified, sorted."""
    return _module_names(root, lambda tree: [name for _, name in top_level_definitions(tree)])


def _changed(names, parent: Path, change: Path) -> dict:
    """The ``names(root)`` under ``src/`` that the change ``lost`` and
    ``gained``, each sorted."""
    before, after = (Counter(names(root / "src")) for root in (parent, change))
    return {"lost": sorted((before - after).elements()), "gained": sorted((after - before).elements())}


def options_changed(parent: Path, change: Path) -> dict:
    """The settable options the change ``lost`` and ``gained``, by name."""
    return _changed(settable_option_names, parent, change)


def symbols_changed(parent: Path, change: Path) -> dict:
    """The module-level symbols the change ``lost`` and ``gained``, by name."""
    return _changed(symbol_names, parent, change)


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds) -> dict:
    """One benchmark run in ``checkout``: its JSON result, plus its digest
    under ``digest`` (None when no line carried one)."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "digest": None}
    found = [m.group(1) for line in lines for m in [_DIGEST.search(line)] if m]
    result["digest"] = found[-1] if found else None
    return result


def summarize(values: dict[str, list[float]], better: str) -> dict:
    """Both sides' runs of one metric, pair by pair, with their statistics."""
    out = {side: values[side] for side in SIDES}
    for side in SIDES:
        runs = values[side]
        out[f"{side}_median"] = statistics.median(runs)
        out[f"{side}_quartiles"] = (
            statistics.quantiles(runs, n=4, method="inclusive")[::2] if len(runs) > 1 else runs * 2
        )
    parent_median = out["parent_median"]
    out["change_over_parent"] = out["change_median"] / parent_median if parent_median else None
    sign = 1 if better == "higher" else -1
    out["change_wins"] = sum(
        sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
    )
    out["pairs"] = len(values["parent"])
    return out


def bench_workload(checkouts, command, workload, seeds, seconds, metrics) -> dict:
    runs = {side: [] for side in SIDES}
    first_side = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            result = run_once(checkouts[side], command, workload, seed, seconds)
            runs[side].append(result)
            sys.stderr.write(
                f"{workload} seed={seed} {side}: correct={result['correct']} "
                f"failed={result['failed']} digest={result['digest']}\n"
            )
    report = {
        "seeds": seeds,
        "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "digests_equal_per_pair": all(
            p["digest"] is not None and p["digest"] == c["digest"]
            for p, c in zip(runs["parent"], runs["change"])
        ),
        "first_side": first_side,
        "metrics": {},
    }
    for name, better in metrics:
        values = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]] for side in SIDES}
        if all(v is not None for side in SIDES for v in values[side]):
            report["metrics"][name] = summarize(values, better)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent version")
    parser.add_argument("change", type=Path, help="checkout of the changed version")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workloads if w not in known]
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json lists {known}")
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))

    report = {
        "command": " ".join(spec["command"])
        + f" --workload W --seed N --seconds {seconds} --trace 0, run in each checkout",
        "seconds": seconds,
        "order": "alternating: the parent runs first on even-indexed pairs",
        "statistics": "median and quartiles (statistics.quantiles, method='inclusive') over "
        "each side's runs; change_wins counts pairs where the change is better (lower, or "
        "higher where BENCHMARK.json says so); ties count for neither",
        "net_src_lines": net_lines(*checkouts.values(), "src", str.splitlines),
        "net_code_lines": net_lines(*checkouts.values(), "src", code_lines),
        "net_test_lines": net_lines(*checkouts.values(), "tests", str.splitlines),
        "settable_options": {side: settable_options(root / "src") for side, root in checkouts.items()},
        "options_changed": options_changed(*checkouts.values()),
        "symbols_changed": symbols_changed(*checkouts.values()),
        "workloads": {
            w: bench_workload(checkouts, spec["command"], w, args.seeds, seconds, metrics)
            for w in args.workloads
        },
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    clean = all(
        w["all_correct"] and not any(w["failed_ops"].values()) for w in report["workloads"].values()
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
