"""tools/paired_bench.py over stand-in checkouts whose benchmark prints a
fixed result, so no real benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

FAKE_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
print(f"# replays=3 digest=d{seed}")
print(json.dumps({
    "correct": CORRECT,
    "attempted": 10,
    "failed": FAILED,
    "metrics": {
        "op_p50_ms": {"value": P50 + seed % 2, "unit": "ms"},
        "ops_per_s": {"value": 100.0 / P50, "unit": "1/s"},
    },
}))
"""


def checkout(root: Path, p50: float, correct: bool = True, failed: int = 0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.replace("CORRECT", repr(correct)).replace("FAILED", str(failed)).replace("P50", repr(p50))
    )
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 1,
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "op_p50_ms", "better": "lower"},
            {"name": "ops_per_s", "better": "higher"},
        ],
    }))
    return root


def test_pairs_alternate_and_report_medians_quartiles_and_wins(tmp_path, capsys):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "1-4"]) == 0
    report = json.loads(capsys.readouterr().out)["workloads"]["w"]
    assert report["seeds"] == [1, 2, 3, 4]
    assert report["first_side"] == ["parent", "change", "parent", "change"]
    assert report["digests_equal_per_pair"] and report["all_correct"]
    p50 = report["metrics"]["op_p50_ms"]
    assert p50["parent"] == [3.0, 2.0, 3.0, 2.0] and p50["change"] == [2.0, 1.0, 2.0, 1.0]
    assert (p50["parent_median"], p50["parent_quartiles"]) == (2.5, [2.0, 3.0])
    assert p50["change_over_parent"] == 0.6 and p50["change_wins"] == 4
    assert report["metrics"]["ops_per_s"]["change_wins"] == 4  # higher is better there


@pytest.mark.parametrize("fault", [{"correct": False}, {"failed": 1}])
def test_an_incorrect_run_or_a_failed_operation_exits_non_zero(tmp_path, capsys, fault):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0, **fault)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "5"]) == 1


def test_net_src_lines_count_each_changed_file_and_the_total(tmp_path, capsys):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    for root, files in (
        (parent, {"a.py": "x\ny\nz\n", "same.py": "s\n", "gone.py": "g\ng\n"}),
        (change, {"a.py": "x\nY\nz\nw\n", "same.py": "s\n", "sub/new.py": "n\nn\nn\n",
                  "notes.txt": "t\n"}),
    ):
        for name, text in files.items():
            (root / "src" / name).parent.mkdir(parents=True, exist_ok=True)
            (root / "src" / name).write_text(text)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["net_src_lines"] == {
        "files": {
            "a.py": {"added": 2, "removed": 1, "net": 1},
            "gone.py": {"added": 0, "removed": 2, "net": -2},
            "sub/new.py": {"added": 3, "removed": 0, "net": 3},
        },
        "added": 5,
        "removed": 3,
        "net": 2,
    }


def test_a_helper_moved_from_src_into_tests_counts_in_both_trees(tmp_path, capsys):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    helper = "def drop_at(position):\n    return position\n"
    for root, src, tests in (
        (parent, "x = 1\n" + helper, "import m\n"),
        (change, "x = 1\n", "import m\n" + helper),
    ):
        for path, text in ((root / "src" / "m.py", src), (root / "tests" / "test_m.py", tests)):
            path.parent.mkdir()
            path.write_text(text)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["net_src_lines"]["files"] == {"m.py": {"added": 0, "removed": 2, "net": -2}}
    assert report["net_test_lines"]["files"] == {"test_m.py": {"added": 2, "removed": 0, "net": 2}}


PARENT_SRC = '''"""Module docstring."""

# A comment alone on its line.
def f(a):
    """Function docstring,
    on two lines."""
    b = a + 1  # a trailing comment
    return b
'''


@pytest.mark.parametrize(
    "edit, net_src, net_code",
    [
        (lambda src: src.replace("Module", "The module's").replace("two lines", "2 lines"), 0, 0),
        (lambda src: src.replace("alone on its line", "reworded").replace("trailing", "changed"), 0, 0),
        (lambda src: src.replace("# A comment alone on its line.\n", ""), -1, 0),
        (lambda src: src.replace("    b = a + 1  # a trailing comment\n", "").replace("return b", "return a"), -1, -1),
    ],
    ids=["docstrings", "comments", "comment-line", "statement"],
)
def test_net_code_lines_leave_out_comments_and_docstrings(tmp_path, capsys, edit, net_src, net_code):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    for root, text in ((parent, PARENT_SRC), (change, edit(PARENT_SRC))):
        (root / "src").mkdir()
        (root / "src" / "m.py").write_text(text)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["net_src_lines"]["net"], report["net_code_lines"]["net"]) == (net_src, net_code)


def test_code_lines_are_the_lines_that_hold_code_without_their_comments():
    assert paired_bench.code_lines(PARENT_SRC) == ["def f(a):", "    b = a + 1", "    return b"]


def test_settable_options_count_each_sides_defaults(tmp_path, capsys):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    for root, text in (
        (parent, "from dataclasses import dataclass, field\n"
                 "def f(a, b=1, *, c=2, d): return lambda x=0: x\n"
                 "@dataclass\nclass R:\n    a: int\n    b: int = 0\n"
                 "    c: list = field(default_factory=list)\n    d: int = field(init=False)\n"),
        (change, "def f(a, b=1): pass\nclass Plain:\n    a: int = 0\n"),
    ):
        (root / "src" / "pkg").mkdir(parents=True)
        (root / "src" / "pkg" / "m.py").write_text(text)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "1"]) == 0
    # Parent: b, c and x=0 in functions, R.b and R.c; R.d is init=False.
    # Change: b alone; a plain class's attribute is no option.
    assert json.loads(capsys.readouterr().out)["settable_options"] == {"parent": 5, "change": 1}


def test_options_changed_names_each_option_lost_or_gained(tmp_path, capsys):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    for root, text in (
        (parent, "from dataclasses import dataclass\n"
                 "@dataclass\nclass R:\n    a: int = 0\n    b: int = 1\n"
                 "class C:\n    def __init__(self, x=0): pass\n    def m(self, y=0, *, z=1): pass\n"
                 "def f(s=0):\n    def inner(t=0): pass\n"),
        (change, "from dataclasses import dataclass\n"
                 "@dataclass\nclass R:\n    a: int\n    b: int = 1\n"
                 "class C:\n    def __init__(self, x): pass\n    def m(self, y=0, *, z=1): pass\n"
                 "def f(s):\n    def inner(t=0): pass\n    return lambda u=0: u\n"),
    ):
        (root / "src" / "pkg").mkdir(parents=True)
        (root / "src" / "pkg" / "m.py").write_text(text)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["settable_options"] == {"parent": 7, "change": 5}
    assert report["options_changed"] == {
        "lost": ["pkg.m.C(x)", "pkg.m.R.a", "pkg.m.f(s)"],
        "gained": ["pkg.m.f.<lambda>(u)"],
    }


def test_symbols_changed_names_each_module_level_symbol_lost_or_gained(tmp_path, capsys):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    for root, files in (
        (parent, {"m.py": "A = 1\nB: int = 2\n__all__ = []\nclass C:\n    D = 3\n    def e(self): pass\n"
                          "def f():\n    g = 4\nx.h = 5\n", "n.py": "def gone(): pass\n"}),
        (change, {"m.py": "A = B = 1\nclass C:\n    def e(self): pass\nasync def f(): pass\n"
                          "def new(): pass\n", "sub/n.py": "def gone(): pass\n"}),
    ):
        for name, text in files.items():
            (root / "src" / "pkg" / name).parent.mkdir(parents=True, exist_ok=True)
            (root / "src" / "pkg" / name).write_text(text)
    assert paired_bench.main([str(parent), str(change), "--workloads", "w", "--seeds", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    # Dunders, class attributes, methods, locals and attribute targets are
    # not symbols; a symbol that moves to another module is lost and gained.
    assert report["symbols_changed"] == {
        "lost": ["pkg.n.gone"],
        "gained": ["pkg.m.new", "pkg.sub.n.gone"],
    }


def test_unknown_workload_or_bad_seed_range_is_a_usage_error(tmp_path):
    parent, change = checkout(tmp_path / "p", 2.0), checkout(tmp_path / "c", 1.0)
    for args in (["--workloads", "nope", "--seeds", "1-2"], ["--workloads", "w", "--seeds", "3-1"]):
        with pytest.raises(SystemExit) as exc:
            paired_bench.main([str(parent), str(change), *args])
        assert exc.value.code == 2
